"""Collective fast-path parity: closed form vs the simulated schedule.

The analytic short-circuit may only be enabled because these tests prove
it *bit-identical*: for every eligible shape the per-rank completion
times of the closed form equal the message-by-message simulation
exactly (``==`` on floats, no tolerance), including staggered entries.
"""

import pytest

from repro.des import Environment
from repro.des.engine import SimulationError
from repro.des.trace import Tracer
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.hardware.topology import NON_BLOCKING
from repro.mpi import collectives
from repro.mpi.comm import SimComm
from repro.mpi.fastpath import FastPathRefused
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap

PARITY_SIZES = [2, 3, 4, 5, 6, 7, 8, 9, 16]


def _build(p, fastpath, path=NetworkPath.HOST_NATIVE, stagger=0.0,
           tracer=None, spec=catalog.MARENOSTRUM4, n_nodes=None):
    env = Environment()
    cluster = Cluster(env, spec, num_nodes=n_nodes or p)
    cluster.wire_network(path)
    rankmap = RankMap(n_ranks=p, n_nodes=n_nodes or p)
    perf = MpiPerf.for_fabric(spec.fabric, path)
    comm = SimComm(env, cluster, rankmap, perf, tracer=tracer,
                   collective_fastpath=fastpath)
    return env, comm


def _run(p, fn, fastpath, stagger=0.0, tracer=None, **kwargs):
    """Run one collective on all ranks; returns per-rank finish times."""
    env, comm = _build(p, fastpath, tracer=tracer)
    finish = [None] * p

    def body(rank):
        if stagger:
            yield env.timeout(rank * stagger)
        yield from fn(comm, rank, op=1, **kwargs)
        finish[rank] = env.now

    for r in range(p):
        env.process(body(r))
    env.run()
    return finish, comm


@pytest.mark.parametrize("p", PARITY_SIZES)
@pytest.mark.parametrize(
    "fn,kwargs",
    [
        (collectives.allgather, {"nbytes_per_rank": 40_000}),
        (collectives.allreduce_ring, {"nbytes": 300_000}),
    ],
    ids=["allgather", "allreduce_ring"],
)
def test_closed_form_is_bit_identical(p, fn, kwargs):
    real, real_comm = _run(p, fn, fastpath=False, **kwargs)
    fast, fast_comm = _run(p, fn, fastpath=True, **kwargs)
    assert fast == real  # exact float equality, every rank
    assert fast_comm.fastpath.collectives_short_circuited == 1
    # Traffic accounting: message counts exact, bytes within one ulp
    # (closed form accumulates them in one multiply-add).
    assert fast_comm.messages_sent == real_comm.messages_sent
    assert fast_comm.internode_messages == real_comm.internode_messages
    assert fast_comm.bytes_sent == pytest.approx(
        real_comm.bytes_sent, rel=1e-12
    )


@pytest.mark.parametrize("p", [2, 3, 5, 8, 16])
def test_closed_form_staggered_entries(p):
    """Ranks entering at different times: the recurrence still matches."""
    real, _ = _run(
        p, collectives.allgather, fastpath=False,
        stagger=3.7e-5, nbytes_per_rank=25_000,
    )
    fast, _ = _run(
        p, collectives.allgather, fastpath=True,
        stagger=3.7e-5, nbytes_per_rank=25_000,
    )
    assert fast == real


@pytest.mark.parametrize("p", [3, 8])
def test_collective_trace_records_identical(p):
    """``mpi.collective`` records (the category both paths emit) match."""

    def records(fastpath):
        tracer = Tracer(categories=("mpi.collective",))
        _run(p, collectives.allreduce_ring, fastpath=fastpath,
             tracer=tracer, nbytes=64_000)
        return [(r.time, r.label, dict(r.data)) for r in tracer.records]

    assert records(True) == records(False)


@pytest.mark.parametrize("p", [2, 4, 8, 16])
def test_lockstep_allreduce_bit_identical(p):
    """Recursive-doubling allreduce, all ranks entering together: the
    lockstep closed form equals the simulated schedule exactly."""
    real, real_comm = _run(p, collectives.allreduce, fastpath=False,
                           nbytes=120_000)
    fast, fast_comm = _run(p, collectives.allreduce, fastpath=True,
                           nbytes=120_000)
    assert fast == real
    assert fast_comm.fastpath.collectives_short_circuited == 1
    assert fast_comm.messages_sent == real_comm.messages_sent
    assert fast_comm.internode_messages == real_comm.internode_messages
    assert fast_comm.bytes_sent == pytest.approx(
        real_comm.bytes_sent, rel=1e-12
    )


@pytest.mark.parametrize("p", [5, 7, 9, 11])
def test_lockstep_skips_general_non_power_of_two(p):
    """Sizes that are neither 2^k nor 3·2^k keep the simulated pre/post
    folding — their fold schedules put partially-overlapping flows on
    one pipe, so the fast path must not engage."""
    real, _ = _run(p, collectives.allreduce, fastpath=False, nbytes=50_000)
    fast, fast_comm = _run(p, collectives.allreduce, fastpath=True,
                           nbytes=50_000)
    assert fast == real
    assert fast_comm.fastpath.collectives_short_circuited == 0


@pytest.mark.parametrize("p", [3, 6, 12])
def test_fold_allreduce_bit_identical(p):
    """p = 3·2^k allreduce in lockstep: the fold closed form (one
    symmetric co-admission episode in the straddling final round) equals
    the simulated pre/fold/post schedule exactly."""
    real, real_comm = _run(p, collectives.allreduce, fastpath=False,
                           nbytes=50_000)
    fast, fast_comm = _run(p, collectives.allreduce, fastpath=True,
                           nbytes=50_000)
    assert fast == real
    assert fast_comm.fastpath.collectives_short_circuited == 1
    assert fast_comm.messages_sent == real_comm.messages_sent
    assert fast_comm.internode_messages == real_comm.internode_messages
    assert fast_comm.bytes_sent == pytest.approx(
        real_comm.bytes_sent, rel=1e-12
    )


@pytest.mark.parametrize("p", [3, 6])
@pytest.mark.parametrize("nbytes", [2_000, 120_000])
def test_fold_allreduce_sizes_also_exact(p, nbytes):
    """The fold schedule stays exact across the eager/rendezvous latency
    regimes (the co-admission term degenerates with the wire time)."""
    real, _ = _run(p, collectives.allreduce, fastpath=False, nbytes=nbytes)
    fast, _ = _run(p, collectives.allreduce, fastpath=True, nbytes=nbytes)
    assert fast == real


@pytest.mark.parametrize("p", [2, 3, 5, 7, 8, 12])
@pytest.mark.parametrize("root", [0, 1])
def test_tree_bcast_bit_identical(p, root):
    """Binomial broadcast: closed form equals the simulated tree exactly
    for any size (no power-of-two restriction)."""
    if root >= p:
        pytest.skip("root outside communicator")
    real, real_comm = _run(p, collectives.bcast, fastpath=False,
                           nbytes=75_000, root=root)
    fast, fast_comm = _run(p, collectives.bcast, fastpath=True,
                           nbytes=75_000, root=root)
    assert fast == real
    assert fast_comm.fastpath.collectives_short_circuited == 1
    assert fast_comm.messages_sent == real_comm.messages_sent
    assert fast_comm.internode_messages == real_comm.internode_messages
    assert fast_comm.bytes_sent == pytest.approx(
        real_comm.bytes_sent, rel=1e-12
    )


@pytest.mark.parametrize("p", [3, 6, 8])
def test_tree_bcast_staggered_entries(p):
    """Broadcast tolerates arbitrary entry times: early messages wait in
    the unexpected queue, late parents delay only their own subtree."""
    real, _ = _run(p, collectives.bcast, fastpath=False,
                   stagger=4.3e-5, nbytes=30_000)
    fast, _ = _run(p, collectives.bcast, fastpath=True,
                   stagger=4.3e-5, nbytes=30_000)
    assert fast == real


@pytest.mark.parametrize("p", [2, 4, 8, 16])
@pytest.mark.parametrize("root", [0, 3])
def test_tree_reduce_bit_identical(p, root):
    """Binomial reduction on power-of-two sizes in lockstep: children
    deliver back-to-back and the closed form is exact."""
    if root >= p:
        pytest.skip("root outside communicator")
    real, real_comm = _run(p, collectives.reduce, fastpath=False,
                           nbytes=60_000, root=root)
    fast, fast_comm = _run(p, collectives.reduce, fastpath=True,
                           nbytes=60_000, root=root)
    assert fast == real
    assert fast_comm.fastpath.collectives_short_circuited == 1
    assert fast_comm.messages_sent == real_comm.messages_sent
    assert fast_comm.internode_messages == real_comm.internode_messages


@pytest.mark.parametrize("p", [3, 6])
def test_tree_reduce_skips_non_power_of_two(p):
    """Non-power-of-two reductions keep the message path (partial
    fan-ins overlap flows on the root's receive pipe)."""
    real, _ = _run(p, collectives.reduce, fastpath=False, nbytes=60_000)
    fast, fast_comm = _run(p, collectives.reduce, fastpath=True,
                           nbytes=60_000)
    assert fast == real
    assert fast_comm.fastpath.collectives_short_circuited == 0


@pytest.mark.parametrize("p", [2, 4, 8, 16])
@pytest.mark.parametrize(
    "fn,nbytes",
    [
        (collectives.reduce_scatter, 240_000),
        (collectives.allgather_recursive_doubling, 240_000),
        (collectives.allreduce_rabenseifner, 240_000),
    ],
    ids=["reduce_scatter", "allgather_rd", "rabenseifner"],
)
def test_lockstep_schedule_bit_identical(p, fn, nbytes):
    """Recursive halving/doubling collectives (and Rabenseifner's
    allreduce built from them) in lockstep: the per-round-size closed
    form equals the simulated schedule exactly."""
    real, real_comm = _run(p, fn, fastpath=False, nbytes=nbytes)
    fast, fast_comm = _run(p, fn, fastpath=True, nbytes=nbytes)
    assert fast == real
    expected = 2 if fn is collectives.allreduce_rabenseifner and p > 1 else 1
    assert fast_comm.fastpath.collectives_short_circuited == expected
    assert fast_comm.messages_sent == real_comm.messages_sent
    assert fast_comm.internode_messages == real_comm.internode_messages
    assert fast_comm.bytes_sent == pytest.approx(
        real_comm.bytes_sent, rel=1e-12
    )


def test_lockstep_staggered_entries_raise():
    """Staggered entries can overlap flows across rounds, so the
    lockstep closed form refuses them instead of being silently wrong."""
    env, comm = _build(4, fastpath=True)

    def body(rank):
        yield env.timeout(rank * 1e-5)
        yield from collectives.allreduce(comm, rank, op=1, nbytes=10_000)

    for r in range(4):
        env.process(body(r))
    with pytest.raises(FastPathRefused, match="entered at different times"):
        env.run()


@pytest.mark.parametrize("p", [4, 8])
def test_group_comm_fastpath_bit_identical(p):
    """A GroupComm whose members sit on distinct nodes is eligible even
    though the parent packs several ranks per node, and its closed-form
    schedule matches the simulated one exactly."""
    spec = catalog.MARENOSTRUM4

    def run(fastpath):
        env = Environment()
        cluster = Cluster(env, spec, num_nodes=p)
        cluster.wire_network(NetworkPath.HOST_NATIVE)
        # Two ranks per node: parent ineligible, group (one member per
        # node) eligible.
        comm = SimComm(
            env, cluster, RankMap(n_ranks=2 * p, n_nodes=p),
            MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE),
            collective_fastpath=fastpath,
        )
        group = comm.group(range(0, 2 * p, 2))
        if fastpath:
            assert not comm.fastpath.usable()
            assert group.fastpath.usable()
        finish = [None] * p
        done = [None] * p

        def body(rank):
            yield from collectives.allreduce(group, rank, op=1, nbytes=80_000)
            finish[rank] = env.now
            done[rank] = True

        for r in range(p):
            env.process(body(r))
        env.run()
        assert all(done)
        return finish, comm, group

    real, real_comm, _ = run(False)
    fast, fast_comm, fast_group = run(True)
    assert fast == real
    assert fast_group.fastpath.collectives_short_circuited == 1
    # Group traffic is accounted on the parent communicator.
    assert fast_comm.messages_sent == real_comm.messages_sent
    assert fast_comm.internode_messages == real_comm.internode_messages


def test_group_comm_sharing_nodes_ineligible():
    env = Environment()
    spec = catalog.MARENOSTRUM4
    cluster = Cluster(env, spec, num_nodes=2)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    comm = SimComm(
        env, cluster, RankMap(n_ranks=4, n_nodes=2),
        MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE),
        collective_fastpath=True,
    )
    group = comm.group([0, 1])  # both members on node 0
    assert not group.fastpath.usable()


def test_group_comm_fastpath_off_with_parent():
    env, comm = _build(4, fastpath=False)
    assert comm.group([0, 1]).fastpath is None


def test_rendezvous_sizes_also_exact():
    """Payloads over the rendezvous threshold change the latency model;
    the closed form uses the same ``message_latency`` and stays exact."""
    real, _ = _run(4, collectives.allgather, fastpath=False,
                   nbytes_per_rank=200_000)
    fast, _ = _run(4, collectives.allgather, fastpath=True,
                   nbytes_per_rank=200_000)
    assert fast == real


def test_busy_nic_raises():
    """Outside traffic on a participating NIC at resolve time is an
    error, not a silently wrong schedule."""
    env, comm = _build(3, fastpath=True)

    def noisy(rank):
        # A long point-to-point transfer overlapping the collective.
        yield comm.isend(rank, (rank + 1) % 3, tag=99, nbytes=50_000_000)

    def coll(rank):
        yield env.timeout(1e-4)  # enter while the p2p flows are active
        yield from collectives.allgather(comm, rank, op=1,
                                         nbytes_per_rank=1000)

    env.process(noisy(0))
    for r in range(3):
        env.process(coll(r))
    with pytest.raises(SimulationError, match="busy at collective entry"):
        env.run()


def test_ineligible_bridge_path():
    env, comm = _build(4, fastpath=True, path=NetworkPath.BRIDGE_NAT)
    assert not comm.fastpath.usable()


def test_ineligible_multiple_ranks_per_node():
    env = Environment()
    spec = catalog.MARENOSTRUM4
    cluster = Cluster(env, spec, num_nodes=2)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    comm = SimComm(
        env, cluster, RankMap(n_ranks=4, n_nodes=2),
        MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE),
        collective_fastpath=True,
    )
    assert not comm.fastpath.usable()


def test_ineligible_switch_topology():
    env = Environment()
    spec = catalog.MARENOSTRUM4
    cluster = Cluster(env, spec, num_nodes=4)
    cluster.wire_network(NetworkPath.HOST_NATIVE, topology=NON_BLOCKING)
    comm = SimComm(
        env, cluster, RankMap(n_ranks=4, n_nodes=4),
        MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE),
        collective_fastpath=True,
    )
    assert not comm.fastpath.usable()


def test_ineligible_single_rank():
    env, comm = _build(1, fastpath=True)
    assert not comm.fastpath.usable()


def test_off_by_default():
    """Only the runner has the refusal fallback, so a bare communicator
    keeps the simulated schedule unless asked."""
    env = Environment()
    spec = catalog.MARENOSTRUM4
    cluster = Cluster(env, spec, num_nodes=4)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    perf = MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE)
    comm = SimComm(env, cluster, RankMap(n_ranks=4, n_nodes=4), perf)
    assert comm.fastpath is None


@pytest.mark.parametrize(
    "categories,engaged",
    [
        (None, False),  # records everything, mpi.send included
        (("mpi.collective",), True),
        (("mpi.send",), False),
        (("mpi.deliver",), False),
    ],
)
def test_enabled_unless_tracing_messages(categories, engaged):
    """Only the simulated schedule materialises per-message records, so
    a tracer that wants them keeps it; everything else engages."""
    env = Environment()
    spec = catalog.MARENOSTRUM4
    cluster = Cluster(env, spec, num_nodes=4)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    perf = MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE)
    rankmap = RankMap(n_ranks=4, n_nodes=4)
    assert SimComm(env, cluster, rankmap, perf,
                   collective_fastpath=True).fastpath is not None
    comm = SimComm(env, cluster, rankmap, perf, collective_fastpath=True,
                   tracer=Tracer(categories=categories))
    assert (comm.fastpath is not None) is engaged
