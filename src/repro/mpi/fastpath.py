"""Analytic short-circuit for contention-free ring collectives.

A ring collective on one rank per node exchanges messages only between
ring neighbours, and each rank's round ``r+1`` send starts strictly after
its round ``r`` send has been delivered (the ``sendrecv`` barrier).  On
an idle network each NIC therefore carries **at most one flow at any
instant**, so the fair-share links degenerate to fixed-rate pipes and the
whole schedule has a closed form:

    ``t_i^(r+1) = deliver(max(t_i^(r), t_(i-1)^(r)))``

with ``deliver(t) = fl(fl(t + L) + w)`` — exactly the float arithmetic
the simulated delivery chain performs, where ``L`` is the per-message
latency (:meth:`MpiPerf.message_latency`, including the rendezvous
handshake when it applies) and ``w = fl(fl(fl(nbytes·o_mpi)·o_link)/bw)``
is the single-flow wire time.  IEEE-754 addition is monotone, so
``max`` and the recurrence commute with rounding and the closed form
reproduces the simulated completion times **bit for bit** (the parity
suite in ``tests/mpi/test_fastpath.py`` checks p ∈ {2..9, 16}, staggered
entries included).

Eligibility is a *static, structural* rule so that every rank takes the
same branch (:meth:`CollectiveFastPath.usable`):

- at least 2 ranks, every participant on its **own node** (pairwise
  distinct — evaluated per communicator, so a :class:`GroupComm` whose
  members land on distinct nodes is eligible even when its parent,
  packing several ranks per node, is not);
- no switch topology (uplinks would be shared by non-neighbour flows);
- no Docker bridge pipelines (the FIFO softirq queue couples messages).

On top of that, :meth:`_resolve` asserts at run time that every
participating NIC is idle when the last rank enters the collective —
outside traffic would contend with the ring flows and the closed form
would be wrong.  :meth:`repro.core.runner.ExperimentRunner.run` engages the
short-circuit automatically (see its docstring for the two run-level
exclusions: per-message tracing and armed faults); a bare
:class:`~repro.mpi.comm.SimComm` only with ``collective_fastpath=True``.
Whenever a session is not provably contention-free it raises
:class:`FastPathRefused`, and the runner re-runs the spec on the
simulated schedule — so the fast path either reproduces the simulated
schedule exactly or is not used.  It covers:

- the two structurally contention-free ring algorithms, ``allgather``
  and ``allreduce_ring`` (:meth:`ring_rounds`), with arbitrary entry
  times — neighbour-only flows never share a NIC;
- **lockstep recursive-doubling** ``allreduce`` on power-of-two sizes
  (:meth:`lockstep_rounds`): with all entries at exactly the same time
  every round is a symmetric pairwise exchange, each NIC carries one
  transmit and one receive flow on its two independent pipes, and every
  rank advances as ``t' = fl(fl(t + L) + w)`` per round.  Entries that
  are *not* exactly equal are refused (:class:`FastPathRefused`) — a
  straggler's round-``r`` flow can overlap another pair's round-``r+1``
  flow on a shared receive pipe, which fair-sharing would slow down and
  the closed form would not;
- **lockstep fold** ``allreduce`` on sizes ``p = 3·2^k``
  (:meth:`lockstep_fold`): Rabenseifner's pre/post remainder exchange
  folds the odd third into a power-of-two core.  During the fold round
  the direct half runs one round ahead, and its sends co-admit with the
  folded half's previous-round flows on the same receive NIC at the
  identical admitted instant — both flows run at ``bw/2`` for their
  whole life, so the round has the exact cost ``dt2 = fl(wire /
  fl(bw/2))``.  Other non-power-of-two sizes overlap only *partially*
  and are refused;
- **binomial-tree bcast** (:meth:`tree_bcast`): any rank count, any
  entry times.  Each rank receives exactly once and a parent's sends
  are serialized by the send-side delivery barrier, so the tree is
  contention-free unconditionally; the schedule is resolved
  *incrementally* as ranks join (a rank's subtree depends only on its
  ancestors' entries);
- **binomial-tree reduce** (:meth:`tree_reduce`): power-of-two sizes in
  lockstep — children deliver back-to-back on the parent's receive
  pipe, which the descending-vrank recurrence reproduces exactly;
- **per-round size schedules** (:meth:`lockstep_schedule`): lockstep
  rounds whose message size varies per round — reduce-scatter's halving
  chunks, recursive-doubling allgather's doubling chunks, and
  Rabenseifner ``allreduce`` (short-circuited as its two component
  phases; lockstep completion of the first phase means all ranks
  re-enter the second in lockstep).

Algorithms whose flows can overlap under any entry schedule (alltoall,
dissemination barrier) are excluded.

Observable differences (documented, by design): per-message ``mpi.send``
/ ``mpi.deliver`` trace records are not emitted (the messages are never
materialised — which is why a tracer that wants them keeps the simulated
schedule) and ``bytes_sent`` is accumulated in one multiply-add, so
it can differ from the per-message sum in the last ulp.  ``mpi.collective``
records, completion times, ``messages_sent`` and ``internode_messages``
are identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.des.engine import SimulationError
from repro.des.events import Event
from repro.des.links import _EPS_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import SimComm


class FastPathRefused(SimulationError):
    """A collective session is not provably contention-free (staggered
    lockstep entry, or a participating NIC busy at entry), so its closed
    form would be wrong.  The run must be repeated on the simulated
    schedule; :class:`~repro.core.runner.ExperimentRunner` does that."""


class _Session:
    """One in-progress collective: per-rank entry times and events."""

    __slots__ = (
        "kind", "rounds", "nbytes", "sizes", "root", "entry", "events",
        "joined", "arrival", "fired",
    )

    def __init__(
        self,
        kind: str,
        p: int,
        rounds: int,
        nbytes: float,
        sizes: Optional[tuple] = None,
        root: int = 0,
    ) -> None:
        self.kind = kind
        self.rounds = rounds
        self.nbytes = nbytes
        self.sizes = sizes
        self.root = root
        self.entry: List[float] = [0.0] * p
        self.events: List[Optional[Event]] = [None] * p
        self.joined = 0
        #: Incremental broadcast state (by vrank): delivery time of the
        #: message from the parent, and whether the completion event has
        #: been scheduled.
        self.arrival: List[Optional[float]] = [None] * p
        self.fired: List[bool] = [False] * p


class CollectiveFastPath:
    """Closed-form scheduler for eligible ring collectives on ``comm``."""

    def __init__(self, comm: "SimComm") -> None:
        self.comm = comm
        self._sessions: Dict[int, _Session] = {}
        #: Collectives resolved analytically instead of message-by-message.
        self.collectives_short_circuited = 0
        #: Messages accounted for analytically (counted into the comm's
        #: traffic counters without being simulated).
        self.messages_modelled = 0
        self._usable: Optional[bool] = None

    def usable(self) -> bool:
        """The static eligibility rule (cached; identical on every rank)."""
        if self._usable is None:
            self._usable = self._compute_usable()
        return self._usable

    def _compute_usable(self) -> bool:
        comm = self.comm
        p = comm.size
        if p < 2:
            return False
        cluster = comm.cluster
        if cluster._topology is not None:
            return False
        seen: set[int] = set()
        for i in range(p):
            nid = comm.node_of_rank(i)
            if nid in seen:
                return False  # two participants share a NIC
            seen.add(nid)
            node = cluster.nodes[nid]
            if node.bridge is not None:
                return False
            if node.nic_tx is None or node.nic_rx is None:
                return False
        return True

    def _join(
        self,
        kind: str,
        rank: int,
        op: int,
        rounds: int,
        nbytes: float,
        sizes: Optional[tuple] = None,
        root: int = 0,
    ) -> Event:
        """Register ``rank`` in session ``op``; resolve once all joined."""
        comm = self.comm
        env = comm.env
        p = comm.size
        sess = self._sessions.get(op)
        if sess is None:
            sess = self._sessions[op] = _Session(
                kind, p, rounds, nbytes, sizes, root
            )
        elif (
            sess.kind != kind
            or sess.rounds != rounds
            or sess.nbytes != nbytes
            or sess.sizes != sizes
            or sess.root != root
        ):
            raise SimulationError(
                f"collective fast path: op {op} joined with mismatched "
                f"kind/rounds/nbytes/sizes/root across ranks"
            )
        if sess.events[rank] is not None:
            raise SimulationError(
                f"collective fast path: rank {rank} joined op {op} twice"
            )
        ev = Event(env)
        sess.entry[rank] = env.now
        sess.events[rank] = ev
        sess.joined += 1
        if kind == "bcast":
            # Trees resolve *incrementally*: a rank's schedule depends
            # only on its ancestors' entries, never its children's — so
            # an early root must not wait for a late leaf (its finish
            # would land in the session's past).
            self._check_nic(rank)
            self._bcast_advance(sess, op)
        elif sess.joined == p:
            del self._sessions[op]
            self._resolve(sess)
        return ev

    def ring_rounds(
        self, rank: int, op: int, rounds: int, nbytes: float
    ) -> Event:
        """Join the ring collective ``op``; the returned event fires at
        this rank's closed-form completion time once all ranks joined."""
        return self._join("ring", rank, op, rounds, nbytes)

    def lockstep_rounds(
        self, rank: int, op: int, rounds: int, nbytes: float
    ) -> Event:
        """Join a lockstep pairwise-exchange collective (recursive
        doubling on a power-of-two size).  All ranks must enter at
        exactly the same simulated time; see the module docstring."""
        return self._join("lockstep", rank, op, rounds, nbytes)

    def lockstep_schedule(self, rank: int, op: int, sizes: tuple) -> Event:
        """Join a lockstep pairwise-exchange collective whose round *r*
        moves ``sizes[r]`` bytes (recursive halving/doubling: MPICH
        reduce-scatter, allgather, and through them Rabenseifner's
        allreduce).  Same lockstep-entry requirement as
        :meth:`lockstep_rounds`; each round advances every rank by its
        own ``fl(fl(t + L_r) + w_r)`` computed from that round's size."""
        return self._join("schedule", rank, op, len(sizes), 0.0, sizes)

    def lockstep_fold(self, rank: int, op: int, nbytes: float) -> Event:
        """Join a recursive-doubling allreduce on ``p = 3·2^k`` ranks
        (the only non-power-of-two family with a contention-free
        schedule — see :meth:`_resolve_fold`).  Lockstep entry required.
        """
        p = self.comm.size
        pof2 = 1 << (p.bit_length() - 1)
        if p - pof2 != pof2 >> 1:
            raise SimulationError(
                f"collective fast path: fold schedule requires p = 3·2^k "
                f"ranks, got {p}"
            )
        return self._join("fold", rank, op, pof2.bit_length() - 1, nbytes)

    def tree_bcast(
        self, rank: int, op: int, nbytes: float, root: int = 0
    ) -> Event:
        """Join a binomial-tree broadcast.  Contention-free for *any*
        rank count and *any* entry times: each rank receives exactly one
        message, and a parent's sends are serialised by the isend
        delivery barrier — no two flows ever share a pipe."""
        return self._join("bcast", rank, op, 0, nbytes, None, root)

    def tree_reduce(
        self, rank: int, op: int, nbytes: float, root: int = 0
    ) -> Event:
        """Join a binomial-tree reduction (power-of-two sizes, lockstep
        entry).  Under those two conditions a parent's children deliver
        back-to-back — child ``2m`` starts exactly when child ``m``'s
        flow ends — so its receive pipe never carries two flows at
        once and the schedule stays closed-form."""
        p = self.comm.size
        if p & (p - 1):
            raise SimulationError(
                "collective fast path: tree reduce requires a "
                f"power-of-two size, got {p}"
            )
        return self._join("reduce", rank, op, 0, nbytes, None, root)

    def _deliver_params(self, link, nbytes: float) -> tuple:
        """``(L, w)`` of the simulated chain's delivery arithmetic:
        ``deliver(t) = fl(fl(t + L) + w)`` with
        ``w = fl(fl(fl(nbytes·o_mpi)·o_link) / bandwidth)``; transfers at
        or below the link's byte epsilon complete instantly (w = 0)."""
        perf = self.comm.perf
        latency = perf.message_latency(False, nbytes)
        wire = (nbytes * perf.inter.per_byte_overhead) * link.per_byte_overhead
        w = wire / link.bandwidth if wire > _EPS_BYTES else 0.0
        return latency, w

    def _lockstep_entry(self, sess: _Session) -> float:
        t0 = sess.entry[0]
        if any(e != t0 for e in sess.entry):
            raise FastPathRefused(
                "collective fast path: lockstep collective entered at "
                "different times across ranks; the schedule is only "
                "contention-free when every rank enters together"
            )
        return t0

    def _check_nic(self, rank: int) -> None:
        """The run-time idle assertion, for one rank's node."""
        node = self.comm.cluster.nodes[self.comm.node_of_rank(rank)]
        if node.nic_tx.active_flows or node.nic_rx.active_flows:
            raise FastPathRefused(
                "collective fast path: NIC of node "
                f"{node.node_id} busy at collective entry; the closed "
                "form is exact only on idle links"
            )

    def _bcast_advance(self, sess: _Session, op: int) -> None:
        """Binomial broadcast, arbitrary entry times, resolved rank by
        rank as joins arrive.

        A parent's sends are serialised (the isend delivery barrier),
        every rank receives exactly one message, and one rank per node
        means every flow has its transmit and receive pipes to itself —
        so each hop is a plain single-flow delivery.  A child proceeds
        at ``max(delivery, its own entry)``: an early message waits in
        the unexpected queue, a late receiver posts into it.

        Each pass schedules every joined rank whose parent has been
        scheduled (one ascending sweep suffices: children carry larger
        vranks).  Every time fired here is ``>= now``: anything newly
        computable involves the just-joined rank's entry — which *is*
        ``now`` — somewhere in its ancestor chain.
        """
        comm = self.comm
        env = comm.env
        p = len(sess.entry)
        root = sess.root
        link = comm.cluster.nodes[comm.node_of_rank(0)].nic_tx
        latency, w = self._deliver_params(link, sess.nbytes)
        entry = sess.entry
        events = sess.events
        arrival = sess.arrival
        fired = sess.fired
        for v in range(p):
            if fired[v]:
                continue
            r = (v + root) % p
            ev = events[r]
            if ev is None:
                continue  # not joined yet
            if v == 0:
                t = entry[r]
            else:
                a = arrival[v]
                if a is None:
                    continue  # parent not scheduled yet
                e = entry[r]
                t = a if a >= e else e
            m = 1 << (p.bit_length() - 1) if v == 0 else (v & -v) >> 1
            while m >= 1:
                child = v + m
                if child < p:
                    t = (t + latency) + w
                    arrival[child] = t
                m >>= 1
            ev._value = None
            env._schedule_at(ev, t)
            fired[v] = True
        if sess.joined == p and all(fired):
            del self._sessions[op]
            msgs = p - 1
            acct = getattr(comm, "parent", comm)
            acct.messages_sent += msgs
            acct.bytes_sent += sess.nbytes * msgs
            acct.internode_messages += msgs
            self.messages_modelled += msgs
            self.collectives_short_circuited += 1

    def _reduce_schedule(self, sess: _Session, link) -> List[float]:
        """Binomial reduction, power-of-two size, lockstep entry.

        Under lockstep each parent's children deliver back-to-back: the
        child with mask ``2m`` finishes collecting — and so starts
        sending — exactly when the mask-``m`` child's flow ends, so a
        receive pipe never carries two flows at once (the parity suite
        pins this).  Non-power-of-two sizes break that serialisation
        (partial fan-ins create overlapping waves), hence the gate in
        :meth:`tree_reduce`.
        """
        p = len(sess.entry)
        root = sess.root
        t0 = self._lockstep_entry(sess)
        latency, w = self._deliver_params(link, sess.nbytes)
        send = [0.0] * p  # by vrank; children (v + m) precede parents
        finish = [0.0] * p
        for v in range(p - 1, -1, -1):
            t = t0
            m = 1
            while m < p:
                if v & m:
                    send[v] = t
                    finish[v] = (t + latency) + w
                    break
                child = v + m
                if child < p:
                    arrival = (send[child] + latency) + w
                    if arrival > t:
                        t = arrival
                m <<= 1
            else:  # v == 0: the root never sends
                finish[v] = t
        return [finish[(i - root) % p] for i in range(p)]

    def _fold_schedule(self, sess: _Session, link) -> List[float]:
        """Recursive-doubling allreduce on ``p = 3·2^k``, lockstep entry.

        With ``rem = p - pof2 = pof2/2``, the fold pairs up exactly the
        first ``pof2`` ranks and maps the rest directly, and the pairwise
        rounds stay inside the folded/direct halves until the *final*
        round, which straddles them.  In that round the direct half runs
        one round ahead: its sends co-admit with the folded half's
        previous-round flows on the folded receive pipes — two equal
        flows sharing one pipe, each at half rate, both completing at
        ``E2(t) = fl(fl(t + L) + fl(wire / fl(bw/2)))`` (the exact
        fair-share arithmetic of :meth:`repro.des.links.Link._reschedule`,
        whose completion threshold absorbs the residual ulp).  Every
        other hop is a plain delivery, giving

        - unpaired ranks (``rank >= 2·rem``):  ``D(E2(D^(R-1)(t0)))``
        - paired ranks  (``rank <  2·rem``):  one more ``D`` (the
          odd→even hand-back).

        Any other non-power-of-two count puts partially-overlapping
        flows on one pipe (the overlap fraction depends on L vs w), so
        no closed form exists and the message path stays in charge.
        """
        p = len(sess.entry)
        nbytes = sess.nbytes
        t0 = self._lockstep_entry(sess)
        latency, w = self._deliver_params(link, nbytes)
        perf = self.comm.perf
        wire = (nbytes * perf.inter.per_byte_overhead) * link.per_byte_overhead
        dt2 = wire / (link.bandwidth / 2) if wire > _EPS_BYTES else 0.0
        x = t0
        for _ in range(sess.rounds - 1):
            x = (x + latency) + w
        x = (x + latency) + dt2  # the straddling final round
        f_unpaired = (x + latency) + w
        f_paired = (f_unpaired + latency) + w
        two_rem = 2 * (p - (1 << sess.rounds))
        return [f_paired if i < two_rem else f_unpaired for i in range(p)]

    def _resolve(self, sess: _Session) -> None:
        comm = self.comm
        env = comm.env
        nodes = comm.cluster.nodes
        p = len(sess.entry)
        nbytes = sess.nbytes
        for i in range(p):
            self._check_nic(i)
        link = nodes[comm.node_of_rank(0)].nic_tx
        kind = sess.kind
        if kind == "ring":
            latency, w = self._deliver_params(link, nbytes)
            t = sess.entry
            for _ in range(sess.rounds):
                t = [(max(t[i], t[i - 1]) + latency) + w for i in range(p)]
            msgs = p * sess.rounds
            total_bytes = nbytes * msgs
        elif kind == "lockstep":
            t0 = self._lockstep_entry(sess)
            latency, w = self._deliver_params(link, nbytes)
            for _ in range(sess.rounds):
                t0 = (t0 + latency) + w
            t = [t0] * p
            msgs = p * sess.rounds
            total_bytes = nbytes * msgs
        elif kind == "schedule":
            t0 = self._lockstep_entry(sess)
            for size in sess.sizes:
                latency, w = self._deliver_params(link, size)
                t0 = (t0 + latency) + w
            t = [t0] * p
            msgs = p * sess.rounds
            total_bytes = sum(sess.sizes) * p
        elif kind == "fold":
            t = self._fold_schedule(sess, link)
            pof2 = 1 << sess.rounds
            msgs = 2 * (p - pof2) + pof2 * sess.rounds
            total_bytes = nbytes * msgs
        else:  # "reduce" ("bcast" resolves incrementally in _bcast_advance)
            t = self._reduce_schedule(sess, link)
            msgs = p - 1
            total_bytes = nbytes * msgs
        # Traffic counters live on the root communicator (a GroupComm
        # delegates its sends to the parent, which counts them).
        acct = getattr(comm, "parent", comm)
        acct.messages_sent += msgs
        acct.bytes_sent += total_bytes
        acct.internode_messages += msgs  # one rank per node: all cross nodes
        self.messages_modelled += msgs
        self.collectives_short_circuited += 1
        for i in range(p):
            ev = sess.events[i]
            ev._value = None  # succeeds with None at the exact absolute time
            env._schedule_at(ev, t[i])
