"""Tests for the OSU-style microbenchmarks — they double as a validation
of the network model against its own analytic form."""

import pytest

from repro.hardware import catalog
from repro.hardware.network import NetworkPath
from repro.mpi.microbench import (
    allreduce_latency,
    bisection_bandwidth,
    ping_pong,
)
from repro.mpi.perf import MpiPerf


def test_ping_pong_small_message_latency_matches_model():
    """8-byte one-way latency equals the cost model's message latency."""
    spec = catalog.MARENOSTRUM4
    points = ping_pong(spec, NetworkPath.HOST_NATIVE, sizes=[8.0])
    perf = MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE)
    expected = perf.zero_contention_time(8.0, same_node=False)
    assert points[0].latency_seconds == pytest.approx(expected, rel=1e-6)


def test_ping_pong_large_message_bandwidth_approaches_wire():
    """4 MiB streaming bandwidth approaches the native fabric rate."""
    spec = catalog.MARENOSTRUM4
    points = ping_pong(spec, NetworkPath.HOST_NATIVE, sizes=[4 * 2**20])
    assert points[0].bandwidth_bytes_per_s > 0.9 * spec.fabric.bandwidth


def test_ping_pong_paths_ordering():
    """The per-runtime latency table every container paper shows: native
    beats TCP fallback beats the Docker bridge, at every size."""
    spec = catalog.MARENOSTRUM4
    for size in (8.0, 65536.0):
        lat = {
            path: ping_pong(spec, path, sizes=[size])[0].latency_seconds
            for path in NetworkPath
        }
        assert (
            lat[NetworkPath.HOST_NATIVE]
            < lat[NetworkPath.TCP_FALLBACK]
            < lat[NetworkPath.BRIDGE_NAT]
        )


def test_ping_pong_intranode_faster():
    spec = catalog.MARENOSTRUM4
    inter = ping_pong(spec, NetworkPath.TCP_FALLBACK, sizes=[8.0])[0]
    intra = ping_pong(
        spec, NetworkPath.TCP_FALLBACK, sizes=[8.0], same_node=True
    )[0]
    assert intra.latency_seconds < inter.latency_seconds


def test_ping_pong_validation():
    with pytest.raises(ValueError):
        ping_pong(catalog.LENOX, NetworkPath.HOST_NATIVE, iterations=0)


def test_allreduce_latency_grows_with_ranks():
    spec = catalog.MARENOSTRUM4
    t4 = allreduce_latency(spec, NetworkPath.HOST_NATIVE, 4, 4)
    t16 = allreduce_latency(spec, NetworkPath.HOST_NATIVE, 16, 16)
    assert t16 > t4


def test_allreduce_latency_path_sensitivity():
    spec = catalog.MARENOSTRUM4
    native = allreduce_latency(spec, NetworkPath.HOST_NATIVE, 8, 8)
    fallback = allreduce_latency(spec, NetworkPath.TCP_FALLBACK, 8, 8)
    assert fallback > 10 * native  # the Fig. 3 mechanism, in isolation


def test_bisection_bandwidth_scales_with_pairs():
    spec = catalog.MARENOSTRUM4
    bw2 = bisection_bandwidth(spec, NetworkPath.HOST_NATIVE, n_nodes=2)
    bw4 = bisection_bandwidth(spec, NetworkPath.HOST_NATIVE, n_nodes=4)
    assert bw4 == pytest.approx(2 * bw2, rel=0.05)
    assert bw2 == pytest.approx(spec.fabric.bandwidth, rel=0.05)


def test_bisection_validation():
    with pytest.raises(ValueError):
        bisection_bandwidth(catalog.LENOX, NetworkPath.HOST_NATIVE, n_nodes=3)


def test_allreduce_latency_on_a_fold_size():
    """p = 6 folds into a power-of-two core, so repeated allreduces start
    at different times on paired and unpaired ranks.  A bare
    communicator keeps the simulated schedule for that (only the runner
    can fall back from a fast-path refusal), so the probe returns a
    latency instead of raising."""
    latency = allreduce_latency(
        catalog.MARENOSTRUM4, NetworkPath.HOST_NATIVE, 6, 6
    )
    assert latency > 0.0
