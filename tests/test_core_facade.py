"""Tests for standing ranking up through the cluster control plane
(``ClusterManager.apply`` of a ``ranking_spec``, with its shared Mapping
Managers and Health Monitors) and for the loopback harness."""

import pytest

from repro.cluster import ClusterManager
from repro.core import LoopbackHarness, LoopbackMode
from repro.fabric import Datacenter, TorusTopology
from repro.host.slots import SlotExhausted, shared_slot_allocator
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.services import FailureInjector, FailureKind
from repro.sim import Engine
from repro.workloads import TraceGenerator


def ranking_on_one_pod(seed):
    """A manager over one 2x8 pod, with ranking applied; returns the
    manager and the placed ring."""
    eng = Engine(seed=seed)
    manager = ClusterManager(
        Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=8))
    )
    scoring = ScoringEngine(ModelLibrary.default(scale=0.03))
    ring = manager.apply(ranking_spec(scoring)).deployments[0]
    return manager, ring


def check_health(manager, nodes):
    """Run a pod-0 Health Monitor investigation and return its report."""
    return manager.engine.run_until(manager.health_monitor(0).investigate(nodes))


@pytest.fixture(scope="module")
def manager_with_ranking():
    return ranking_on_one_pod(seed=31)


def test_facade_builds_and_deploys(manager_with_ranking):
    manager, ring = manager_with_ranking
    assert ring.assignment is not None
    assert ring.head_node == (0, 0)
    assert manager.datacenter.pod(0).topology.node_count == 16


def test_facade_reuses_managers(manager_with_ranking):
    manager, _ring = manager_with_ranking
    mapping_manager = manager.scheduler.mapping_manager
    assert mapping_manager(0) is mapping_manager(0)
    assert manager.health_monitor(0) is manager.health_monitor(0)
    assert manager.health_monitor(0).mapping_manager is mapping_manager(0)


def test_facade_health_check(manager_with_ranking):
    manager, _ring = manager_with_ranking
    report = check_health(manager, [(0, 0), (0, 1)])
    assert len(report.diagnoses) == 2
    assert not report.failed_machines


def test_facade_end_to_end_failure_recovery():
    manager, ring = ranking_on_one_pod(seed=32)
    victim = ring.assignment.node_of("compress")
    FailureInjector(manager.datacenter.pod(0)).inject(
        FailureKind.FPGA_HARDWARE_FAULT, victim
    )
    report = check_health(manager, [victim])
    assert report.failed_machines
    assert victim in ring.assignment.excluded
    assert manager.scheduler.mapping_manager(0).relocations == 1


def test_loopback_harness_pcie_vs_sl3():
    library = ModelLibrary.default(scale=0.03)
    pool = [TraceGenerator(seed=61).request() for _ in range(6)]

    rates = {}
    for mode in (LoopbackMode.PCIE, LoopbackMode.SL3):
        eng = Engine(seed=33)
        scoring = ScoringEngine(library)
        for request in pool:
            scoring.score(request.document, library[request.document.model_id])
        harness = LoopbackHarness(eng, "compress", scoring)
        rates[mode] = harness.measure_throughput(
            pool, mode, threads=1, requests_per_thread=8
        )
    assert rates[LoopbackMode.PCIE] > 0
    # The SL3 path adds two link crossings: strictly slower.
    assert rates[LoopbackMode.SL3] < rates[LoopbackMode.PCIE]


def test_loopback_harness_rejects_unknown_stage():
    library = ModelLibrary.default(scale=0.03)
    with pytest.raises(ValueError):
        LoopbackHarness(Engine(), "bogus", ScoringEngine(library))


def test_loopback_fe_stage_works():
    library = ModelLibrary.default(scale=0.03)
    pool = [TraceGenerator(seed=62).request() for _ in range(4)]
    eng = Engine(seed=34)
    scoring = ScoringEngine(library)
    for request in pool:
        scoring.score(request.document, library[request.document.model_id])
    harness = LoopbackHarness(eng, "fe", scoring)
    rate = harness.measure_throughput(
        pool, LoopbackMode.PCIE, threads=2, requests_per_thread=4
    )
    assert rate > 0
    assert harness.role.queue_manager.dispatched == 8


def test_loopback_threads_lease_from_the_shared_allocator():
    library = ModelLibrary.default(scale=0.03)
    pool = [TraceGenerator(seed=62).request() for _ in range(4)]
    eng = Engine(seed=34)
    scoring = ScoringEngine(library)
    for request in pool:
        scoring.score(request.document, library[request.document.model_id])
    harness = LoopbackHarness(eng, "fe", scoring)
    harness.measure_throughput(pool, LoopbackMode.PCIE, threads=3, requests_per_thread=2)
    allocator = shared_slot_allocator(harness.stage_server)
    assert allocator.free_count == harness.stage_server.buffers.slot_count - 3
    assert set(allocator.owners.values()) == {"loopback:fe"}
    with pytest.raises(SlotExhausted):  # never silently fewer threads
        harness.measure_throughput(pool, LoopbackMode.PCIE, threads=allocator.free_count + 1)
