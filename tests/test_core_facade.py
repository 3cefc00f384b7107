"""Tests for standing ranking up through the cluster control plane
(``ClusterManager.apply`` of a ``ranking_spec``, with its shared Mapping
Managers and Health Monitors) and for the loopback rig."""

import pytest

from repro.cluster import ClusterFailureInjector, ClusterManager
from repro.core import LoopbackMode, loopback_rig
from repro.fabric import Datacenter, TorusTopology
from repro.host.slots import shared_slot_allocator
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.services import FailureKind
from repro.sim import Engine
from repro.workloads import ClosedLoop, OpenLoopInjector, TraceGenerator


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
    ClusterFailureInjector(manager.datacenter).inject(
        FailureKind.FPGA_HARDWARE_FAULT, 0, victim
    )
    report = check_health(manager, [victim])
    assert report.failed_machines
    assert victim in ring.assignment.excluded
    assert manager.scheduler.mapping_manager(0).relocations == 1


def loopback_run(stage, mode, pool, threads, requests_per_thread, seed):
    """Closed-loop threads (no host prep) against one stage on the
    loopback rig; returns the rig and its measured injection rate."""
    library = ModelLibrary.default(scale=0.03)
    eng = Engine(seed=seed)
    scoring = ScoringEngine(library)
    for request in pool:
        scoring.score(request.document, library[request.document.model_id])
    rig = loopback_rig(eng, stage, scoring)
    rig.meter.start_measurement()
    population = ClosedLoop(mode.injection_server(rig), threads, include_prep=False)
    injector = OpenLoopInjector(eng, rig, population, pool)
    eng.run_until(injector.run(threads * requests_per_thread))
    return rig, rig.meter.per_second


def test_loopback_rig_pcie_vs_sl3():
    pool = [TraceGenerator(seed=61).request() for _ in range(6)]
    rates = {
        mode: loopback_run("compress", mode, pool, 1, 8, seed=33)[1]
        for mode in (LoopbackMode.PCIE, LoopbackMode.SL3)
    }
    assert rates[LoopbackMode.PCIE] > 0
    # The SL3 path adds two link crossings: strictly slower.
    assert rates[LoopbackMode.SL3] < rates[LoopbackMode.PCIE]


def test_loopback_rig_rejects_unknown_stage():
    library = ModelLibrary.default(scale=0.03)
    with pytest.raises(ValueError):
        loopback_rig(Engine(), "bogus", ScoringEngine(library))


def test_loopback_rig_is_one_stage_on_a_whole_ring():
    rig = loopback_rig(Engine(), "fe", ScoringEngine(ModelLibrary.default(scale=0.03)))
    assert [spec.name for spec in rig.service.roles] == ["fe"]
    assert rig.head_node == (0, 0) and rig.region.whole
    assert rig.assignment.spare_nodes == [(0, 1)]
    assert LoopbackMode.PCIE.injection_server(rig).node_id == (0, 0)
    assert LoopbackMode.SL3.injection_server(rig).node_id == (0, 1)


def test_loopback_fe_stage_works():
    pool = [TraceGenerator(seed=62).request() for _ in range(4)]
    rig, rate = loopback_run("fe", LoopbackMode.PCIE, pool, 2, 4, seed=34)
    assert rate > 0
    assert rig.stage_role("fe").queue_manager.dispatched == 8


def test_loopback_threads_lease_from_the_shared_allocator():
    pool = [TraceGenerator(seed=62).request() for _ in range(4)]
    rig, _rate = loopback_run("fe", LoopbackMode.PCIE, pool, 3, 2, seed=34)
    server = LoopbackMode.PCIE.injection_server(rig)
    allocator = shared_slot_allocator(server)
    assert allocator.free_count == server.buffers.slot_count - rig.region.slot_quota
    assert set(allocator.owners.values()) == {rig.name}
    assert len(rig._leases(server)) == rig.region.slot_quota  # every lease back
