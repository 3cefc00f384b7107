"""Tests for the Health Monitor, Mapping Manager, and failure handling."""

import pytest

from repro.cluster import ClusterFailureInjector
from repro.fabric import CrashSeverity, Datacenter, Pod, ServerState, TorusTopology
from repro.hardware import Bitstream, ResourceBudget
from repro.services import (
    FailureKind,
    HealthMonitor,
    InsufficientRingCapacity,
    MappingManager,
    RingAssignment,
    RoleSpec,
    ServiceDefinition,
)
from repro.shell import Packet, PacketKind, Role
from repro.shell.router import Port
from repro.sim import Engine, SEC


def bitstream(name):
    return Bitstream(
        role_name=name, role_budget=ResourceBudget(alms=1000), clock_mhz=175.0
    )


class RelayRole(Role):
    """Forwards requests downstream; the tail returns a response."""

    def __init__(self, assignment: RingAssignment, role_name: str):
        super().__init__()
        self.name = role_name
        self.assignment = assignment

    def handle(self, packet):
        yield self.shell.engine.timeout(500.0)
        downstream = self.assignment.downstream_of(self.name)
        if downstream is None:
            # Tail stage: answer back to the injector.
            yield self.send(packet.response_to(16, payload=("scored", packet.trace_id)))
        else:
            forwarded = Packet(
                kind=PacketKind.REQUEST,
                src=packet.src,
                dst=downstream,
                size_bytes=packet.size_bytes,
                payload=packet.payload,
                trace_id=packet.trace_id,
                injected_at_ns=packet.injected_at_ns,
                slot_id=packet.slot_id,
            )
            yield self.send(forwarded)


class SpareRole(Role):
    name = "spare"

    def __init__(self, assignment=None, role_name="spare"):
        super().__init__()

    def handle(self, packet):
        if False:
            yield


def relay_service(num_stages=3):
    roles = tuple(
        RoleSpec(name=f"stage{i}", bitstream=bitstream(f"stage{i}"), factory=RelayRole)
        for i in range(num_stages)
    )
    return ServiceDefinition(
        name="relay",
        roles=roles,
        spare=RoleSpec(name="spare", bitstream=bitstream("spare"), factory=SpareRole),
    )


def build_pod(seed=3):
    """A one-pod 3x4 datacenter's pod, and an injector over it."""
    eng = Engine(seed=seed)
    datacenter = Datacenter(eng, num_pods=1, topology=TorusTopology(width=3, height=4))
    return eng, datacenter.pod(0), ClusterFailureInjector(datacenter)


def send_through_pipeline(eng, pod, assignment, src_node=(0, 0)):
    """Inject one request at the pipeline head; return the response list."""
    from repro.host.slots import SlotLease, shared_slot_allocator

    server = pod.server_at(src_node)
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    responses = []

    def thread(eng):
        try:
            response = yield from lease.request(
                dst=assignment.head_node(), size_bytes=1024, timeout_ns=1 * SEC
            )
            responses.append(response)
        except Exception:
            responses.append(None)

    eng.process(thread(eng))
    eng.run()
    return responses


# --- deployment -----------------------------------------------------------------


def test_deploy_assigns_roles_in_ring_order():
    eng, pod, _ = build_pod()
    manager = MappingManager(eng, pod)
    done = manager.deploy(relay_service(), ring_x=1)
    assignment = eng.run_until(done)
    assert assignment.node_of("stage0") == (1, 0)
    assert assignment.node_of("stage1") == (1, 1)
    assert assignment.node_of("stage2") == (1, 2)
    assert assignment.spare_nodes == [(1, 3)]
    for node in assignment.ring_nodes:
        server = pod.server_at(node)
        assert server.fpga.state.value == "configured"
        assert server.shell.role is not None


def test_deploy_releases_rx_halt_only_after_all_configured():
    eng, pod, _ = build_pod()
    manager = MappingManager(eng, pod)
    done = manager.deploy(relay_service(), ring_x=0)
    # Mid-deployment: still reconfiguring, halts must be on.
    eng.run(until=0.5 * SEC)
    ring_servers = pod.ring(0)
    assert all(
        ep.rx_halt
        for server in ring_servers
        for ep in server.shell.endpoints.values()
    )
    assignment = eng.run_until(done)
    assert assignment is not None
    assert all(
        not ep.rx_halt
        for server in ring_servers
        for ep in server.shell.endpoints.values()
    )


def test_pipeline_processes_request_end_to_end():
    eng, pod, _ = build_pod()
    manager = MappingManager(eng, pod)
    assignment = eng.run_until(manager.deploy(relay_service(), ring_x=1))
    responses = send_through_pipeline(eng, pod, assignment)
    assert len(responses) == 1 and responses[0] is not None
    assert responses[0].payload[0] == "scored"


def test_service_definition_rejects_duplicate_names():
    spec = RoleSpec(name="x", bitstream=bitstream("x"), factory=RelayRole)
    with pytest.raises(ValueError):
        ServiceDefinition(name="bad", roles=(spec, spec), spare=spec)


def test_ring_too_small_rejected():
    eng, pod, _ = build_pod()
    manager = MappingManager(eng, pod)
    with pytest.raises(InsufficientRingCapacity):
        manager.deploy(relay_service(num_stages=5), ring_x=0)  # ring of 4


# --- health monitor ------------------------------------------------------------------


def test_healthy_pod_reports_clean():
    eng, pod, _ = build_pod()
    monitor = HealthMonitor(eng, pod)
    report = eng.run_until(monitor.investigate([(0, 0), (1, 0)]))
    assert report.failed_machines == []
    assert all(not d.flags.any_error for d in report.diagnoses)


def test_crashed_server_recovered_by_soft_reboot():
    eng, pod, _ = build_pod()
    monitor = HealthMonitor(eng, pod)
    server = pod.server_at((0, 1))
    server.crash()
    report = eng.run_until(monitor.investigate([(0, 1)]))
    diagnosis = report.diagnoses[0]
    assert diagnosis.reboots_performed == 1
    assert not diagnosis.marked_dead
    assert server.state is ServerState.UP
    assert diagnosis.flags.unresponsive  # it WAS unresponsive


def test_stubborn_crash_needs_hard_reboot():
    eng, pod, _ = build_pod()
    monitor = HealthMonitor(eng, pod)
    server = pod.server_at((0, 1))
    server.crash(CrashSeverity.NEEDS_HARD_REBOOT)
    report = eng.run_until(monitor.investigate([(0, 1)]))
    assert report.diagnoses[0].reboots_performed == 2
    assert server.state is ServerState.UP


def test_permanent_failure_marked_dead():
    eng, pod, _ = build_pod()
    monitor = HealthMonitor(eng, pod)
    server = pod.server_at((0, 1))
    server.crash(CrashSeverity.PERMANENT)
    report = eng.run_until(monitor.investigate([(0, 1)]))
    assert report.diagnoses[0].marked_dead
    assert server.state is ServerState.DEAD
    assert "pod0-s03" in monitor.failed_machine_list


def test_error_vector_flags_injected_failures():
    eng, pod, injector = build_pod()
    monitor = HealthMonitor(eng, pod)

    injector.inject(FailureKind.DRAM_CALIBRATION, 0, (1, 1))
    injector.inject(FailureKind.LINK_FAILURE, 0, (2, 2), port=Port.EAST)
    report = eng.run_until(monitor.investigate([(1, 1), (2, 2)]))
    flags_a, flags_b = report.diagnoses[0].flags, report.diagnoses[1].flags
    assert flags_a.dram_calibration_failed and flags_a.needs_relocation
    assert flags_b.link_down == ("east",) and flags_b.needs_relocation


def test_fpga_fault_flags_relocation_and_pll():
    eng, pod, injector = build_pod()
    injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, (0, 2))
    monitor = HealthMonitor(eng, pod)
    report = eng.run_until(monitor.investigate([(0, 2)]))
    flags = report.diagnoses[0].flags
    assert flags.fpga_failed and flags.pll_unlocked
    assert flags.needs_relocation


def test_temp_shutdown_reported_in_error_vector():
    # Regression: temperature shutdowns used to be dropped by _analyze,
    # silently excluding them from relocation decisions (§3.5).
    eng, pod, injector = build_pod()
    injector.inject(FailureKind.TEMP_SHUTDOWN, 0, (1, 2))
    monitor = HealthMonitor(eng, pod)
    report = eng.run_until(monitor.investigate([(1, 2)]))
    flags = report.diagnoses[0].flags
    assert flags.temp_shutdown
    assert flags.needs_relocation
    assert any(f.temp_shutdown for f in monitor.failed_machine_list.values())


def test_map_out_exhaustion_marks_unservable():
    # Unlike exclude(), map_out() tolerates running out of spares: the
    # assignment goes unservable for the control plane to reconcile.
    eng, pod, _ = build_pod()
    manager = MappingManager(eng, pod)
    assignment = eng.run_until(manager.deploy(relay_service(), ring_x=1))
    assert assignment.map_out((1, 3)) is True
    assert assignment.servable
    assert assignment.map_out((1, 2)) is False
    assert not assignment.servable
    assert (1, 2) in assignment.excluded


def test_watchdog_exhaustion_is_graceful():
    # A health report that exhausts a ring's spares must not crash the
    # monitor's process chain; the assignment is left unservable.
    eng, pod, injector = build_pod()
    manager = MappingManager(eng, pod)
    monitor = HealthMonitor(eng, pod, mapping_manager=manager)
    assignment = eng.run_until(manager.deploy(relay_service(), ring_x=1))
    for node in [(1, 2), (1, 3)]:
        injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, node)
    report = eng.run_until(monitor.investigate([(1, 2), (1, 3)]))
    assert len(report.failed_machines) == 2
    assert not assignment.servable
    assert manager.ring_exhaustions == 1


def test_deploy_pre_excludes_failed_hardware():
    # Deploying onto a ring with a known-dead FPGA maps the node out up
    # front instead of failing the configuration.
    eng, pod, injector = build_pod()
    injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, (1, 0))
    manager = MappingManager(eng, pod)
    assignment = eng.run_until(manager.deploy(relay_service(), ring_x=1))
    assert (1, 0) in assignment.excluded
    assert assignment.servable
    assert (1, 0) not in assignment.role_to_node.values()


def test_miswiring_reported_as_neighbor_mismatch():
    eng = Engine(seed=5)
    topology = TorusTopology(width=3, height=4)
    from repro.fabric.cables import WiringPlan

    wiring = WiringPlan(topology)
    wiring.swap(0, 2)
    pod = Pod(eng, topology=topology, wiring=wiring)
    monitor = HealthMonitor(eng, pod)
    report = eng.run_until(monitor.investigate(list(pod.servers)))
    mismatched = [d for d in report.diagnoses if d.flags.neighbor_mismatch]
    assert mismatched


# --- failure handling end-to-end ---------------------------------------------------------


def test_ring_rotation_after_fpga_failure():
    eng, pod, injector = build_pod()
    manager = MappingManager(eng, pod)
    monitor = HealthMonitor(eng, pod, mapping_manager=manager)
    assignment = eng.run_until(manager.deploy(relay_service(), ring_x=1))
    victim = assignment.node_of("stage1")

    injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, victim)
    eng.run_until(monitor.investigate([victim]))

    assert manager.relocations == 1
    assert victim in assignment.excluded
    assert assignment.node_of("stage1") != victim
    # The rotated pipeline still works end to end.
    responses = send_through_pipeline(eng, pod, assignment)
    assert responses[0] is not None
    assert responses[0].payload[0] == "scored"


def test_app_hang_reconfigures_in_place():
    eng, pod, injector = build_pod()
    manager = MappingManager(eng, pod)
    monitor = HealthMonitor(eng, pod, mapping_manager=manager)
    assignment = eng.run_until(manager.deploy(relay_service(), ring_x=1))
    victim = assignment.node_of("stage2")
    server = pod.server_at(victim)
    reconfigs_before = server.fpga.reconfig_count

    injector.inject(FailureKind.APP_HANG, 0, victim)
    eng.run_until(monitor.investigate([victim]))

    assert manager.in_place_reconfigs == 1
    assert manager.relocations == 0
    assert victim not in assignment.excluded  # same node, fresh image
    assert server.fpga.reconfig_count == reconfigs_before + 1
    assert not server.shell.role.app_error  # cleared by reconfiguration


def test_too_many_failures_exhausts_ring():
    eng, pod, _ = build_pod()
    manager = MappingManager(eng, pod)
    assignment = eng.run_until(manager.deploy(relay_service(), ring_x=1))
    assignment.exclude((1, 3))
    with pytest.raises(InsufficientRingCapacity):
        assignment.exclude((1, 2))


def test_spare_failure_needs_no_role_move():
    eng, pod, injector = build_pod()
    manager = MappingManager(eng, pod)
    monitor = HealthMonitor(eng, pod, mapping_manager=manager)
    assignment = eng.run_until(manager.deploy(relay_service(), ring_x=1))
    spare_node = assignment.spare_nodes[0]
    active_before = dict(assignment.role_to_node)

    injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, spare_node)
    eng.run_until(monitor.investigate([spare_node]))

    # Active roles stay put; only the spare is mapped out.
    assert {k: v for k, v in assignment.role_to_node.items()} == active_before
    assert spare_node in assignment.excluded
