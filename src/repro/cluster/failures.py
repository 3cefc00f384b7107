"""Failure injection for resilience experiments at datacenter scope
(§3.5).

Everything the Health Monitor's error vector can report is injectable
(see :class:`~repro.services.failures.FailureKind`) at any node of any
pod, addressed by ``(pod_id, node)``.  Service-level helpers pick
victims from a live :class:`~repro.cluster.deployment.Deployment`:
the node hosting a role, or enough of a ring to exhaust its spares.
"""

from __future__ import annotations

from repro.cluster.deployment import Deployment
from repro.fabric.datacenter import Datacenter
from repro.fabric.pod import Pod
from repro.fabric.torus import NodeId
from repro.services.failures import FailureKind


class ClusterFailureInjector:
    """Applies failures anywhere in the datacenter."""

    def __init__(self, datacenter: Datacenter):
        self.datacenter = datacenter

    def inject(
        self, kind: FailureKind, pod_id: int, node: NodeId, port=None
    ) -> None:
        """Inject ``kind`` at ``node`` of pod ``pod_id`` (``port`` for
        link failures)."""
        pod = self.datacenter.pod(pod_id)
        server = pod.server_at(node)
        if kind is FailureKind.SERVER_HANG:
            server.crash()
        elif kind is FailureKind.FPGA_HARDWARE_FAULT:
            server.fpga.mark_failed()
        elif kind is FailureKind.PLL_UNLOCK:
            server.fpga.pll_locked = False
        elif kind is FailureKind.LINK_FAILURE:
            if port is None:
                raise ValueError("LINK_FAILURE needs a port")
            endpoint = server.shell.endpoints[port]
            if endpoint.link is None:
                raise ValueError(f"no link on {node} port {port}")
            endpoint.link.break_cable()
        elif kind is FailureKind.CABLE_ASSEMBLY_FAILURE:
            self._assembly_for(pod, node).fail()
        elif kind is FailureKind.DRAM_CALIBRATION:
            server.shell.dram[0].fail_calibration()
        elif kind is FailureKind.APP_HANG:
            if server.shell.role is None:
                raise ValueError(f"no role attached at {node}")
            server.shell.role.app_error = True
        elif kind is FailureKind.TEMP_SHUTDOWN:
            server.fpga.temp_shutdown = True  # part shut itself down
            server.fpga.mark_failed()
        elif kind is FailureKind.SEU_UNCORRECTABLE:
            server.fpga.inject_seu(correctable=False)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown failure kind {kind}")
        fluid = self.datacenter.engine.fluid
        if fluid is not None:
            # A failure is the canonical transient: hold the simulation
            # discrete through the dip so the rotation/reconcile/shed
            # dynamics are computed exactly, never analytically.
            fluid.note_transient()

    @staticmethod
    def _assembly_for(pod: Pod, node: NodeId):
        column = f"col{node[0]}"
        for name, assembly in pod.assemblies.items():
            if name.endswith(column):
                return assembly
        raise ValueError(f"no assembly for column of {node}")

    # -- service-level helpers -------------------------------------------------

    def inject_role(
        self,
        deployment: Deployment,
        kind: FailureKind,
        role_name: str | None = None,
        port=None,
    ) -> NodeId:
        """Inject at the node hosting ``role_name`` (default: the head
        role) of ``deployment``; returns the victim node."""
        assignment = deployment.assignment
        if assignment is None:
            raise ValueError(f"{deployment.name} is not deployed")
        if role_name is None:
            role_name = deployment.service.roles[0].name
        victim = assignment.node_of(role_name)
        self.inject(kind, deployment.pod.pod_id, victim, port=port)
        return victim

    def kill_ring(
        self,
        deployment: Deployment,
        kind: FailureKind = FailureKind.FPGA_HARDWARE_FAULT,
    ) -> list[NodeId]:
        """Fail enough of the ring's healthy nodes that no rotation can
        save it — one more failure than the ring has spares.  Returns
        the victim nodes; the next health sweep marks the assignment
        unservable and reconciliation re-places the replica."""
        assignment = deployment.assignment
        if assignment is None:
            raise ValueError(f"{deployment.name} is not deployed")
        healthy = [
            node
            for node in assignment.ring_nodes
            if node not in assignment.excluded
        ]
        needed = len(healthy) - len(deployment.service.roles) + 1
        victims = healthy[:needed]
        for victim in victims:
            self.inject(kind, deployment.pod.pod_id, victim)
        return victims
