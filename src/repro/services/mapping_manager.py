"""The Mapping Manager (§3.3–§3.5).

Responsible for configuring FPGAs with the correct application images
when a datacenter service starts, releasing RX-Halt once every FPGA of
a pipeline is configured (§3.4), and — when the Health Monitor updates
the failed-machine list — deciding where to relocate application roles:
rotating the ring onto the spare, reconfiguring in place for transient
errors, or mapping out bad hardware entirely.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import typing

from repro.fabric.pod import Pod
from repro.fabric.server import Server, ServerState
from repro.fabric.torus import NodeId
from repro.hardware.bitstream import Bitstream
from repro.hardware.constants import MODEL_RELOAD_WORST_NS
from repro.hardware.fpga import FpgaState
from repro.host.driver import FpgaDriver
from repro.shell.role import Role
from repro.sim import AllOf, Engine, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.services.health_monitor import HealthReport


class InsufficientRingCapacity(Exception):
    """More failed nodes than spares: the service cannot stay mapped."""


RoleFactory = collections.abc.Callable[["RingAssignment", str], Role]


@dataclasses.dataclass(frozen=True)
class RoleSpec:
    """One pipeline stage: its name, image, and role constructor."""

    name: str
    bitstream: Bitstream
    factory: RoleFactory

    def to_dict(self) -> dict:
        """Canonical JSON form.  The role constructor is code, not
        data: :meth:`from_dict` rebuilds it from a caller-supplied
        factory, so ``from_dict(to_dict(r), r.factory) == r``."""
        return {"name": self.name, "bitstream": self.bitstream.to_dict()}

    @classmethod
    def from_dict(cls, document: dict, factory: RoleFactory) -> "RoleSpec":
        if not isinstance(document, dict):
            raise ValueError(
                f"RoleSpec document must be a mapping, got "
                f"{type(document).__name__}"
            )
        unknown = set(document) - {"name", "bitstream"}
        if unknown:
            raise ValueError(
                f"unknown RoleSpec fields: {sorted(unknown)} "
                "(known: ['bitstream', 'name'])"
            )
        if "name" not in document or "bitstream" not in document:
            raise ValueError("a RoleSpec document needs 'name' and 'bitstream'")
        return cls(
            name=document["name"],
            bitstream=Bitstream.from_dict(document["bitstream"]),
            factory=factory,
        )


@dataclasses.dataclass(frozen=True)
class ServiceDefinition:
    """An accelerated service: ordered active roles plus a spare image."""

    name: str
    roles: tuple
    spare: RoleSpec

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.roles] + [self.spare.name]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate role names in service {self.name!r}")

    def to_dict(self) -> dict:
        """Canonical JSON form: name, ordered role images, spare image.

        Everything except the role constructors (code, not data) round
        trips; the dict doubles as the definition's *fingerprint* — two
        builds of the same service compare equal through it even though
        their factory closures never do.
        """
        return {
            "name": self.name,
            "roles": [spec.to_dict() for spec in self.roles],
            "spare": self.spare.to_dict(),
        }

    @classmethod
    def from_dict(
        cls,
        document: dict,
        factories: collections.abc.Mapping[str, RoleFactory],
    ) -> "ServiceDefinition":
        """Rebuild from :meth:`to_dict` output plus the role constructors.

        ``factories`` maps role name -> factory.  Construction runs the
        same ``__post_init__`` validation as building the definition
        directly, so invalid documents raise identical errors.
        """
        if not isinstance(document, dict):
            raise ValueError(
                f"ServiceDefinition document must be a mapping, got "
                f"{type(document).__name__}"
            )
        unknown = set(document) - {"name", "roles", "spare"}
        if unknown:
            raise ValueError(
                f"unknown ServiceDefinition fields: {sorted(unknown)} "
                "(known: ['name', 'roles', 'spare'])"
            )
        for key in ("name", "roles", "spare"):
            if key not in document:
                raise ValueError(f"a ServiceDefinition document needs {key!r}")

        def resolve(role_doc: dict) -> RoleSpec:
            role_name = role_doc.get("name")
            if role_name not in factories:
                raise ValueError(
                    f"no factory for role {role_name!r} of service "
                    f"{document['name']!r} (have: {sorted(factories)})"
                )
            return RoleSpec.from_dict(role_doc, factories[role_name])

        return cls(
            name=document["name"],
            roles=tuple(resolve(role_doc) for role_doc in document["roles"]),
            spare=resolve(document["spare"]),
        )


class RingAssignment:
    """The current mapping of a service's roles onto ring nodes."""

    def __init__(self, service: ServiceDefinition, pod: Pod, ring_nodes: list[NodeId]):
        if len(ring_nodes) < len(service.roles):
            raise InsufficientRingCapacity(
                f"service {service.name!r} needs {len(service.roles)} nodes, "
                f"ring has {len(ring_nodes)}"
            )
        self.service = service
        self.pod = pod
        self.ring_nodes = list(ring_nodes)
        self.excluded: set[NodeId] = set()  # mapped-out hardware
        self.role_to_node: dict[str, NodeId] = {}
        self.servable = True  # cleared when failures exhaust the ring
        self.version = 0
        self.recompute()

    def recompute(self) -> None:
        """Assign roles to healthy ring nodes in ring order.

        Active roles land on the first healthy nodes; every remaining
        healthy node hosts the spare image.  This is the "rotate the
        ring upon a machine failure" operation (§4.2).
        """
        healthy = [node for node in self.ring_nodes if node not in self.excluded]
        if len(healthy) < len(self.service.roles):
            raise InsufficientRingCapacity(
                f"service {self.service.name!r}: {len(healthy)} healthy nodes "
                f"for {len(self.service.roles)} roles"
            )
        self.role_to_node = {}
        for spec, node in zip(self.service.roles, healthy, strict=False):
            self.role_to_node[spec.name] = node
        self.spare_nodes = healthy[len(self.service.roles):]
        self.version += 1

    # -- queries used by roles ------------------------------------------------

    def node_of(self, role_name: str) -> NodeId:
        return self.role_to_node[role_name]

    def downstream_of(self, role_name: str) -> NodeId | None:
        """The node hosting the next active stage, if any."""
        names = [spec.name for spec in self.service.roles]
        index = names.index(role_name)
        if index + 1 < len(names):
            return self.role_to_node[names[index + 1]]
        return None

    def head_node(self) -> NodeId:
        return self.role_to_node[self.service.roles[0].name]

    def spec_for_node(self, node: NodeId) -> RoleSpec:
        for spec in self.service.roles:
            if self.role_to_node.get(spec.name) == node:
                return spec
        return self.service.spare

    def exclude(self, node: NodeId) -> None:
        if node not in self.ring_nodes:
            raise ValueError(f"{node} is not part of this ring")
        self.excluded.add(node)
        self.recompute()

    def map_out(self, node: NodeId) -> bool:
        """Exclude ``node``, tolerating ring exhaustion.

        Unlike :meth:`exclude`, mapping out the last spare does not
        raise: the assignment is marked unservable (``servable`` False)
        so the control plane can observe the dead ring, release it, and
        re-place the replica elsewhere.  Returns whether the ring is
        still servable.
        """
        if node not in self.ring_nodes:
            raise ValueError(f"{node} is not part of this ring")
        self.excluded.add(node)
        healthy = [n for n in self.ring_nodes if n not in self.excluded]
        if len(healthy) < len(self.service.roles):
            self.servable = False
            self.version += 1
            return False
        self.recompute()
        return True


class MappingManager:
    """Pod-level service deployment and failure response."""

    def __init__(self, engine: Engine, pod: Pod):
        self.engine = engine
        self.pod = pod
        self.assignments: list[RingAssignment] = []
        self._drivers: dict[str, FpgaDriver] = {}
        self.deployments = 0
        self.relocations = 0
        self.in_place_reconfigs = 0
        self.ring_exhaustions = 0
        # Optional BitstreamCache (set by the scheduler): nodes whose
        # needed image is still staged board-side skip the flash write.
        self.bitstream_cache = None

    def driver_for(self, server: Server) -> FpgaDriver:
        if server.machine_id not in self._drivers:
            self._drivers[server.machine_id] = FpgaDriver(server)
        return self._drivers[server.machine_id]

    # -- deployment (§3.3) -------------------------------------------------------

    def deploy(
        self,
        service: ServiceDefinition,
        ring_x: int,
        nodes: collections.abc.Sequence[NodeId] | None = None,
    ) -> Event:
        """Deploy ``service`` onto ring ``ring_x``; yields the assignment.

        Every *other* pod FPGA that is still unconfigured receives the
        spare image: "when a service is deployed, each server is
        designated to run a specific application on its local FPGA"
        (§3.1), and the torus cannot route through unconfigured parts.

        ``nodes`` restricts the assignment to a *region* — a subset of
        the ring's nodes granted by the tenancy layer — so several
        services can co-reside on one physical ring.  Nodes of the ring
        outside the region are untouched (they belong to other tenants
        or to the free pool).
        """
        if nodes is not None:
            ring_nodes = list(nodes)
        else:
            ring_nodes = [server.node_id for server in self.pod.ring(ring_x)]
        assignment = RingAssignment(service, self.pod, ring_nodes)
        # Consult the failed-machine knowledge before configuring: nodes
        # whose hardware is flagged for manual service (dead server or
        # failed FPGA) start mapped out, so a ring that previously lost
        # machines can still host a new service on its survivors.
        for node in ring_nodes:
            server = self.pod.server_at(node)
            if server.state is ServerState.DEAD or server.fpga.state is FpgaState.FAILED:
                if not assignment.map_out(node):
                    raise InsufficientRingCapacity(
                        f"ring {ring_x} of pod {self.pod.pod_id}: too much "
                        f"failed hardware for service {service.name!r}"
                    )
        done = self.engine.event(name=f"deploy:{service.name}")
        configure = [
            node for node in ring_nodes if node not in assignment.excluded
        ]
        for node, server in self.pod.servers.items():
            if node in ring_nodes or server.fpga.configured_role is not None:
                continue
            if server.state is ServerState.DEAD or server.fpga.state is FpgaState.FAILED:
                continue  # flagged for manual service; cannot take an image
            configure.append(node)
        self.engine.process(self._configure_body(assignment, configure, done))
        self.deployments += 1
        return done

    def _configure_body(
        self, assignment: RingAssignment, nodes: list[NodeId], done: Event
    ) -> collections.abc.Generator:
        """Reconfigure ``nodes`` with their assigned images, then release
        RX-Halt everywhere — only once ALL pipeline FPGAs are configured
        (§3.4).

        With a :class:`~repro.cluster.bitstream_cache.BitstreamCache`
        attached, a node whose needed image is still staged board-side
        — and whose shell is live — takes the partial-reconfiguration
        fast path at model-reload cost instead of a full flash write.
        """
        cache = self.bitstream_cache
        reconfigs = []
        for node in nodes:
            server = self.pod.server_at(node)
            spec = assignment.spec_for_node(node)
            fpga = server.fpga
            staged = cache is not None and cache.lookup(
                server.machine_id, spec.bitstream
            )
            if (
                staged
                and fpga.state is FpgaState.CONFIGURED
                and not fpga.role_reloading
                and spec.bitstream.shell_version.compatible_with(fpga.shell_version)
            ):
                reconfigs.append(
                    server.shell.partial_reconfigure(
                        spec.bitstream, reload_ns=MODEL_RELOAD_WORST_NS
                    )
                )
                continue
            driver = self.driver_for(server)
            reconfigs.append(driver.reconfigure(spec.bitstream))
        try:
            yield AllOf(self.engine, reconfigs)
        except Exception as exc:
            done.fail(exc)
            return
        if cache is not None:
            # Whatever just landed is, by definition, staged board-side.
            for node in nodes:
                cache.install(
                    self.pod.server_at(node).machine_id,
                    assignment.spec_for_node(node).bitstream,
                )
        for node in nodes:
            server = self.pod.server_at(node)
            spec = assignment.spec_for_node(node)
            server.shell.attach_role(spec.factory(assignment, spec.name))
        # "The Mapping Manager tells each server to release RX Halt once
        # all FPGAs in a pipeline have been configured."  Release is
        # pod-wide: responses route through nodes outside the ring.
        for node, server in self.pod.servers.items():
            if node not in assignment.excluded and server.fpga.configured_role:
                server.shell.release_rx_halt()
        # Register only once configured: a deploy that failed on bad
        # hardware must not leave a half-registered assignment behind.
        if assignment not in self.assignments:
            self.assignments.append(assignment)
        done.succeed(assignment)

    # -- failure handling (§3.5) ----------------------------------------------------

    def handle_failures(self, report: "HealthReport") -> Event:
        """React to a Health Monitor report; returns a completion event."""
        done = self.engine.event(name="mapping-failures")
        self.engine.process(self._handle_failures_body(report, done))
        return done

    def _handle_failures_body(self, report: "HealthReport", done) -> collections.abc.Generator:
        for assignment in self.assignments:
            if not assignment.servable:
                continue  # already exhausted; awaiting reconciliation
            relocate_nodes = []
            reconfig_nodes = []
            for diagnosis in report.failed_machines:
                if diagnosis.node_id not in assignment.ring_nodes:
                    continue
                if diagnosis.node_id in assignment.excluded:
                    continue
                if diagnosis.marked_dead or diagnosis.flags.needs_relocation:
                    relocate_nodes.append(diagnosis.node_id)
                elif diagnosis.flags.needs_reconfig_only:
                    reconfig_nodes.append(diagnosis.node_id)
            if relocate_nodes:
                servable = True
                for node in relocate_nodes:
                    servable = assignment.map_out(node)
                if not servable:
                    # Out of spares: the ring cannot stay mapped.  Leave
                    # it for the control plane to release and re-place.
                    self.ring_exhaustions += 1
                    continue
                self.relocations += 1
                # Reconfigure the whole surviving ring: clears corrupted
                # state and installs the rotated mapping.
                survivors = [
                    node
                    for node in assignment.ring_nodes
                    if node not in assignment.excluded
                ]
                finished = self.engine.event()
                yield from self._configure_body(assignment, survivors, finished)
            elif reconfig_nodes:
                # Reconfiguring in place is sufficient (§3.5).
                self.in_place_reconfigs += 1
                finished = self.engine.event()
                yield from self._configure_body(assignment, reconfig_nodes, finished)
        done.succeed(report)

