"""The node-level methodology of §5.

:func:`loopback_rig` stands a single ranking stage up alone as a
one-role :class:`~repro.cluster.deployment.Deployment`, measured in
PCIe-only or SL3-loopback mode (:class:`LoopbackMode`).  Services on
rings are stood up through the cluster control plane instead: a
:class:`~repro.fabric.datacenter.Datacenter`, a
:class:`~repro.cluster.manager.ClusterManager` that ``apply``-s a
:class:`~repro.cluster.spec.ServiceSpec`, and ``manager.endpoint(name)``
for traffic.
"""

from repro.core.loopback import LoopbackMode, loopback_rig

__all__ = ["LoopbackMode", "loopback_rig"]
