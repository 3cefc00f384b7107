"""The node-level methodology of §5.

:class:`LoopbackHarness` measures a single stage role standalone in
PCIe-only or SL3-loopback mode.  Services on rings are stood up through
the cluster control plane instead: a
:class:`~repro.fabric.datacenter.Datacenter`, a
:class:`~repro.cluster.manager.ClusterManager` that ``apply``-s a
:class:`~repro.cluster.spec.ServiceSpec`, and ``manager.endpoint(name)``
for traffic.
"""

from repro.core.loopback import LoopbackHarness, LoopbackMode

__all__ = ["LoopbackHarness", "LoopbackMode"]
