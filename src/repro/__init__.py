"""Catapult reproduction: a reconfigurable fabric for accelerating
large-scale datacenter services (Putnam et al., ISCA 2014).

The package simulates the full Catapult system: FPGA boards with a
shell/role split, a 6x8 torus of SL3 links per 48-server pod, pod-level
management services, and the Bing ranking pipeline mapped onto rings of
eight FPGAs — plus the pure-software baseline it is compared against.

Start with the ``examples/`` directory: a service is declared as a
:class:`~repro.cluster.spec.ServiceSpec` (for ranking,
:func:`repro.ranking.pipeline.ranking_spec`), applied to a
:class:`~repro.fabric.datacenter.Datacenter` by a
:class:`~repro.cluster.manager.ClusterManager`, and driven through
``manager.endpoint(name)``.
"""

__version__ = "1.0.0"
