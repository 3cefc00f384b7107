"""Exact event budget of the real serving stack.

A small fixed-seed open-loop run enters through ``manager.endpoint()``
and is served by two echo replicas.  The engine's dispatched-event
count, the final clock and the admission counters do not depend on the
machine, so a change that adds an event per request, or moves one
arrival instant, fails here on any host.  The same run on a fluid
engine whose sink publishes no fluid profile must give the same
numbers: the injector's discrete arrivals are the discrete path.
"""

import pytest

from repro.cluster import ClusterManager, ServiceSpec, echo_service
from repro.fabric import Datacenter, TorusTopology
from repro.sim import Engine
from repro.sim.units import MS, US
from repro.workloads import OpenLoopInjector, PoissonArrivals

ARRIVALS = 2_000
EVENTS_DISPATCHED = 57_410
FINAL_NOW_NS = 2035768639.9525208


class NoProfileSink:
    """Forwards to an endpoint but publishes no ``fluid_profile``."""

    def __init__(self, endpoint):
        self.endpoint = endpoint

    @property
    def outstanding(self):
        return self.endpoint.outstanding

    def submit(self, request, timeout_ns):
        return self.endpoint.submit(request, timeout_ns=timeout_ns)


@pytest.mark.parametrize("fluid", [False, True], ids=["discrete", "fluid-no-profile"])
def test_echo_endpoint_event_budget_is_exact(fluid):
    engine = Engine(seed=7, fluid=fluid)
    datacenter = Datacenter(engine, num_pods=1, topology=TorusTopology(width=3, height=3))
    manager = ClusterManager(datacenter)
    manager.apply(
        ServiceSpec(
            service=echo_service(delay_ns=20 * US),
            replicas=2,
            request_timeout_ns=40 * MS,
        )
    )
    sink = manager.endpoint("echo-service")
    if fluid:
        sink = NoProfileSink(sink)
    injector = OpenLoopInjector(
        engine,
        sink,
        PoissonArrivals(60_000.0),
        pool=list(range(16)),
        max_queue_depth=256,
        timeout_ns=40 * MS,
    )
    stats = engine.run_until(injector.run(ARRIVALS))
    assert engine.events_dispatched == EVENTS_DISPATCHED
    assert engine.now == FINAL_NOW_NS
    assert stats.to_dict() == {
        "offered": ARRIVALS,
        "admitted": ARRIVALS,
        "rejected": 0,
        "completed": ARRIVALS,
        "timeouts": 0,
    }
    if fluid:
        assert engine.fluid.windows == 0
