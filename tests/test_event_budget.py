"""Exact event budgets of the real serving stack, rung by rung.

Dispatched-event counts, simulated instants and admission counters do
not depend on the machine, so a change that adds an event per request,
or moves one arrival instant, fails here on any host.

* L1 components: one request through ``SlotLease.request`` on an idle
  echo ring, one ``Router.submit`` hop over an SL3 link, and one
  ``bing-ranking`` request through ``manager.endpoint()`` on an idle
  ring.  An SL3 hop with room in every queue costs one event, its wire
  timeout: the link's feed, wire and delivery stages run as callbacks
  (``Sl3Transmitter``), and no process waits on a link queue.
* L2 end to end: a small fixed-seed open-loop run enters through
  ``manager.endpoint()`` and is served by two echo replicas.  The same
  run on a fluid engine whose sink publishes no fluid profile must give
  the same numbers: the injector's discrete arrivals are the discrete
  path.
"""

import pytest

from repro.cluster import ClusterManager, ClusterScheduler, ServiceSpec, echo_service
from repro.fabric import Datacenter, TorusTopology
from repro.host.slots import SlotLease, shared_slot_allocator
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.shell import Packet, PacketKind, Port
from repro.sim import Engine
from repro.sim.units import MS, US
from repro.workloads import OpenLoopInjector, PoissonArrivals, TraceGenerator
from tests.test_shell_integration import build_pair

# 19,114 since the role port became a callback: a request that finds
# its role idle no longer wakes it through a getter on its router queue
# (972 events), and the 3 roles replaced while the service is placed
# are no longer killed processes (one event each).  18,925 since SEU
# scrubbing runs only for a pending upset: the 9 shells' scrubber
# processes no longer start (9 events) or tick every 100 ms through the
# 2.04 s run (9 x 20 events), and nothing injects an upset here.  The
# simulated figures did not move.
ARRIVALS = 2_000
EVENTS_DISPATCHED = 18_925
FINAL_NOW_NS = 2035768639.9525208

# One request from a ring server one hop from the echo head: process
# start, the input DMA's wake and transfer, the hop there and back (see
# below, less the start), 20 us of role service (Router.submit hands
# the packet to the idle role), the output DMA's transfer (fed the same
# way), the hand-off to the waiting thread, and the interrupt wake.  The guard
# deadline sits in the engine's DeadlineQueue and dispatches nothing.
# Its simulated time is echo_steady's p50.
LEASE_REQUEST_EVENTS = 9
LEASE_REQUEST_NS = 48_296.0
# One hop: process start, then the wire timeout, whose callback lands
# the packet in the far router; every put has room.
ROUTER_HOP_EVENTS = 2
ROUTER_HOP_NS = 656.0
# One ranking request at model scale 0.1: 14 SL3 hops at one wire
# timeout each; the other 25 events are the request's own process, the
# queue manager, both DMAs and the stage roles' service times, and the
# start of the service's watchdog.  Router.submit hands each packet to
# its consumer directly, so the 13 role hand-offs (the request through
# 7 stages, the model reload through 6) wake nothing.
RANKING_REQUEST_EVENTS = 39
RANKING_REQUEST_NS = 100182.1707303524


def test_one_lease_request_on_an_idle_ring_is_exact():
    engine = Engine(seed=7)
    datacenter = Datacenter(engine, num_pods=1, topology=TorusTopology(width=3, height=3))
    (deployment,) = ClusterScheduler(datacenter).deploy(
        echo_service(delay_ns=20 * US), rings=1
    )
    server = deployment.injection_servers()[1]
    assert server.node_id != deployment.head_node
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)

    def one_request():
        return (
            yield from lease.request(
                dst=deployment.head_node, size_bytes=64, timeout_ns=40 * MS
            )
        )

    before, started = engine.events_dispatched, engine.now
    response = engine.run_until(engine.process(one_request()))
    assert response.kind is PacketKind.RESPONSE
    assert engine.events_dispatched - before == LEASE_REQUEST_EVENTS
    assert engine.now - started == LEASE_REQUEST_NS


def test_one_router_hop_is_exact():
    engine = Engine()
    shell_a, shell_b = build_pair(engine)
    packet = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(1, 0), size_bytes=512)

    def submit():
        yield shell_a.router.submit(packet, Port.PCIE)

    before, started = engine.events_dispatched, engine.now
    engine.process(submit())
    engine.run()
    assert shell_b.router.queue_depth(Port.ROLE) == 1
    assert engine.events_dispatched - before == ROUTER_HOP_EVENTS
    assert engine.now - started == ROUTER_HOP_NS


def test_one_ranking_request_on_an_idle_ring_is_exact():
    engine = Engine(seed=7)
    manager = ClusterManager(
        Datacenter(engine, num_pods=1, topology=TorusTopology(width=2, height=8))
    )
    manager.apply(ranking_spec(ScoringEngine(ModelLibrary.default(scale=0.1))))
    endpoint = manager.endpoint("bing-ranking")
    (request,) = TraceGenerator(seed=99).requests(1)

    def one_request():
        return (yield from endpoint.submit(request))

    before, started = engine.events_dispatched, engine.now
    response = engine.run_until(engine.process(one_request()))
    assert response.kind is PacketKind.RESPONSE
    assert engine.events_dispatched - before == RANKING_REQUEST_EVENTS
    assert engine.now - started == RANKING_REQUEST_NS


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
