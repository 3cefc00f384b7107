"""Behaviour digests of small fixed-seed runs through the serving stack.

A data-path change meant to keep behaviour must reproduce these exactly.
Each scenario sends open-loop traffic through ``manager.endpoint()``;
a recording sink around ``endpoint.submit`` logs, per request, the
arrival instant, the outcome (completed, timeout or rejected) and the
outcome instant, in the order the requests resolve.  The digest hashes
that stream, then the injector's ``OpenLoopStats`` counters and the
final ``engine.now``.  Floats enter through ``float.hex``, so the digest
is exact and the same on every Python version.

* ``echo_poisson``: two 20 us echo replicas (about 100k req/s) under
  60k req/s Poisson arrivals.
* ``echo_bursty``: bursts at 150k req/s outlive a 2 ms timeout, so
  requests time out and the quarantine drain runs.  Requests wait for
  slot leases, but every wait ends before its deadline.
* ``echo_dead_ring``: ``echo_poisson`` with four slots per server and
  a 2 ms timeout; 5 ms in, with the watchdog stopped, one ring's cable
  assembly fails.  Its requests time out and their leases stay in
  quarantine (no response ever drains them), so later requests to
  that ring wait for a lease until their deadline.
* ``ranking``: ``ranking_spec`` at model scale 0.1 on one 2x8 ring.

A change that moves behaviour on purpose re-pins these with its cause.
"""

import hashlib

import pytest

from repro.cluster import (
    ClusterFailureInjector,
    ClusterManager,
    ServiceSpec,
    echo_service,
)
from repro.cluster.deployment import RequestAdapter
from repro.cluster.load_balancer import NoHealthyDeployment
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.services import FailureKind
from repro.sim import Engine
from repro.sim.units import MS, US
from repro.workloads import (
    BurstyArrivals,
    OpenLoopInjector,
    PoissonArrivals,
    TraceGenerator,
)

DIGESTS = {
    ("echo_poisson", 1):
        "4c0a108eaf2c498aaba1139e6ab88b66330d0c4f9585fffc5585d74476be5f6c",
    ("echo_poisson", 90210):
        "314f5d0ddfbb757b6ef6c8695f675fc9fdab0b817639dd16c6b5c2329570c5ae",
    ("echo_bursty", 1):
        "4d99d33ca179ab6c5ef329a49230010bac6c830b49ee3be2458f7e96105d0c32",
    ("echo_bursty", 90210):
        "959f239d8bd38b999d957a85a2d70f01e2382f832cd1e85d6d4dbb6872fe0dbd",
    ("echo_dead_ring", 1):
        "0a5b51758f3f6361d6e8e877c78a650f7b3c152f2a1ccbe16707730831dfaefa",
    ("echo_dead_ring", 90210):
        "833bf53a5f0e539f9f9431b66026938edca7a788309dbb3b6e1df77bd6fcb3b4",
    ("ranking", 1):
        "e30b2dac715fca21c94acdf6837272c366f04f4fdfeca4c8421fffc623c6aab9",
    ("ranking", 90210):
        "65d33f795f8453bab7ffcc384e6586eb92c30d6fa7f4411636e8ba4c6dd24be0",
}


class RecordingSink:
    """Forwards to an endpoint and logs how each request resolved."""

    def __init__(self, engine, endpoint):
        self.engine = engine
        self.endpoint = endpoint
        self.records: list[tuple[float, str, float]] = []

    @property
    def outstanding(self):
        return self.endpoint.outstanding

    def submit(self, request, timeout_ns):
        arrived = self.engine.now
        try:
            response = yield from self.endpoint.submit(request, timeout_ns=timeout_ns)
        except NoHealthyDeployment:
            self.records.append((arrived, "rejected", self.engine.now))
            raise
        outcome = "timeout" if response is None else "completed"
        self.records.append((arrived, outcome, self.engine.now))
        return response


class LeaseCount(RequestAdapter):
    """The default adapter, counting the requests that got a slot lease:
    a deployment preps a request only once its lease is granted."""

    def __init__(self):
        self.leased = 0

    def prep(self, server):
        self.leased += 1
        return super().prep(server)


def _echo_run(seed, arrivals, timeout_ns, max_queue_depth, count, slots=48, kill_at_ns=None):
    engine = Engine(seed=seed)
    datacenter = Datacenter(engine, num_pods=1, topology=TorusTopology(width=3, height=3))
    manager = ClusterManager(datacenter)
    adapter = LeaseCount()
    handle = manager.apply(
        ServiceSpec(
            service=echo_service(delay_ns=20 * US),
            replicas=2,
            request_timeout_ns=timeout_ns,
            slots_per_server=slots,
            adapter=adapter,
        )
    )
    if kill_at_ns is not None:
        handle.stop_watchdog()  # keep the ring dead: no reconciliation

        def kill():
            yield engine.timeout(kill_at_ns)
            ClusterFailureInjector(datacenter).kill_ring(
                handle.deployments[0], FailureKind.CABLE_ASSEMBLY_FAILURE
            )

        engine.process(kill())
    sink = RecordingSink(engine, manager.endpoint("echo-service"))
    injector = OpenLoopInjector(
        engine,
        sink,
        arrivals,
        pool=list(range(16)),
        max_queue_depth=max_queue_depth,
        timeout_ns=timeout_ns,
    )
    return engine, sink, engine.run_until(injector.run(count)), adapter.leased


def echo_poisson(seed):
    return _echo_run(seed, PoissonArrivals(60_000.0), 40 * MS, 256, 1_500)


def echo_bursty(seed):
    arrivals = BurstyArrivals(30_000.0, 150_000.0, period_s=0.02, duty=0.5)
    return _echo_run(seed, arrivals, 2 * MS, None, 2_500)


def echo_dead_ring(seed):
    return _echo_run(
        seed, PoissonArrivals(60_000.0), 2 * MS, 256, 1_500, slots=4, kill_at_ns=5 * MS
    )


def ranking(seed):
    engine = Engine(seed=seed)
    manager = ClusterManager(
        Datacenter(engine, num_pods=1, topology=TorusTopology(width=2, height=8))
    )
    manager.apply(ranking_spec(ScoringEngine(ModelLibrary.default(scale=0.1))))
    sink = RecordingSink(engine, manager.endpoint("bing-ranking"))
    injector = OpenLoopInjector(
        engine,
        sink,
        PoissonArrivals(20_000.0),
        pool=TraceGenerator(seed=seed).requests(16),
        max_queue_depth=64,
        timeout_ns=40 * MS,
    )
    return engine, sink, engine.run_until(injector.run(150)), None


SCENARIOS = {
    "echo_poisson": echo_poisson,
    "echo_bursty": echo_bursty,
    "echo_dead_ring": echo_dead_ring,
    "ranking": ranking,
}


def behaviour_digest(engine, records, stats) -> str:
    digest = hashlib.sha256()
    for arrived, outcome, resolved in records:
        digest.update(f"{arrived.hex()} {outcome} {resolved.hex()}\n".encode())
    counters = stats.to_dict()
    digest.update(" ".join(f"{key}={counters[key]}" for key in sorted(counters)).encode())
    digest.update(f"\nnow={engine.now.hex()}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_behaviour_digest_is_unchanged(name, seed):
    engine, sink, stats, leased = SCENARIOS[name](seed)
    assert len(sink.records) == stats.admitted
    if name in ("echo_poisson", "ranking"):
        assert stats.completed == stats.offered
    else:
        # The scenario exists to drive timeouts and quarantine drains.
        assert stats.timeouts > 0 and stats.completed > 0
    if leased is not None:
        # Every request that reached a deployment either got a lease or
        # timed out waiting for one.
        expiries = sum(outcome != "rejected" for _, outcome, _ in sink.records) - leased
        assert (expiries > 0) == (name == "echo_dead_ring")
    assert behaviour_digest(engine, sink.records, stats) == DIGESTS[name, seed]
