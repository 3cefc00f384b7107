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
  requests time out and the quarantine drain runs.
* ``ranking``: ``ranking_spec`` at model scale 0.1 on one 2x8 ring.

A change that moves behaviour on purpose re-pins these with its cause.
"""

import hashlib

import pytest

from repro.cluster import ClusterManager, ServiceSpec, echo_service
from repro.cluster.load_balancer import NoHealthyDeployment
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
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


def _echo_run(seed, arrivals, timeout_ns, max_queue_depth, count):
    engine = Engine(seed=seed)
    manager = ClusterManager(
        Datacenter(engine, num_pods=1, topology=TorusTopology(width=3, height=3))
    )
    manager.apply(
        ServiceSpec(
            service=echo_service(delay_ns=20 * US),
            replicas=2,
            request_timeout_ns=timeout_ns,
        )
    )
    sink = RecordingSink(engine, manager.endpoint("echo-service"))
    injector = OpenLoopInjector(
        engine,
        sink,
        arrivals,
        pool=list(range(16)),
        max_queue_depth=max_queue_depth,
        timeout_ns=timeout_ns,
    )
    return engine, sink, engine.run_until(injector.run(count))


def echo_poisson(seed):
    return _echo_run(seed, PoissonArrivals(60_000.0), 40 * MS, 256, 1_500)


def echo_bursty(seed):
    arrivals = BurstyArrivals(30_000.0, 150_000.0, period_s=0.02, duty=0.5)
    return _echo_run(seed, arrivals, 2 * MS, None, 2_500)


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
    return engine, sink, engine.run_until(injector.run(150))


SCENARIOS = {"echo_poisson": echo_poisson, "echo_bursty": echo_bursty, "ranking": ranking}


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
    engine, sink, stats = SCENARIOS[name](seed)
    assert len(sink.records) == stats.admitted
    if name == "echo_bursty":
        # The scenario exists to drive timeouts and quarantine drains.
        assert stats.timeouts > 0 and stats.completed > 0
    else:
        assert stats.completed == stats.offered
    assert behaviour_digest(engine, sink.records, stats) == DIGESTS[name, seed]
