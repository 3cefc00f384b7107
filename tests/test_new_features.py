"""Tests for the neural scorer, watchdog, and trace replay."""

import pytest

from repro.analysis import replay_trace
from repro.cluster import ClusterManager, ServiceSpec, echo_service
from repro.fabric import CrashSeverity, Datacenter, Pod, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary, synthesize_model
from repro.ranking.scoring import NeuralScorer
from repro.sim import Engine, SEC
from repro.workloads import TraceGenerator


# --- neural scorer ---------------------------------------------------------------


def small_mlp():
    return NeuralScorer(
        weights=[[0.5, -0.25], [0.1, 0.9], [-0.4, 0.2], [0.3, 0.3]],
        hidden_bias=[0.0, 0.1, -0.1, 0.2],
        output_weights=[1.0, -0.5, 0.25, 0.75],
        output_bias=0.125,
    )


def test_mlp_banks_sum_to_full_score():
    scorer = small_mlp()
    packed = [1.5, -0.75]
    total = sum(scorer.evaluate_bank(i, packed) for i in range(3))
    assert total == pytest.approx(scorer.evaluate(packed))


def test_mlp_output_bias_rides_bank_two():
    scorer = small_mlp()
    zero_input = [0.0, 0.0]
    bank2_only = scorer.evaluate_bank(2, zero_input)
    # With zero input, tanh(bias) terms remain; the output bias is in
    # bank 2 exactly once.
    assert scorer.evaluate(zero_input) == pytest.approx(
        sum(scorer.evaluate_bank(i, zero_input) for i in range(3))
    )
    assert bank2_only != scorer.evaluate_bank(0, zero_input)


def test_mlp_validation():
    with pytest.raises(ValueError):
        NeuralScorer(weights=[], hidden_bias=[], output_weights=[])
    with pytest.raises(ValueError):
        NeuralScorer(weights=[[1.0]], hidden_bias=[0.0, 1.0], output_weights=[1.0])
    with pytest.raises(ValueError):
        small_mlp().evaluate_bank(3, [0.0])


def test_mlp_model_scores_end_to_end():
    model = synthesize_model(
        5, "mlp-model", seed=11, metafeatures=6, stage1_expressions=30,
        trees=40, scorer_kind="mlp",
    )
    assert isinstance(model.scorer, NeuralScorer)
    engine = ScoringEngine(ModelLibrary([model]))
    request = TraceGenerator(seed=12).request()
    score = engine.score(request.document, model)
    partials = sum(engine.bank_partial(request.document, model, b) for b in range(3))
    assert partials == pytest.approx(score)
    assert model.footprint.scoring_bytes[0] > 0


def test_unknown_scorer_kind_rejected():
    with pytest.raises(ValueError):
        synthesize_model(6, "bad", scorer_kind="svm")


# --- watchdog --------------------------------------------------------------------------


def crashed_spare_after_two_minutes(stop_watchdog_first: bool):
    """Transiently crash one ring spare of a managed echo service and
    return the server after 120 s of simulated time."""
    eng = Engine(seed=53)
    datacenter = Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=3))
    manager = ClusterManager(datacenter)
    handle = manager.apply(
        ServiceSpec(service=echo_service(), replicas=1, health_period_ns=5 * SEC)
    )
    if stop_watchdog_first:
        handle.stop_watchdog()
    deployment = handle.deployments[0]
    victim = deployment.pod.server_at(deployment.assignment.spare_nodes[0])
    victim.crash(CrashSeverity.TRANSIENT)
    eng.run(until=eng.now + 120 * SEC)
    return victim


def test_watchdog_recovers_crashed_server_automatically():
    victim = crashed_spare_after_two_minutes(stop_watchdog_first=False)
    assert victim.is_responsive  # soft-rebooted by the service's watchdog
    assert victim.reboot_count == 1
    unwatched = crashed_spare_after_two_minutes(stop_watchdog_first=True)
    assert not unwatched.is_responsive
    assert unwatched.reboot_count == 0


# --- trace replay -----------------------------------------------------------------------


def test_replay_reconstructs_packet_path():
    eng = Engine(seed=56)
    pod = Pod(eng, topology=TorusTopology(width=4, height=2))
    pod.release_all_rx_halts()
    from repro.host.slots import SlotLease, shared_slot_allocator
    from repro.shell import Role

    class Echo(Role):
        name = "echo"

        def handle(self, packet):
            yield self.shell.engine.timeout(100.0)
            yield self.send(packet.response_to(16, "done"))

    pod.server_at((2, 0)).shell.attach_role(Echo())
    server = pod.server_at((0, 0))
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    trace_ids = []

    def thread():
        response = yield from lease.request(dst=(2, 0), size_bytes=2048)
        trace_ids.append(response.trace_id)

    eng.process(thread())
    eng.run()
    replay = replay_trace(pod, trace_ids[0])
    # Request: (0,0)->(1,0)->(2,0); response retraces. >= 4 sightings.
    assert replay.hop_count >= 4
    visited = [step.node_id for step in replay.steps]
    assert visited[0] == (0, 0)
    assert (2, 0) in visited
    assert replay.total_latency_ns > 0
    assert "trace" in replay.format()
    assert replay.stalls(threshold_ns=1e12) == []  # nothing hung


def test_replay_exposes_stall_at_hung_stage():
    eng = Engine(seed=57)
    pod = Pod(eng, topology=TorusTopology(width=4, height=2))
    pod.release_all_rx_halts()
    from repro.host.slots import SlotLease, shared_slot_allocator
    from repro.shell import Role

    class SlowRole(Role):
        name = "slow"

        def handle(self, packet):
            yield self.shell.engine.timeout(5_000_000.0)  # a 5 ms "hang"
            yield self.send(packet.response_to(16, "late"))

    pod.server_at((2, 0)).shell.attach_role(SlowRole())
    server = pod.server_at((0, 0))
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    trace_ids = []

    def thread():
        response = yield from lease.request(dst=(2, 0), size_bytes=1024)
        trace_ids.append(response.trace_id)

    eng.process(thread())
    eng.run()
    replay = replay_trace(pod, trace_ids[0])
    stalls = replay.stalls(threshold_ns=1_000_000.0)
    assert stalls  # the hang shows up as a gap
    _before, after, gap = stalls[0]
    assert gap >= 5_000_000.0 * 0.9
