"""One workload episode in a fresh process: set up, measure, check.

``run.py`` starts this script once per episode, so every episode pays
its own interpreter start, imports and set-up, and peak memory belongs
to one workload.  The episode prints one JSON object on its last line.

    python3 perfbench/episode.py --workload echo_steady --seed 1 \\
        --spawned <time.monotonic() at spawn> --out .perfbench_out [--trace]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
US_PER_S = 1e6


def check_provenance() -> None:
    """Refuse to measure any ``repro`` but the one in this checkout."""
    import repro

    expected = ROOT / "src" / "repro" / "__init__.py"
    actual = pathlib.Path(repro.__file__).resolve()
    if actual != expected:
        raise SystemExit(f"repro resolves to {actual}, not {expected}")


def _quantile(values: list, q: float) -> float:
    from workloads import quantile

    return quantile(sorted(values), q) if values else 0.0


def layer_metrics(tracer, before: dict, sc, m, offered: int) -> dict:
    """Per-layer figures of the measured phase, from two tracer snapshots."""
    after = tracer.snapshot()

    def delta(name: str, field: int) -> float:
        now = after["stats"].get(name, [0, 0.0, 0.0])[field]
        then = before["stats"].get(name, [0, 0.0, 0.0])[field]
        return now - then

    def calls(name):
        return delta(name, 0)

    def inclusive(name):
        return delta(name, 1)

    def self_s(*names):
        return sum(delta(name, 2) for name in names)

    def family(prefix):
        return [name for name in after["stats"] if name.startswith(prefix)]

    def count(name):
        return after["counts"].get(name, 0) - before["counts"].get(name, 0)

    def measured_sim(name):
        return tracer.sim_ns.get(name, [])[before["sim_ns"].get(name, 0):]

    def per_req_us(seconds):
        return seconds * US_PER_S / offered

    lease_waits = measured_sim("lease_wait")
    stats = sc.traffic.stats
    fluid = sc.engine.fluid
    covered = after["covered"] - before["covered"]
    at_setup = before["stats"]
    return {
        "sim.timeouts_per_req": count("Engine.timeout") / offered,
        "sim.processes_per_req": count("Engine.process") / offered,
        "sim.store_ops_per_req": count("Store.ops") / offered,
        "sim.self_us_per_req": per_req_us(m.host_s - covered),
        "sim.dropped_per_req": m.dropped / offered,
        "sim.peak_queue": sc.engine.peak_queue_length,
        "sim.nested_runs": after["nested_runs"] - before["nested_runs"],
        "workloads.injector_us_per_req": per_req_us(
            self_s("proc:openloop.src", "proc:_handle")
        ),
        "cluster.endpoint_us_per_req": per_req_us(self_s("ServiceEndpoint.submit")),
        "cluster.balancer_us_per_req": per_req_us(
            self_s("LoadBalancer.submit") + inclusive("LoadBalancer.pick")
        ),
        "cluster.deployment_us_per_req": per_req_us(self_s("Deployment.submit")),
        "cluster.lease_wait_sim_us_p99": _quantile(lease_waits, 0.99) / 1e3,
        "cluster.lease_waited_frac": (
            sum(1 for w in lease_waits if w > 0) / len(lease_waits) if lease_waits else 0.0
        ),
        "cluster.timeouts_per_kreq": 1e3 * stats.timeouts / offered,
        "cluster.rejected_per_kreq": 1e3 * stats.rejected / offered,
        "cluster.apply_ms": 1e3 * at_setup.get("ClusterManager.apply", [0, 0.0])[1],
        "cluster.reconcile_calls": calls("ClusterManager.reconcile"),
        "cluster.reconcile_ms": 1e3 * inclusive("ClusterManager.reconcile"),
        "cluster.upgrade_ms": 1e3 * inclusive("ClusterManager.upgrade"),
        "cluster.metrics_samples": calls("MetricsRegistry.sample"),
        "cluster.metrics_sample_ms": 1e3 * inclusive("MetricsRegistry.sample"),
        "services.deploy_calls": after["stats"].get("MappingManager.deploy", [0])[0],
        "services.deploy_ms": 1e3 * after["stats"].get("MappingManager.deploy", [0, 0.0])[1],
        "fabric.service_ring_ms": 1e3 * inclusive("Datacenter.service_ring"),
        "fabric.core_wait_sim_us_p99": _quantile(measured_sim("Server.run_on_core"), 0.99) / 1e3,
        "host.request_us_per_req": per_req_us(self_s("SlotLease.request")),
        "host.request_sim_us_p50": _quantile(measured_sim("SlotLease.request"), 0.5) / 1e3,
        "host.fill_wait_sim_us_p99": _quantile(measured_sim("fill_wait"), 0.99) / 1e3,
        "shell.router_submits_per_req": calls("Router.submit") / offered,
        "shell.router_us_per_req": per_req_us(self_s("Router.submit")),
        "shell.fdr_records_per_req": calls("FlightDataRecorder.record") / offered,
        "shell.fdr_us_per_req": per_req_us(inclusive("FlightDataRecorder.record")),
        "shell.dma_per_req": count("PcieCore.dma_time_ns") / offered,
        "shell.pcie_us_per_req": per_req_us(
            self_s("HostDmaBuffers.fill_input", "HostDmaBuffers.consume_output",
                   *family("proc:pcie."))
        ),
        "shell.sl3_sends_per_req": calls("Sl3Endpoint.send") / offered,
        "shell.sl3_us_per_req": per_req_us(
            self_s("Sl3Endpoint.send", *family("proc:sl3."), "proc:feed")
        ),
        "shell.role_us_per_req": per_req_us(self_s("Role.handle", *family("proc:role."))),
        "shell.role_sim_us_p50": _quantile(measured_sim("Role.handle"), 0.5) / 1e3,
        "ranking.score_calls_per_req": calls("ScoringEngine.score") / offered,
        "ranking.score_us_per_req": per_req_us(self_s("ScoringEngine.score")),
        "ranking.ffe_us_per_req": per_req_us(inclusive("FfeProcessor.execute")),
        "hardware.synthesize_ms": 1e3 * after["stats"].get("synthesize", [0, 0.0])[1],
        "analysis.reservoir_appends_per_req": calls("ReservoirSample.append") / offered,
        "analysis.reservoir_us_per_req": per_req_us(inclusive("ReservoirSample.append")),
        "fluid.covered_frac": (fluid.covered_arrivals / offered) if fluid else 0.0,
        "fluid.windows": fluid.windows if fluid else 0,
        "trace.coverage_frac": covered / m.host_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark episode")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--burn", default="",
                        help="module:Class.method=SECONDS: busy-wait added to every call "
                        "of one repro function (sensitivity self-test)")
    args = parser.parse_args(argv)

    check_provenance()
    import tracer as tracing
    import workloads

    if args.burn:
        target, seconds = args.burn.split("=")
        tracing.inject_cost(target, float(seconds))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    args.out.mkdir(parents=True, exist_ok=True)
    sc = workloads.setup(args.workload, args.seed, args.out)
    before = tracer.snapshot() if tracer is not None else None
    setup_s = time.monotonic() - args.spawned
    m = workloads.measure(sc)
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, before, sc, m, max(1, sc.traffic.stats.offered))
    result = workloads.summarize(sc, m)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = layers
        result["host_layers"] = {
            name: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
            for name, v in sorted(tracer.stats.items())
        }
        spans = args.out / f"spans_{args.workload}_seed{args.seed}.jsonl"
        result["spans_written"] = tracer.write(spans)
        tracer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sys.exit(main())
