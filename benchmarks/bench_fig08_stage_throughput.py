"""Figure 8: per-stage injection throughput in PCIe and SL3 loopback.

Paper: every pipeline stage measured standalone on one FPGA, single-
and 12-threaded, requests over PCIe only vs routed through a loopback
SAS cable.  Scoring stages achieve very high rates; the pipeline is
limited by Feature Extraction's throughput.
"""

from repro.analysis import format_table
from repro.core import LoopbackMode, loopback_rig
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.sim import Engine
from repro.workloads import ClosedLoop, OpenLoopInjector, TraceGenerator

STAGES = ["fe", "ffe0", "ffe1", "compress", "score0", "score1", "score2", "spare"]


def run_experiment():
    library = ModelLibrary.default(scale=1.0)
    results = {}
    pool = [TraceGenerator(seed=41).request() for _ in range(24)]
    for stage in STAGES:
        stage_results = {}
        for mode in (LoopbackMode.PCIE, LoopbackMode.SL3):
            for threads in (1, 12):
                eng = Engine(seed=8)
                scoring = ScoringEngine(library)
                for request in pool:
                    scoring.score(request.document, library[request.document.model_id])
                rig = loopback_rig(eng, stage, scoring)
                # Pre-collected requests, no host prep in the loop.
                population = ClosedLoop(
                    mode.injection_server(rig), threads, include_prep=False
                )
                rig.meter.start_measurement()
                eng.run_until(
                    OpenLoopInjector(eng, rig, population, pool).run(threads * 12)
                )
                stage_results[(mode.value, threads)] = rig.meter.per_second
        results[stage] = stage_results
    return results


def test_fig08_per_stage_injection_throughput(benchmark, record):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    baseline = min(r[("sl3", 1)] for r in results.values())  # slowest 1-thread SL3
    rows = []
    for stage in STAGES:
        r = results[stage]
        rows.append(
            (
                stage,
                round(r[("pcie", 1)] / baseline, 2),
                round(r[("sl3", 1)] / baseline, 2),
                round(r[("pcie", 12)] / baseline, 2),
                round(r[("sl3", 12)] / baseline, 2),
            )
        )
    table = format_table(
        ["stage", "1t PCIe", "1t SL3", "12t PCIe", "12t SL3"],
        rows,
        title=(
            "Figure 8 — per-stage injection throughput, normalized to the\n"
            "slowest single-threaded SL3 stage (paper: FE is the bottleneck;\n"
            "scoring stages achieve very high rates)"
        ),
    )
    record("fig08_stage_throughput", table)

    by_stage_12t = {s: results[s][("sl3", 12)] for s in STAGES}
    assert min(by_stage_12t, key=by_stage_12t.get) == "fe"  # FE slowest
    assert by_stage_12t["score0"] > 2.0 * by_stage_12t["fe"]
    assert by_stage_12t["spare"] > by_stage_12t["fe"]
    for stage in STAGES:  # multithreading helps every stage
        assert results[stage][("pcie", 12)] > results[stage][("pcie", 1)]
