"""Benchmark of the real serving stack: one command, one workload.

    python3 perfbench/run.py --workload echo_steady --seed 1 --seconds 25 --trace 0

Runs the workload as a series of episodes, each in a fresh
single-threaded process (``episode.py``), one after another.  The
number of episodes follows from ``--seconds`` and the workload's
nominal episode length in ``spec.json`` alone, never from how fast the
code under test runs, so two versions of the code are compared on the
same statistic.  Every episode of a run uses the same seed, so every
episode must reproduce the same simulated figures exactly; a mismatch
fails the run.

``--trace 0`` reports the end-to-end metrics: ``req_per_host_s`` from
the fastest episode's time for each chunk of the measured phase, host
times scaled by a reference kernel timed beside them (see
:func:`phase_rate`), and medians of the other host figures.  ``--trace 1``
alternates untraced and traced episodes and reports the per-layer
metrics of the traced ones, plus the tracing overhead against the
untraced ones.  The traced episodes must simulate exactly what the
untraced ones do.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the sample counts behind each latency figure and the provenance of
the run; the same record is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # a run must exit within 180 s
MIN_EPISODES = 3

SPEC = json.loads((HERE / "spec.json").read_text())
REFERENCE_S = SPEC["reference_s"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def source_digest() -> str:
    """SHA-256 over the ``repro`` sources, so a result names its code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def episode(workload: str, seed: int, trace: bool, budget_s: float, burn: str = "") -> dict:
    """Run one episode in a fresh process and return its record."""
    options = ["--trace"] if trace else []
    if burn:
        options += ["--burn", burn]
    done = subprocess.run(
        [
            sys.executable, str(HERE / "episode.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(OUT),
            *options, "--spawned", repr(time.monotonic()),
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=budget_s,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"episode failed ({done.returncode}):\n{done.stderr.strip()[-2000:]}"
        )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["traced"] = trace
    return record


def episode_count(workload: str, seconds: float) -> int:
    """Untraced episodes in a run of ``seconds``, fixed by the arguments."""
    return max(MIN_EPISODES, round(seconds / SPEC["workloads"][workload]["episode_s"]))


def run_episodes(workload: str, seed: int, seconds: float, trace: bool, burn: str = "") -> list:
    """The run's episodes back to back: ``episode_count`` untraced ones,
    or with ``trace`` a third as many untraced/traced pairs (a traced
    episode takes about twice as long)."""
    count = episode_count(workload, seconds)
    plan = [False, True] * max(1, count // 3) if trace else [False] * count
    started = time.monotonic()
    return [
        episode(workload, seed, traced, DEADLINE_S - (time.monotonic() - started), burn)
        for traced in plan
    ]


def rolling_median(values: list, width: int = 5) -> list:
    half = width // 2
    return [statistics.median(values[max(0, i - half):i + half + 1]) for i in range(len(values))]


def scaled_chunks(record: dict) -> list:
    """The record's chunk times, each scaled to a host that runs the
    reference kernel in ``REFERENCE_S``, by the median time of the kernel
    runs after the chunk and its two neighbours on either side."""
    reference = rolling_median(record["reference_s"])
    return [c * REFERENCE_S / r for c, r in zip(record["chunk_s"], reference)]


def phase_rate(records: list) -> float:
    """Requests offered per scaled host second of one measured phase,
    each chunk of the phase taken from its fastest run among the
    same-seed ``records``.

    Other tenants of a shared host slow it by tens of percent, in spells
    from milliseconds to minutes.  Scaling each chunk by the reference
    kernel beside it removes the long spells, and every record replays
    the same simulation, so the fastest copy of each chunk removes the
    short ones."""
    chunks = [scaled_chunks(r) for r in records]
    if len({len(c) for c in chunks}) != 1:
        raise RuntimeError("same-seed episodes split into different chunk counts")
    return records[0]["offered"] / sum(map(min, zip(*chunks)))


def scaled_setup(record: dict) -> float:
    """Set-up seconds scaled by the episode's median reference time."""
    return record["setup_s"] * REFERENCE_S / statistics.median(record["reference_s"])


def sim_signature(record: dict) -> str:
    return json.dumps(record["sim"], sort_keys=True)


def summarize(workload: str, records: list, trace: bool) -> tuple[dict, list]:
    """The result object and the human-readable lines before it."""
    params = SPEC["workloads"][workload]
    lines = []
    attempted = sum(r["offered"] for r in records)
    failed = sum(r["offered"] if r["problems"] else r["unresolved"] for r in records)
    for index, record in enumerate(records):
        for problem in record["problems"]:
            lines.append(f"check failed (episode {index}): {problem}")
    signatures = {sim_signature(r) for r in records}
    if len(signatures) != 1:
        lines.append("check failed: same-seed episodes disagree on sim_* / events_per_req")
        for record in records:
            lines.append(f"  traced={record['traced']}: {sim_signature(record)}")
        failed = attempted
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    first = records[0]
    sim = first["sim"]
    if trace:
        metrics = {}
        for name, unit in units("per_layer").items():
            if name == "trace.overhead_frac":
                value = phase_rate(traced) / phase_rate(untraced) - 1.0
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        lines.append("per-layer metrics (traced episodes; host times include tracing):")
        for name in sorted(traced[0]["layers"]):
            lines.append(f"  {name:36s} {statistics.median(r['layers'][name] for r in traced)!r}")
    else:
        values = {
            "req_per_host_s": phase_rate(untraced),
            "events_per_req": sim["events_per_req"],
            "setup_s": statistics.median(scaled_setup(r) for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "sim_p50_us": sim["sim_p50_us"],
            "sim_p99_us": sim["sim_p99_us"],
            "sim_goodput_per_s": sim["sim_goodput_per_s"],
            "sim_slo_met_frac": sim["sim_slo_met_frac"],
        }
        unit = units("end_to_end")
        metrics = {name: {"value": values[name], "unit": unit[name]} for name in values}
        counts = {
            "sim_p50_us": f"  (over {first['samples']} completions)",
            "sim_p99_us": f"  (over {first['samples']} completions, {first['beyond_p99']} beyond it)",
            "sim_slo_met_frac": f"  (latency limit {params['latency_limit_us']} us)",
        }
        for name, value in values.items():
            lines.append(f"{name:18s} {value!r} {unit[name]}{counts.get(name, '')}")
    lines.append(
        f"requests: offered {first['offered']} admitted {first['admitted']} "
        f"rejected {first['rejected']} completed {first['completed']} "
        f"timeouts {first['timeouts']} per episode; {len(untraced)} untraced and "
        f"{len(traced)} traced episodes"
    )
    lines.append(
        "arrivals are scheduled exactly in simulated time, so the generator never runs late; "
        "sim_* figures come from an unvalidated model (no error figure)"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}: nothing to measure", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    records = run_episodes(args.workload, args.seed, args.seconds, trace)
    result, lines = summarize(args.workload, records, trace)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "episodes": len(records),
    }
    record_path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(
        json.dumps({"provenance": provenance, "result": result, "episodes": records}) + "\n"
    )
    for line in lines:
        print(line)
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
