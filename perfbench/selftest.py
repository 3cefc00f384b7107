"""Sensitivity self-test: a slower layer must register in the benchmark.

    python3 perfbench/selftest.py [--seed 1]

Adds a fixed 60 us busy-wait to every ``Router.submit`` call and shows
four things about the figures ``run.py`` reports, exiting non-zero if
any fails:

1. ``req_per_host_s`` on ``echo_steady`` falls by more than its bound
   in ``BENCHMARK.json``;
2. the traced run attributes the added time to
   ``shell.router_us_per_req``;
3. the relative drop on ``ranking``, where routing is a smaller share
   of host time, is smaller;
4. every ``sim_*`` figure and ``events_per_req`` stay exactly equal.

Each workload runs four whole runs of ``run_seconds`` in the order
plain, slowed, slowed, plain, so a linear drift in machine speed hits
both sides alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import BENCHMARK, OUT, run_episodes, sim_signature, summarize

TARGET = "repro.shell.router:Router.submit"
BURN_US = 60.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    burn = f"{TARGET}={BURN_US / 1e6!r}"
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "req_per_host_s")
    signatures: dict[str, set] = {}

    def run(workload, trace=False, slowed=False):
        records = run_episodes(
            workload, args.seed, BENCHMARK["run_seconds"], trace, burn if slowed else ""
        )
        signatures.setdefault(workload, set()).update(sim_signature(r) for r in records)
        result, _ = summarize(workload, records, trace)
        if not result["correct"]:
            raise SystemExit(f"{workload}: the run's own output checks failed")
        return {name: metric["value"] for name, metric in result["metrics"].items()}

    drops = {}
    for workload in ("echo_steady", "ranking"):
        plain, slow = [], []
        for side in (plain, slow, slow, plain):
            side.append(run(workload, slowed=side is slow)["req_per_host_s"])
        drops[workload] = 1.0 - statistics.median(slow) / statistics.median(plain)
        print(f"{workload}: req_per_host_s {statistics.median(plain):.1f} plain, "
              f"{statistics.median(slow):.1f} slowed: drop {drops[workload]:.1%}")
    traced = run("echo_steady", trace=True)
    traced_slow = run("echo_steady", trace=True, slowed=True)

    added_us = BURN_US * traced_slow["shell.router_submits_per_req"]
    router_gain = traced_slow["shell.router_us_per_req"] - traced["shell.router_us_per_req"]
    print(f"traced: shell.router_us_per_req +{router_gain:.1f} us for {added_us:.1f} us added")

    checks = {
        f"echo_steady drop {drops['echo_steady']:.1%} exceeds the bound {bound:.0%}":
            drops["echo_steady"] > bound,
        f"the router span absorbs the added time ({router_gain:.1f} of {added_us:.1f} us)":
            0.8 * added_us <= router_gain <= 1.5 * added_us,
        f"ranking drop {drops['ranking']:.1%} is smaller than echo_steady's":
            drops["ranking"] < drops["echo_steady"],
        "sim_* and events_per_req identical across every episode of each workload":
            all(len(found) == 1 for found in signatures.values()),
    }
    for claim, held in checks.items():
        print(("ok   " if held else "FAIL ") + claim)
    print(json.dumps({"drops": drops, "router_gain_us": router_gain, "added_us": added_us}))
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
