"""Run one workload of the hodgetrees benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json. With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it also runs traced
repeats and reports the per-layer metrics. The next-to-last line of
standard output is a JSON report (Python version, git revision, nproc,
seed, exact counts, named failures); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hodgetrees" / "__init__.py").is_file():
        print(f"error: no hodgetrees sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    metrics, report = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    for failure in report["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps(report))
    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
