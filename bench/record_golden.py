"""Record the golden sha256 digests of every output the benchmark checks.

Usage, from the root of a checkout:

    python3 bench/record_golden.py

Runs each command any workload can issue, at both sizes and for every
seed's draw, once without tracing, and writes ``bench/golden.json``. Run it
only when a change to the printed output is intended: the digests are what
catches an output that changed by accident.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness


def main() -> int:
    golden: dict[str, str] = {}
    env = harness.child_env(0)
    harness.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=harness.WORK))
    try:
        for size in ("full", "smoke"):
            for name, cls in harness.WORKLOADS.items():
                workload = cls(harness.SIZES[size][name], 0, workdir)
                workload.setup()
                commands = workload.commands()
                if isinstance(workload, harness.CliCacheSession):
                    live = str(workload.live)
                    commands = [
                        harness.Command("cli", tuple(key.split()) + ("--cache", live), key)
                        for key in workload.expected
                    ]
                for command in commands:
                    if command.key in golden:
                        continue
                    workload.begin_repeat()
                    result = harness.run_child(harness.child_argv(command, None), env, workdir)
                    if result.code != 0:
                        print(f"error: {command.key} exited {result.code}", file=sys.stderr)
                        return 1
                    golden[command.key] = harness.sha256(result.stdout)
                print(f"{size} {name}: {len(golden)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(harness.GOLDEN, "w", encoding="ascii") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
