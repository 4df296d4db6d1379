"""Smoke self-test of the benchmark: every workload, untraced and traced, at
tiny sizes. It checks the shape of each result line, that the outputs were
correct, and that every metric BENCHMARK.json names appears with its unit.

Run from the repository root (about 20 s):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import numbers
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    """The result object of one smoke run, and the report lines before it."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def problems_in(result: dict, report: list[str], declared: list[dict],
                end_to_end: bool) -> list[str]:
    """What is wrong with one run. A per-layer metric may be absent when the
    run reports it missing because an internal name it needs has moved."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not counts")
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    got = result["metrics"]
    for metric in declared:
        m = got.get(metric["name"])
        if m is None:
            if end_to_end or not any(line.startswith(f"{metric['name']}: missing")
                                     for line in report):
                problems.append(f"{metric['name']} missing")
        elif m["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} in {m['unit']}, declared {metric['unit']}")
        elif not isinstance(m["value"], numbers.Real) or (end_to_end and m["value"] == 0):
            problems.append(f"{metric['name']} = {m['value']!r}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                problems = problems_in(*run(workload["name"], trace), spec[key], trace == 0)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            status = "FAIL" if problems else "PASS"
            print(f"{status} {workload['name']} trace={trace}"
                  + "".join(f"\n    {p}" for p in problems))
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
