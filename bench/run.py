"""gwspeed benchmark: analytic speed rows and sweeps, and Monte Carlo walks.

Run from the repository root:

    python3 bench/run.py --workload analytic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

`--trace 0` times the end-to-end calls and prints the end-to-end metrics,
with timings scaled to a fixed host speed (see workloads.py); `--trace 1` records spans around every call into the library's layers and
prints the per-layer metrics. `--workload all` runs every workload, each in
its own process, and prints every metric. `--smoke` shrinks every size so a
run takes seconds. Report lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The program is imported from ./src of the checkout, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("analytic", "walk_many", "walk_long")
# fresh-interpreter set-ups timed before and after the timed loop, so that
# the median of the nine spans two moments of the run
SETUP_SAMPLES = (5, 4)
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def use_checkout_sources() -> None:
    """Put ./src first on the path and refuse any other gwspeed."""
    package = SRC / "gwspeed"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no gwspeed sources at {package}")
    sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("gwspeed")
    if found is None or Path(found.origin).resolve().parent != package.resolve():
        raise SystemExit(f"error: gwspeed does not resolve to {package}")


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.machine(),
             "llc": "unknown", "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        if levels:
            level, size = max(levels)
            facts["llc"] = f"L{level} {size}"
    except (OSError, ValueError):
        pass
    return facts


def setup_child(args) -> int:
    """Set a workload up in this fresh interpreter, then say so."""
    t0 = time.perf_counter()
    import gwspeed.cli  # noqa: F401  (timed: the first import of the program)

    import_s = time.perf_counter() - t0
    import workloads

    workloads.setup(args.workload, args.seed, args.smoke)
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def time_setup(args, samples: int) -> tuple[list, list[float]]:
    """Seconds from starting a fresh interpreter until it has set the
    workload up, as workloads.Sample, and its import time of gwspeed, once
    per sample."""
    import workloads as wl

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    setups, imports = [], []
    for _ in range(samples):
        proc = None
        try:
            with wl.host_scaled(setups):
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                        text=True, cwd=ROOT)
                line = proc.stdout.readline()
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up process failed: {err.strip()}")
        imports.append(json.loads(line)["import_s"])
    return setups, imports


def why_of(workload: str) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), "")


def print_report(lines: dict) -> None:
    for name, value in lines.items():
        if isinstance(value, tuple):
            value, unit = value
            value = f"{value:.6g} {unit}" if isinstance(value, float) else f"{value} {unit}"
        print(f"{name}: {value}")


def run_one(args) -> dict:
    import workloads as wl

    facts = machine_facts()
    before, after = (1, 1) if args.smoke else SETUP_SAMPLES
    setups, imports = time_setup(args, before)
    plan = wl.setup(args.workload, args.seed, args.smoke)
    tally = wl.Tally()
    outcomes = wl.robustness_probe()
    if args.trace:
        import layers

        values, report = layers.traced_run(plan, args.seconds, tally, median(imports), outcomes)
        metrics = {name: (values[name], unit) for name, (unit, _, _) in layers.LAYER_MAP.items()
                   if values[name] is not None}
        for name, (unit, target, where) in layers.LAYER_MAP.items():
            shown = "missing (the internal name it needs has moved)" if values[name] is None \
                else f"{values[name]:.6g} {unit}"
            report[name] = f"{shown} -> {target} on {where}"
    else:
        result = wl.run(plan, args.seconds, tally)
        metrics, report = wl.end_to_end(plan, result)
        report |= {k: v for k, v in result.items() if k in ("rounds", "slots")}
    wl.one_off_checks(plan, tally)
    more_setups, more_imports = time_setup(args, after)
    setups += more_setups
    imports += more_imports
    if not args.trace:
        metrics["setup_s"] = (median(x.scaled for x in setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    failures = sum(1 for _, outcome in outcomes if outcome != "ok")
    head = {
        "workload": f"{args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace},"
                    f" one process, closed loop)",
        "why": why_of(args.workload),
        "machine": "; ".join(f"{k}={v}" for k, v in facts.items()),
        "setup_s samples": "wall " + ", ".join(f"{x.wall:.4f}" for x in setups)
                           + "; scaled " + ", ".join(f"{x.scaled:.4f}" for x in setups),
        "failed_frac": ((tally.failed + failures) / (tally.attempted + len(outcomes)),
                        f"of {tally.attempted + len(outcomes)} operations, counting the "
                        f"{len(outcomes)} robustness inputs"),
    }
    for label, outcome in outcomes:
        head[f"robustness[{label}]"] = outcome
    for i, note in enumerate(tally.notes[:20]):
        head[f"failed operation {i}"] = note
    print_report(head | report)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process; metric names get a workload prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} failed: {done.stderr.strip()}")
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    if args.setup_child:
        return setup_child(args)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
