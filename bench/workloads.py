"""The three benchmark workloads: seeded inputs, closed request loops, output
checks and the end-to-end metrics.

Each workload runs in one process with no threads. A closed loop sends
the next request only after the previous one has returned, and starts a
new round of the workload's mix only while the last round's duration still
fits before the deadline, so a run ends near its stated length.

Timings are scaled to a fixed host speed. The shared two-core host this was
tuned on slows all interpreted code 1.3 to 2 fold, in episodes lasting from
seconds to minutes, and CPU time slows with wall time, so no statistic of
one run's wall times can tell a slower program from a slower host. So a
fixed mix of small pure-Python kernels (`host_ref`) runs a few times just
before and after every timed call and, from an interval timer, every 30 ms
inside it. Each reference run gives the host's speed at that moment as
REF_NOMINAL_S over its time, and a call's scaled time is its wall time
times the mean of those speeds: the time the call would take on a host
where the reference mix always takes REF_NOMINAL_S. The program's code
is never in the reference mix, so a change to the program moves these
figures as it moves wall time. Each request kind (a law, or a walk
setting) is summarised by the median of its scaled samples.
Medians and tails are printed as report lines. This module calls only names exported by
``gwspeed.__all__`` and ``gwspeed.cli.run``.
"""

from __future__ import annotations

import gc
import io
import math
import random
import signal
import time
from contextlib import contextmanager, redirect_stderr
from dataclasses import dataclass, field
from statistics import mean, median

import numpy as np

import gwspeed
from gwspeed import (
    PercolatedModel,
    backbone_speed,
    check_condition,
    cluster_speed,
    estimate_speed,
    mean_delay,
    parse_law,
    pgf_derivative,
    pipes_speed,
    simulate_pipes,
    sweep,
)
from gwspeed.cli import run as cli_run

_USED = ("PercolatedModel", "backbone_speed", "check_condition", "cluster_speed",
         "estimate_speed", "mean_delay", "parse_law", "pgf_derivative",
         "pipes_speed", "simulate_pipes", "sweep")
_missing = sorted(set(_USED) - set(gwspeed.__all__))
if _missing:
    raise ImportError(f"the end-to-end path needs exported names, not {_missing}")

WORKLOADS = ("analytic", "walk_many", "walk_long")

ROW_LAWS = ("pmf:0,0,1", "poisson:2", "geometric:0.6667", "binomial:3,0.8")
PMF20 = ("pmf:0.05,0.1,0.1,0.1,0.08,0.08,0.07,0.06,0.06,0.05,0.05,0.04,0.04,"
         "0.03,0.03,0.02,0.02,0.01,0.005,0.005")
SWEEP_LAWS = ("pmf:0,0,1", "poisson:2", "geometric:0.6667", "binomial:3,0.8",
              "binomial:40,0.1", PMF20)
LARGE_SUPPORT = ("binomial:40,0.1", PMF20)
# Inputs that fail today. They run once per run, untimed, and are reported
# apart from the workload's own operations.
ROBUSTNESS = (("binomial:400,0.5", 0.5), ("poisson:200", 0.5), ("poisson:2", 0.5000001))

Z_GATE = 5.0
RESIDUAL_TOL = 1e-10
# A slot is one `speed` row of each row law and one sweep, about 0.35 s, so
# a 30-s run gives each sweep law about ten sweeps to take the median
# of.
ROWS_PER_SWEEP = len(ROW_LAWS)
GRID_POINTS = 40
# The reference mix (`host_ref`): about 0.6 ms on an idle core of the
# 2-vCPU host this was tuned on, and up to 1.2 ms under contention. Inside a
# call it costs about 2% of the wall time, the same share on every commit.
REF_NOMINAL_S = 600e-6
REF_INTERVAL_S = 0.03
REF_BRACKET = 3


@dataclass(frozen=True)
class Walk:
    """One Monte Carlo setting: `estimate_speed` on (law, p), or pipes."""

    law: str
    p: float
    horizon: int
    replicas: int

    @property
    def steps(self) -> int:
        return self.horizon * self.replicas

    def label(self) -> str:
        return f"{self.law} p={self.p}"


PIPES = "pipes"
# Replica counts keep the finite-horizon bias well inside the |z| <= 5 gate.
# At horizon 1e4 the estimates run high by about 0.1 replica standard
# deviations for poisson:2 p=0.8 and 0.2 for pipes. The trap-heavy
# poisson:2 p=0.6 runs high by 0.35 (z near 3.5 at 100 replicas), so it
# runs at horizon 1e5. Each call takes 0.5 to 2 s, so a run makes several
# calls of every setting.
WALK_MANY = (Walk("pmf:0,0,1", 0.75, 10**4, 100), Walk("poisson:2", 0.8, 10**4, 100),
             Walk("poisson:2", 0.6, 10**5, 16), Walk(PIPES, 0.8, 10**4, 32))
# Two replicas a call, about 6 s, and at least five calls a run, so a run
# samples its throughput several times. With few replicas z follows
# Student's t, so calls with fewer than POOL_BELOW replicas are gated once a
# run on all their replicas pooled: at 10 replicas |z| > 5 happens by chance
# in about one run in 1350.
WALK_LONG = (Walk("pmf:0,0,1", 0.9, 10**6, 2),)
WALK_LONG_MIN_CALLS = 5
POOL_BELOW = 8
SMOKE_HORIZON, SMOKE_REPLICAS = 2000, 8


def pipes_speed_derived(p: float) -> float:
    """The pipes speed from the backbone/trap-delay argument."""
    return (2 * p - 1) ** 2 * (1 - p) / (-4 * p**3 + 10 * p**2 - 7 * p + 3)


def fmt12(x) -> str:
    """A value as the CLI prints it: 12 significant digits, lower-case bools."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(x, ".12g")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class Tally:
    """Operations attempted and failed; a failed check never aborts the run."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, label: str, fn):
        """Run one operation; `fn` returns the list of checks that failed."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception as exc:  # counted as a failed operation, never fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.notes.append(f"{label}: {'; '.join(problems)}")


@dataclass
class Plan:
    """Everything built before the first timed call."""

    workload: str
    seed: int
    smoke: bool
    laws: dict
    walks: tuple = ()
    models: dict = field(default_factory=dict)
    analytic: dict = field(default_factory=dict)
    rng: np.random.Generator | None = None
    rows_per_sweep: int = 0
    min_rounds: int = 1
    grid_points: int = 0
    conditions: dict = field(default_factory=dict)

    def condition(self, spec: str) -> bool:
        if spec not in self.conditions:
            self.conditions[spec] = check_condition(self.laws[spec])[0]
        return self.conditions[spec]

    def row_p(self, spec: str) -> float:
        """A seeded p well inside (1/m, 1)."""
        lo = 1.0 / self.laws[spec].mean()
        return float(lo + (1.0 - lo) * self.rng.uniform(0.1, 0.9))

    def grid(self, spec: str) -> list[float]:
        """A seeded, strictly increasing p grid from about 1e-4 above 1/m."""
        lo = 1.0 / self.laws[spec].mean()
        first = 1e-4 * self.rng.uniform(1.0, 1.05)
        return [lo + d for d in np.geomspace(first, 0.95 * (1.0 - lo), self.grid_points)]

    def call_seed(self, round_no: int, index: int) -> int:
        return self.seed * 10**4 + round_no * 10 + index


def setup(workload: str, seed: int, smoke: bool = False) -> Plan:
    """Parse the laws and build the models a workload needs."""
    if workload == "analytic":
        specs = set(ROW_LAWS) | set(SWEEP_LAWS)
        return Plan(workload, seed, smoke, {s: parse_law(s) for s in specs},
                    rng=np.random.default_rng(seed),
                    rows_per_sweep=2 if smoke else ROWS_PER_SWEEP,
                    grid_points=6 if smoke else GRID_POINTS)
    walks = WALK_MANY if workload == "walk_many" else WALK_LONG
    if smoke:
        walks = tuple(Walk(w.law, w.p, SMOKE_HORIZON, min(w.replicas, SMOKE_REPLICAS))
                      for w in walks)
    plan = Plan(workload, seed, smoke, {w.law: parse_law(w.law) for w in walks if w.law != PIPES},
                walks=walks, min_rounds=WALK_LONG_MIN_CALLS if workload == "walk_long" else 1)
    for w in walks:
        if w.law == PIPES:
            plan.analytic[w] = (pipes_speed_derived(w.p), pipes_speed(w.p))
        else:
            model = PercolatedModel(plan.laws[w.law], w.p)
            plan.models[w] = model
            plan.analytic[w] = cluster_speed(model)
    return plan


# --- checks -------------------------------------------------------------

def check_model(spec: str, law, rho: float, lam: float, p: float) -> list[str]:
    problems = []
    residual = abs(rho - pgf_derivative(law, lam))
    if residual > RESIDUAL_TOL:
        problems.append(f"|rho - f(lambda)| = {residual:.3g}")
    if spec == "pmf:0,0,1" and abs(rho - (1 - p) ** 2 / p**2) > RESIDUAL_TOL:
        problems.append(f"binary rho {rho!r} != (1-p)^2/p^2")
    return problems


def check_cli_row(plan: Plan, spec: str, p: float, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    law = plan.laws[spec]
    model = PercolatedModel(law, p)
    expected = [p, model.rho, model.lam, backbone_speed(model), cluster_speed(model),
                mean_delay(model), plan.condition(spec)]
    lines = text.splitlines()
    want = ",".join(fmt12(v) for v in expected)
    problems = check_model(spec, law, model.rho, model.lam, p)
    if len(lines) != 2 or lines[1] != want:
        problems.append(f"CLI row {lines[1:]!r} != library {want!r}")
    return problems


def check_sweep(plan: Plan, spec: str, grid, rows) -> list[str]:
    law = plan.laws[spec]
    problems = []
    if [r.p for r in rows] != list(grid):
        problems.append("sweep rows do not follow the grid")
    for r in rows:
        problems += check_model(spec, law, r.rho, r.lam, r.p)
        if not 0.0 < r.cluster_speed <= r.backbone_speed < 1.0:
            problems.append(f"speeds out of order at p={r.p!r}")
        if r.condition_ok != plan.condition(spec):
            problems.append("condition_ok differs from check_condition")
    return problems


def check_estimate(plan: Plan, walk: Walk, speed_hat: float, std_error: float,
                   zs: dict) -> list[str]:
    """Gate |z| <= 5 against the analytic speed; for pipes, against the
    derived formula, and record the z against the stated formula too."""
    if walk.law == PIPES:
        derived, stated = plan.analytic[walk]
        zs.setdefault("pipes_z_stated", []).append((speed_hat - stated) / std_error)
        reference = derived
    else:
        reference = plan.analytic[walk]
    z = (speed_hat - reference) / std_error
    zs.setdefault(walk.label(), []).append(z)
    return [] if abs(z) <= Z_GATE else [f"|z| = {abs(z):.2f} > {Z_GATE}"]


def pooled(estimates, replicas: int) -> tuple[float, float]:
    """Mean and standard error over every replica of several calls with
    `replicas` replicas each, from each call's mean and standard error."""
    means = np.array([e.speed_hat for e in estimates])
    within = np.array([e.std_error for e in estimates]) ** 2 * replicas
    n = replicas * len(means)
    grand = means.mean()
    squares = ((replicas - 1) * within + replicas * (means - grand) ** 2).sum()
    return float(grand), math.sqrt(squares / (n - 1) / n)


def one_off_checks(plan: Plan, tally: Tally) -> None:
    """Untimed checks made once per run."""

    def binary_two_fifteenths():
        v = cluster_speed(PercolatedModel(parse_law("pmf:0,0,1"), 0.75))
        return [] if abs(v - 2 / 15) <= 1e-12 else [f"cluster_speed = {v!r}"]

    tally.op("cluster_speed(binary, 0.75) = 2/15", binary_two_fifteenths)
    if plan.workload == "analytic":
        argv = ["speed", "--law", ROW_LAWS[0], "--p", "0.75"]

        def cli_rerun():
            a, b = io.StringIO(), io.StringIO()
            codes = (cli_run(argv, out=a), cli_run(argv, out=b))
            return [] if codes == (0, 0) and a.getvalue() == b.getvalue() else ["rerun differs"]

        tally.op("CLI rerun is byte-identical", cli_rerun)
    for i, w in enumerate(plan.walks):

        def rerun(w=w, seed=plan.call_seed(0, i)):
            a, b = (repr(mc_call(plan, w, min(w.horizon, 10**4), 4, seed)) for _ in range(2))
            return [] if a == b else [f"{a} != {b}"]

        tally.op(f"rerun of {w.label()} is byte-identical", rerun)


def robustness_probe() -> list[tuple[str, str]]:
    """Run each input that fails today; return (input, outcome) pairs."""
    outcomes = []
    for spec, p in ROBUSTNESS:
        argv = ["speed", "--law", spec, "--p", repr(p)]
        try:
            with redirect_stderr(io.StringIO()):
                code = cli_run(argv, out=io.StringIO())
            outcome = "ok" if code == 0 else f"exit {code}"
        except Exception as exc:  # the probe records what escapes the CLI
            outcome = type(exc).__name__
        outcomes.append((f"speed --law {spec} --p {p!r}", outcome))
    return outcomes


# --- request loops --------------------------------------------------------

def mc_call(plan: Plan, walk: Walk, horizon: int, replicas: int, seed: int):
    if walk.law == PIPES:
        return simulate_pipes(walk.p, horizon, replicas, seed)
    return estimate_speed(plan.models[walk], horizon, replicas, seed)


def closed_loop(seconds: float, min_units: int, unit) -> int:
    """Run `unit(i)` for i = 0, 1, ... one after another. A new unit starts
    only while the last one's duration still fits before the deadline, and
    always until `min_units` have run. Returns the number of units run."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        unit(done)
        done += 1
        now = time.perf_counter()
        if done >= min_units and (now - start) + (now - t0) > seconds:
            return done


def analytic_slots(plan: Plan, seconds: float, tally: Tally, row, sweep_) -> int:
    """Slots of `rows_per_sweep` speed rows, the row laws in turn, then one
    sweep, the sweep law rotating; every sweep law gets at least one slot.
    `row(spec, p)` and `sweep_(spec, grid)` make the calls and return the
    checks that failed. Returns the number of slots run."""

    def slot(i):
        for j in range(plan.rows_per_sweep):
            spec = ROW_LAWS[(i * plan.rows_per_sweep + j) % len(ROW_LAWS)]
            p = plan.row_p(spec)
            tally.op(f"speed {spec} p={p!r}", lambda: row(spec, p))
        spec = SWEEP_LAWS[i % len(SWEEP_LAWS)]
        grid = plan.grid(spec)
        tally.op(f"sweep {spec}", lambda: sweep_(spec, grid))

    return closed_loop(seconds, len(SWEEP_LAWS), slot)


def walk_rounds(plan: Plan, seconds: float, tally: Tally, call, zs: dict) -> int:
    """Rounds of one Monte Carlo call per setting; `call(walk, seed)` makes
    the call and returns its estimate, which is checked here. Returns the
    number of rounds run."""
    few = {w: [] for w in plan.walks if w.replicas < POOL_BELOW}

    def one_round(r):
        for i, w in enumerate(plan.walks):
            seed = plan.call_seed(r, i)

            def op(w=w, seed=seed):
                est = call(w, seed)
                if w in few:
                    few[w].append(est)
                    return []
                return check_estimate(plan, w, est.speed_hat, est.std_error, zs)

            tally.op(f"{w.label()} seed={seed}", op)

    rounds = closed_loop(seconds, plan.min_rounds, one_round)
    for w, estimates in few.items():
        tally.op(f"{w.label()} pooled over {len(estimates)} calls",
                 lambda: check_estimate(plan, w, *pooled(estimates, w.replicas), zs))
    return rounds


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


class _Link:
    __slots__ = ("value", "next")

    def __init__(self, value, next_):
        self.value = value
        self.next = next_


class _Law:
    """A public method that checks its argument and dispatches to a
    subclass, as the offspring laws do."""

    def value(self, s: float, order: int = 0) -> float:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s={s} outside [0, 1]")
        return self._value(float(s), int(order))


class _Quadratic(_Law):
    coef = (0.2, 0.3, 0.5)

    def _value(self, s: float, order: int) -> float:
        c = self.coef
        return c[1] + 2 * c[2] * s if order else c[0] + s * (c[1] + s * c[2])


_REF_LAW = _Quadratic()
_REF_DATA = [(i * 7919 % 1000) / 1000 for i in range(600)]
_REF_COEF = [0.1 * k for k in range(12)]


def _ref_mix() -> None:
    law = _REF_LAW

    def h(s):
        return (1.0 - s) * law.value(s, 1) / (2.0 - law.value(s, 0))

    values = [h(i / 300) for i in range(300)]
    min(b - a for a, b in zip(values, values[1:]))
    _fib(14)
    sorted(_REF_DATA, key=lambda x: -x)
    rng = random.Random(5)
    parent, kids, pos = [0], [None], 0
    for _ in range(400):
        if rng.random() < 0.7:
            k = kids[pos]
            if k is None:
                n = len(parent)
                k = kids[pos] = (n, n + 1)
                parent += (pos, pos)
                kids += (None, None)
            pos = k[rng.random() < 0.5]
        else:
            pos = parent[pos]
    head = None
    for i in range(500):
        head = _Link(i * 0.5, head)
    total = 0.0
    while head is not None:
        total += head.value
        head = head.next
    for j in range(60):
        t = 0.0
        for c in reversed(_REF_COEF):
            t = t * (j / 60) + c
        total += t + math.exp(-j / 60)


def host_ref() -> float:
    """Seconds a fixed mix of small pure-Python kernels takes: how fast the
    host runs interpreted code at this moment. The mix (recursion, a sort
    with a key function, a random walk on a growing tree, a linked list of
    slotted objects, a polynomial loop, method calls from a closure in a
    comprehension) follows the host's slowdowns of gwspeed's own calls far
    better than a single arithmetic loop does.

    The garbage collector is off while the mix runs: a collection started
    by the mix's allocations would scan the whole heap of the call it
    interrupts and read as a slow host. Everything the mix allocates is
    freed before it returns, so it leaves the collector no extra work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _ref_mix()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Sample:
    """One timed call: its wall seconds and the host's mean speed while it
    ran, relative to the nominal host."""

    wall: float
    speed: float

    @property
    def scaled(self) -> float:
        """Seconds at the nominal host speed."""
        return self.wall * self.speed


@contextmanager
def host_scaled(samples: list):
    """Time the block and append its Sample to `samples`, also when it
    raises. The reference mix runs REF_BRACKET times before and after the
    block, and every REF_INTERVAL_S inside it from SIGALRM."""
    refs = [host_ref() for _ in range(REF_BRACKET)]
    previous = signal.signal(signal.SIGALRM, lambda *_: refs.append(host_ref()))
    signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        refs += [host_ref() for _ in range(REF_BRACKET)]
        samples.append(Sample(wall, mean(REF_NOMINAL_S / r for r in refs)))


def timed(samples: dict, kind: str, fn, *args):
    """Call `fn(*args)` and file its Sample under samples[kind]."""
    with host_scaled(samples.setdefault(kind, [])):
        return fn(*args)


def run(plan: Plan, seconds: float, tally: Tally) -> dict:
    """The untraced run: only the end-to-end calls are timed, each sample
    filed under its request kind."""
    if plan.workload == "analytic":
        rows, sweeps = {}, {}

        def row(spec, p):
            out = io.StringIO()
            code = timed(rows, spec, cli_run, ["speed", "--law", spec, "--p", repr(p)], out)
            return check_cli_row(plan, spec, p, code, out.getvalue())

        def sweep_(spec, grid):
            return check_sweep(plan, spec, grid, timed(sweeps, spec, sweep, plan.laws[spec], grid))

        slots = analytic_slots(plan, seconds, tally, row, sweep_)
        return {"slots": slots, "rows": rows, "sweeps": sweeps}

    calls, zs = {}, {}
    rounds = walk_rounds(plan, seconds, tally, lambda w, seed: timed(
        calls, w, mc_call, plan, w, w.horizon, w.replicas, seed), zs)
    return {"rounds": rounds, "calls": calls, "zs": zs}


def scaled_median(samples) -> float:
    return median(x.scaled for x in samples)


def wall_median(samples) -> float:
    return median(x.wall for x in samples)


def end_to_end(plan: Plan, result: dict) -> tuple[dict, dict]:
    """The bounded metrics of one workload (setup and memory are added by
    the caller), and report-only figures under their own names.

    request_ms_norm is the mean over request kinds (the row laws on
    `analytic`, every walk setting on the others) of each kind's median
    scaled latency; the mix sends every kind equally often.
    throughput_per_s_norm is the work of one request of each kind over the
    sum of their median scaled times: sweep rows per second on `analytic`,
    walk steps per second (pipes left out) on the walk workloads. Report
    lines give the same figures in plain wall time."""
    if plan.workload == "analytic":
        rows, sweeps = result["rows"], result["sweeps"]
        lat = [x.wall * 1e3 for samples in rows.values() for x in samples]
        n_sweeps = sum(map(len, sweeps.values()))
        beyond = math.floor(len(lat) * 0.01)
        wall_sweep_s = sum(x.wall for samples in sweeps.values() for x in samples)
        report = {
            "speed_row_ms_p50": (percentile(lat, 50), f"ms, n={len(lat)}"),
            "speed_row_ms_p99": (percentile(lat, 99), f"ms, n={len(lat)}, {beyond} beyond"),
            "sweep_rows_per_s": (n_sweeps * plan.grid_points / wall_sweep_s,
                                 f"1/s, {n_sweeps} sweeps of {plan.grid_points} rows"),
        }
        for spec, samples in rows.items():
            report[f"speed_row_ms_p50_norm[{spec}]"] = (scaled_median(samples) * 1e3,
                                                        f"ms, n={len(samples)}")
        for spec, samples in sweeps.items():
            report[f"sweep_rows_per_s_norm[{spec}]"] = (
                plan.grid_points / scaled_median(samples), f"1/s, n={len(samples)}")
        kinds, work = rows, len(sweeps) * plan.grid_points
        per_kind = sweeps
    else:
        calls = result["calls"]
        report = {}
        for name, is_pipes in (("walk_msteps_per_s", False), ("pipes_msteps_per_s", True)):
            picked = [(w, v) for w, v in calls.items() if (w.law == PIPES) == is_pipes]
            if picked:
                steps = sum(w.steps * len(v) for w, v in picked)
                report[name] = (steps / sum(x.wall for _, v in picked for x in v) / 1e6,
                                f"Msteps/s, {steps} steps")
        for w, samples in calls.items():
            report[f"call_s_p50_norm[{w.label()}]"] = (
                scaled_median(samples), f"s, n={len(samples)}, {w.replicas} replicas "
                f"at horizon {w.horizon}")
        for label, zs in sorted(result["zs"].items()):
            report[f"z[{label}]"] = (max(zs, key=abs), f"largest |z| of {len(zs)} checks")
        kinds = calls
        per_kind = {w: v for w, v in calls.items() if w.law != PIPES}
        work = sum(w.steps for w in per_kind)
    speeds = [x.speed for samples in kinds.values() for x in samples]
    report["request_ms_wall"] = (mean(map(wall_median, kinds.values())) * 1e3,
                                 "ms, request_ms_norm in plain wall time")
    report["throughput_per_s_wall"] = (work / sum(map(wall_median, per_kind.values())),
                                       "1/s, throughput_per_s_norm in plain wall time")
    report["host_speed"] = (median(speeds), f"x nominal, median over {len(speeds)} calls, "
                            f"{min(speeds):.3f} to {max(speeds):.3f}")
    return {
        "request_ms_norm": (mean(map(scaled_median, kinds.values())) * 1e3, "ms"),
        "throughput_per_s_norm": (work / sum(map(scaled_median, per_kind.values())), "1/s"),
    }, report
