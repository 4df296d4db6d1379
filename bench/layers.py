"""The traced run: a span around every call the benchmark makes into
offspring, percolation, speed, simulate and cli, and the per-layer metrics
computed from those spans.

The traced run splits each end-to-end request into the layer calls it is
made of, so it does more work than the untraced run and reports no
end-to-end metric. A short probe pass, the same in every traced run,
covers the layers the workload itself does not call. Probes that need
names outside ``gwspeed.__all__`` report their metric as missing when
those names move.
"""

from __future__ import annotations

import io
import time
import tracemalloc
from statistics import mean, median
from types import SimpleNamespace

import numpy as np

import gwspeed
from gwspeed import (
    PercolatedModel,
    backbone_speed,
    check_condition,
    cluster_speed,
    mean_delay,
    parse_law,
    estimate_speed,
    pgf_derivative,
    simulate_pipes,
    solve_rho,
    sweep,
)
from gwspeed.cli import run as cli_run

import workloads as wl
from tracing import Tracer, span_cost

# p with p*m - 1 at most this far above criticality counts as near-critical
NEARCRIT = 2e-3
PGF_BATCH = 1000
SAMPLE_BATCH = 1000
EXPANSIONS = 2000

# per-layer metric -> (unit, the end-to-end figure it should move, on which
# workload). Report-line figures are followed by the bounded metric that
# carries them.
ROWS = "speed_row_ms_p50 (request_ms_norm)"
SWEEPS = "sweep_rows_per_s (throughput_per_s_norm)"
WALKS = "walk_msteps_per_s (throughput_per_s_norm)"
LAYER_MAP = {
    "offspring.pgf_eval_us": ("us", ROWS, "analytic"),
    "offspring.sample_us": ("us", WALKS, "walk_long"),
    "percolation.solve_rho_ms": ("ms", SWEEPS, "analytic"),
    "percolation.solve_rho_nearcrit_ms": ("ms", SWEEPS, "analytic"),
    "percolation.backbone_terms": ("count", SWEEPS, "analytic, large-support laws"),
    "speed.check_condition_ms": ("ms", "speed_row_ms_p50 and _p99 (request_ms_norm)", "analytic"),
    "speed.backbone_speed_ms": ("ms", SWEEPS, "analytic"),
    "speed.mean_delay_ms": ("ms", SWEEPS, "analytic"),
    "speed.cluster_speed_ms": ("ms", SWEEPS, "analytic"),
    "simulate.sampler_build_ms": ("ms", "setup_s", "walk_many, walk_long"),
    "simulate.expand_green_us": ("us", WALKS, "walk_long"),
    "simulate.expand_red_us": ("us", WALKS, "walk_many, trap-heavy law"),
    "simulate.replica_s_p50": ("s", WALKS, "walk_many, walk_long"),
    "simulate.nodes_per_step": ("nodes/step", WALKS, "walk_many, walk_long"),
    "simulate.red_node_frac": ("fraction", WALKS, "walk_many, walk_long"),
    "simulate.max_depth": ("count", WALKS, "walk_many, walk_long"),
    "simulate.bytes_per_node": ("B/node", "peak_rss_mb", "walk_long"),
    "cli.import_s": ("s", "setup_s", "all"),
    "cli.overhead_ms": ("ms", ROWS, "analytic"),
    "cli.probe_failures": ("count", "failed_frac", "all"),
    "trace.overhead_pct": ("%", "none: the share of traced time spent recording spans", "all"),
}


def internal(obj, *names):
    """Follow attribute names that are not part of the exported API;
    None when one of them has moved."""
    for name in names:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


# --- traced requests ------------------------------------------------------

def pgf_batch(tr: Tracer, law) -> None:
    """PGF and first-derivative evaluations on the check_condition range."""
    lo = 1.0 / law.mean()
    grid = np.linspace(lo, 1.0 - 1e-6, PGF_BATCH // 2).tolist()
    t0 = time.perf_counter()
    for s in grid:
        pgf_derivative(law, s, 0)
        pgf_derivative(law, s, 1)
    tr.add("offspring.pgf_eval", time.perf_counter() - t0, 2 * len(grid))


def traced_row(tr: Tracer, plan, spec: str, p: float) -> list[str]:
    out = io.StringIO()
    with tr.span("cli.run") as whole:
        code = cli_run(["speed", "--law", spec, "--p", repr(p)], out=out)
    parts = []
    with tr.span("offspring.parse_law") as s:
        law = parse_law(spec)
    parts.append(s)
    pgf_batch(tr, law)
    with tr.span("speed.check_condition") as s:
        check_condition(law)
    parts.append(s)
    tr.call("percolation.solve_rho", solve_rho, law, p)
    with tr.span("percolation.model") as s:
        model = PercolatedModel(law, p)
    parts.append(s)
    with tr.span("speed.backbone_speed") as s:
        backbone_speed(model)
    parts.append(s)
    with tr.span("speed.mean_delay") as s:
        mean_delay(model)
    parts.append(s)
    tr.call("speed.cluster_speed", cluster_speed, model)
    # the CLI's own cost: its run minus the library calls that make the row
    tr.count("cli.overhead_ms", (whole.duration - sum(s.duration for s in parts)) * 1e3)
    return wl.check_cli_row(plan, spec, p, code, out.getvalue())


def traced_sweep(tr: Tracer, plan, spec: str, grid) -> list[str]:
    law = plan.laws[spec]
    terms_of = internal(gwspeed, "percolation", "backbone_pmf_iter")
    rows = tr.call("speed.sweep", sweep, law, grid)
    m = law.mean()
    for p in grid:
        near = p * m - 1.0 <= NEARCRIT
        tr.call("percolation.solve_rho_nearcrit" if near else "percolation.solve_rho",
                solve_rho, law, p)
        model = tr.call("percolation.model", PercolatedModel, law, p)
        tr.call("speed.backbone_speed", backbone_speed, model)
        tr.call("speed.mean_delay", mean_delay, model)
        if terms_of is not None and spec in wl.LARGE_SUPPORT:
            tr.count("percolation.backbone_terms", sum(1 for _ in terms_of(model)))
    return wl.check_sweep(plan, spec, grid, rows)


def traced_mc_call(tr: Tracer, plan, w, seed: int):
    """One Monte Carlo call, split into its replicas through `run_walk`;
    returns the estimate.

    Replica r walks with ``default_rng([seed, r])``, the sub-stream that
    `estimate_speed` documents, so the walks are the same as in the
    untraced call; `run_walk` also builds the bush sampler per replica.
    Without `run_walk` the call is traced whole.
    """
    run_walk = internal(gwspeed, "run_walk")
    if w.law == wl.PIPES:
        return tr.call("simulate.simulate_pipes", simulate_pipes, w.p, w.horizon,
                       w.replicas, seed)
    model = plan.models[w]
    if run_walk is None:
        est = tr.call("simulate.estimate_speed", estimate_speed, model, w.horizon,
                      w.replicas, seed)
    else:
        speeds = np.asarray([tr.call("simulate.run_walk", run_walk, model, w.horizon,
                                     np.random.default_rng([seed, r])) / w.horizon
                             for r in range(w.replicas)])
        est = SimpleNamespace(speed_hat=float(speeds.mean()),
                              std_error=float(speeds.std(ddof=1) / np.sqrt(w.replicas)))
    rng = np.random.default_rng([seed, w.replicas])
    t0 = time.perf_counter()
    for _ in range(SAMPLE_BATCH):
        model.law.sample(rng)
    tr.add("offspring.sample", time.perf_counter() - t0, SAMPLE_BATCH)
    return est


def traced_loop(tr: Tracer, plan, seconds: float, tally) -> dict:
    if plan.workload == "analytic":
        slots = wl.analytic_slots(plan, seconds, tally,
                                  lambda spec, p: traced_row(tr, plan, spec, p),
                                  lambda spec, grid: traced_sweep(tr, plan, spec, grid))
        return {"slots": slots}
    zs = {}
    rounds = wl.walk_rounds(plan, seconds, tally,
                            lambda w, seed: traced_mc_call(tr, plan, w, seed), zs)
    return {"rounds": rounds, "zs": zs}


# --- probes -----------------------------------------------------------------

def probe_pass(tr: Tracer, plan, tally) -> None:
    """Small traced requests for the layers the workload does not call."""
    if plan.workload != "analytic":
        small = wl.setup("analytic", plan.seed, smoke=True)
        for spec in wl.ROW_LAWS:
            p = small.row_p(spec)
            tally.op(f"probe speed {spec}", lambda: traced_row(tr, small, spec, p))
        for spec in wl.SWEEP_LAWS:
            grid = small.grid(spec)
            tally.op(f"probe sweep {spec}", lambda: traced_sweep(tr, small, spec, grid))
    else:
        small = wl.setup("walk_many", plan.seed, smoke=True)
        wl.walk_rounds(small, 0.0, tally, lambda w, seed: traced_mc_call(tr, small, w, seed), {})


def walk_settings(plan):
    """The (walk, model) pairs the simulate probes use: the workload's own,
    or walk_many's for a workload without walks."""
    source = plan if plan.walks else wl.setup("walk_many", plan.seed, smoke=plan.smoke)
    return [(w, source.models[w]) for w in source.walks if w.law != wl.PIPES]


def sampler_probe(tr: Tracer, settings) -> None:
    bush_sampler = internal(gwspeed, "simulate", "BushSampler")
    if bush_sampler is None:
        return
    for _, model in settings:
        if model.rho > 0.0:
            for _ in range(5):
                tr.call("simulate.sampler_build", bush_sampler, model)


def expansion_probe(tr: Tracer, settings, seed: int) -> None:
    """Time green and red expansions one call at a time on a fresh cluster."""
    cluster_cls = internal(gwspeed, "Cluster")
    green = internal(gwspeed, "simulate", "GREEN")
    if green is None or internal(cluster_cls, "expand_green") is None:
        return
    for i, (_, model) in enumerate(settings):
        cluster = cluster_cls(model)
        rng = np.random.default_rng([seed, 10**6 + i])
        greens, reds = [0], []
        g_s = r_s = 0.0
        g_n = r_n = 0
        while greens and g_n < EXPANSIONS:
            node = greens.pop()
            t0 = time.perf_counter()
            kids = cluster.expand_green(node, rng)
            g_s += time.perf_counter() - t0
            g_n += 1
            for c in kids:
                (greens if cluster.color[c] == green else reds).append(c)
        while reds and r_n < EXPANSIONS:
            node = reds.pop()
            t0 = time.perf_counter()
            kids = cluster.expand_red(node, rng)
            r_s += time.perf_counter() - t0
            r_n += 1
            reds.extend(kids)
        tr.add("simulate.expand_green", g_s, g_n)
        if r_n:
            tr.add("simulate.expand_red", r_s, r_n)


def structure_probe(settings, seed: int, smoke: bool) -> dict | None:
    """Exact counts from one seeded replica per setting, and bytes per node
    from tracemalloc on the first setting's cluster."""
    cluster_cls = internal(gwspeed, "Cluster")
    walk_path = internal(gwspeed, "simulate", "walk_path")
    green = internal(gwspeed, "simulate", "GREEN")
    if None in (cluster_cls, walk_path, green):
        return None
    nodes = steps = red = depth = 0
    per_setting = {}
    for w, model in settings:
        horizon = min(w.horizon, 2 * 10**5)
        cluster = cluster_cls(model)
        walk_path(cluster, horizon, np.random.default_rng([seed, 0]))
        n = len(cluster.parent)
        r = sum(1 for c in cluster.color if c != green)
        d = max(cluster.depth)
        per_setting[w.label()] = f"{n / horizon:.4f} nodes/step, red {r / n:.4f}, depth {d}"
        nodes, steps, red, depth = nodes + n, steps + horizon, red + r, max(depth, d)
    w, model = settings[0]
    horizon = min(w.horizon, 2000 if smoke else 10**5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cluster = cluster_cls(model)
        path = walk_path(cluster, horizon, np.random.default_rng([seed, 0]))
        del path
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return {"nodes_per_step": nodes / steps, "red_node_frac": red / nodes,
            "max_depth": depth, "bytes_per_node": grown / len(cluster.parent),
            "per_setting": per_setting}


# --- the traced run -----------------------------------------------------------

def traced_run(plan, seconds: float, tally, import_s: float,
               probe_outcomes) -> tuple[dict, dict]:
    """Run the workload traced, then the probes; return per-layer metrics
    {name: value, None when missing} and report-only lines."""
    loop = Tracer()
    t0 = time.perf_counter()
    result = traced_loop(loop, plan, seconds, tally)
    loop_s = time.perf_counter() - t0
    extra = Tracer()
    probe_pass(extra, plan, tally)
    settings = walk_settings(plan)
    moved = []

    def internal_probe(fn, *args):
        """An internal probe whose names have changed shape yields nothing."""
        try:
            return fn(*args)
        except (AttributeError, TypeError) as exc:
            moved.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None

    internal_probe(sampler_probe, extra, settings)
    internal_probe(expansion_probe, extra, settings, plan.seed)
    structure = internal_probe(structure_probe, settings, plan.seed, plan.smoke)

    def pick(fn):
        """From the workload's own spans, else from the probe pass."""
        value = fn(loop)
        return value if value is not None else fn(extra)

    def ms(name):
        v = pick(lambda tr: tr.median(name))
        return None if v is None else v * 1e3

    def us_per_call(name):
        v = pick(lambda tr: tr.per_call(name))
        return None if v is None else v * 1e6

    def counted(name, agg):
        return pick(lambda tr: agg(tr.counts[name]) if tr.counts.get(name) else None)

    replica = pick(lambda tr: tr.median("simulate.run_walk"))
    s = structure or {}
    metrics = {
        "offspring.pgf_eval_us": us_per_call("offspring.pgf_eval"),
        "offspring.sample_us": us_per_call("offspring.sample"),
        "percolation.solve_rho_ms": ms("percolation.solve_rho"),
        "percolation.solve_rho_nearcrit_ms": ms("percolation.solve_rho_nearcrit"),
        "percolation.backbone_terms": counted("percolation.backbone_terms", mean),
        "speed.check_condition_ms": ms("speed.check_condition"),
        "speed.backbone_speed_ms": ms("speed.backbone_speed"),
        "speed.mean_delay_ms": ms("speed.mean_delay"),
        "speed.cluster_speed_ms": ms("speed.cluster_speed"),
        "simulate.sampler_build_ms": ms("simulate.sampler_build"),
        "simulate.expand_green_us": us_per_call("simulate.expand_green"),
        "simulate.expand_red_us": us_per_call("simulate.expand_red"),
        "simulate.replica_s_p50": replica,
        "simulate.nodes_per_step": s.get("nodes_per_step"),
        "simulate.red_node_frac": s.get("red_node_frac"),
        "simulate.max_depth": s.get("max_depth"),
        "simulate.bytes_per_node": s.get("bytes_per_node"),
        "cli.import_s": import_s,
        "cli.overhead_ms": counted("cli.overhead_ms", median),
        "cli.probe_failures": sum(1 for _, outcome in probe_outcomes if outcome != "ok"),
        "trace.overhead_pct": 100.0 * span_cost() * len(loop.spans) / loop_s,
    }
    report = {k: v for k, v in result.items() if k in ("rounds", "slots")}
    report["spans"] = len(loop.spans) + len(extra.spans)
    report["trace.overhead_pct source"] = ("cost of an empty span, measured on a throwaway "
                                           "tracer, times the spans of the traced loop")
    for i, note in enumerate(moved):
        report[f"internal probe skipped {i}"] = note
    for label, line in s.get("per_setting", {}).items():
        report[f"structure[{label}]"] = line
    if structure is not None:
        report["bytes_per_node source"] = "tracemalloc bytes grown over nodes grown"
    for label, zs in sorted(result.get("zs", {}).items()):
        report[f"z[{label}]"] = f"largest |z| {max(zs, key=abs):.3f} of {len(zs)} checks"
    return metrics, report
