"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
(6 and 7) take a few minutes at the mandated budgets.

Two criteria reference the law `geometric:0.5`, whose mean is
a/(1-a) = 1.0: it has no supercritical phase, so no retaining probability
p <= 0.95 can satisfy p > 1/m. Those sub-cases are exercised exactly as
written and fail honestly; see the printed diagnostics. The geometric
family itself is validated throughout with the supercritical
geometric:0.6667 (mean 2, critical point 0.5), which matches the p-grids
every criterion prescribes.
"""

import io
import time

import numpy as np
import pytest

from gwspeed import (
    Binomial,
    FinitePmf,
    Geometric,
    ModelError,
    PercolatedModel,
    Poisson,
    check_condition,
    cluster_speed,
    estimate_speed,
    eq1_speed,
    pipes_speed,
    rho_derivative,
    simulate_pipes,
    solve_rho,
)
from gwspeed.cli import run
from gwspeed.percolation import backbone_pmf_iter, bush_pmf_iter, thinned_pmf_iter
from gwspeed.speed import _backbone_speed_closed, _row, mean_delay

BINARY = FinitePmf([0, 0, 1])
P_GRID = [0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]

GEOMETRIC_05_NOTE = (
    "geometric:0.5 has mean a/(1-a) = 1.0 (no supercritical phase), so "
    "p in {0.55,...,0.95} never satisfies p > 1/m = 1; the model "
    "constructor rejects it as the domain invariants require"
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_binary_rho_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for p in P_GRID:
        rho, _ = solve_rho(BINARY, p)
        worst = max(worst, abs(rho - (1 - p) ** 2 / p**2))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-10 and elapsed < 1.0,
           f"binary rho vs (1-p)^2/p^2, worst abs err {worst:.2e}, {elapsed:.3f}s")


@pytest.mark.parametrize("name,law", [
    ("binary", BINARY),
    ("geometric:0.5", Geometric(0.5)),
    ("poisson:2", Poisson(2.0)),
    ("binomial:3,0.8", Binomial(3, 0.8)),
])
def test_criterion_2_derivative_check(name, law):
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    try:
        for p in P_GRID:
            model = PercolatedModel(law, p)
            fd = (solve_rho(law, p + h)[0] - solve_rho(law, p - h)[0]) / (2 * h)
            worst = max(worst, abs(rho_derivative(model) - fd))
    except ModelError as exc:
        report(2, False, f"{name}: {exc}. {GEOMETRIC_05_NOTE}")
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-5 and elapsed < 1.0,
           f"{name} drho/dp vs central differences, worst abs err {worst:.2e}, "
           f"{elapsed:.3f}s")


def test_criterion_3_endpoint_identity():
    details = []
    ok = True
    # the only p_0 = 0 law among the criterion-2 laws is the binary tree;
    # additional p_0 = 0 laws exercise the same identity
    for law in (BINARY, FinitePmf([0, 0.5, 0, 0.5])):
        gap = abs(cluster_speed(PercolatedModel(law, 1.0)) - eq1_speed(law))
        ok &= gap <= 1e-10
        details.append(f"p=1 vs eq1 gap {gap:.2e}")
    for d in (2, 3, 4):
        law = FinitePmf([0] * d + [1])
        gap = abs(cluster_speed(PercolatedModel(law, 1.0)) - (d - 1) / (d + 1))
        ok &= gap <= 1e-12
        details.append(f"d={d} gap {gap:.2e}")
    report(3, ok, "; ".join(details))


@pytest.mark.parametrize("name,law", [
    ("binary", BINARY),
    ("geometric:0.6667", Geometric(2 / 3)),
    ("poisson:2", Poisson(2.0)),
    ("binomial:3,0.8", Binomial(3, 0.8)),
])
def test_criterion_4_internal_identities(name, law):
    grid = np.linspace(1 / law.mean() + 0.05, 1.0, 50)
    worst_route = worst_delay = worst_norm = 0.0
    for p in grid:
        m = PercolatedModel(law, p)
        worst_route = max(worst_route,
                          abs(_backbone_speed_closed(m) - _row(m)[0]))
        worst_delay = max(worst_delay,
                          abs(mean_delay(m) - 2 * m.rho / (1 - m.rho)))
        worst_norm = max(
            worst_norm,
            abs(1 - sum(v for _, v in thinned_pmf_iter(m))),
            abs(1 - sum(v for _, v in backbone_pmf_iter(m))),
            abs(1 - sum(v for _, v in bush_pmf_iter(m))) if m.rho > 0 else 0.0,
        )
    ok = worst_route <= 1e-10 and worst_delay <= 1e-10 and worst_norm <= 1e-10
    report(4, ok,
           f"{name} 50-point grid: route gap {worst_route:.2e}, "
           f"delay gap {worst_delay:.2e}, normalization gap {worst_norm:.2e}")


def test_criterion_5_theorem_monotonicity():
    t0 = time.perf_counter()
    laws = {
        "geometric:0.6667": Geometric(2 / 3),
        "poisson:2": Poisson(2.0),
        "binomial:3,0.8": Binomial(3, 0.8),
        "regular d=2": BINARY,
    }
    ok = True
    details = []
    for name, law in laws.items():
        cond, _ = check_condition(law)
        speeds = [cluster_speed(PercolatedModel(law, p)) for p in P_GRID]
        increasing = all(b > a for a, b in zip(speeds, speeds[1:]))
        ok &= cond and increasing
        details.append(f"{name}: condition={cond}, strictly increasing={increasing}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(5, ok, "; ".join(details) + f"; {elapsed:.2f}s")


@pytest.mark.parametrize("name,law,p", [
    ("binary p=0.75", BINARY, 0.75),
    ("binary p=0.9", BINARY, 0.9),
    ("geometric:0.5 p=0.9", Geometric(0.5), 0.9),
])
def test_criterion_6_monte_carlo_agreement(name, law, p):
    try:
        model = PercolatedModel(law, p)
    except ModelError as exc:
        report(6, False, f"{name}: {exc}. {GEOMETRIC_05_NOTE}")
    analytic = cluster_speed(model)
    if name == "binary p=0.75":
        assert analytic == pytest.approx(2 / 15, abs=1e-12)
    est = estimate_speed(model, horizon=10**5, replicas=400, seed=42)
    z = (est.speed_hat - analytic) / est.std_error
    report(6, abs(z) <= 5,
           f"{name}: MC {est.speed_hat:.6f} +- {est.std_error:.6f} vs "
           f"analytic {analytic:.6f}, z = {z:.2f}")


def test_criterion_7_pipes_non_monotonicity():
    grid = np.arange(0.501, 1.0, 0.001)
    vals = np.array([pipes_speed(p) for p in grid])
    d = np.sign(np.diff(vals))
    changes = np.nonzero(np.diff(d) != 0)[0]
    unimodal = len(changes) == 1 and d[0] > 0 and d[-1] < 0
    argmax = grid[int(np.argmax(vals))]
    near_08 = abs(argmax - 0.82) < 0.05
    endpoints = (pipes_speed(0.5) == 0.0 and pipes_speed(1.0) == 0.0
                 and pipes_speed(0.501) < 1e-4)

    est = simulate_pipes(0.75, horizon=2 * 10**5, replicas=400, seed=42)
    closed = pipes_speed(0.75)
    z = (est.speed_hat - closed) / est.std_error
    if abs(z) <= 5:
        mc_detail = f"MC agrees with closed form, z = {z:.2f}"
        mc_ok = True
    else:
        # the criterion's alternate branch: report the discrepancy
        derived = ((2 * 0.75 - 1) ** 2 * (1 - 0.75)
                   / (-4 * 0.75**3 + 10 * 0.75**2 - 7 * 0.75 + 3))
        z_derived = (est.speed_hat - derived) / est.std_error
        mc_detail = (
            f"DISCREPANCY REPORTED: MC {est.speed_hat:.6f} +- {est.std_error:.6f} "
            f"disagrees with the stated closed form {closed:.6f} (z = {z:.1f}); "
            f"an independent backbone-delay derivation gives "
            f"(2p-1)^2(1-p)/(-4p^3+10p^2-7p+3) = {derived:.6f} "
            f"(z = {z_derived:.2f}), which the simulation supports"
        )
        mc_ok = True  # reporting satisfies the criterion's 'or' branch

    report(7, unimodal and near_08 and endpoints and mc_ok,
           f"unimodal={unimodal}, argmax p*={argmax:.3f}, "
           f"endpoints zero={endpoints}; {mc_detail}")


def test_criterion_8_reproducibility():
    argv = ["simulate", "--law", "pmf:0,0,1", "--p", "0.75",
            "--horizon", "5000", "--replicas", "32", "--seed", "42"]
    out_a, out_b = io.StringIO(), io.StringIO()
    code_a = run(argv, out=out_a)
    code_b = run(argv, out=out_b)
    ok = code_a == code_b == 0 and out_a.getvalue() == out_b.getvalue()
    report(8, ok, "two identical `simulate` invocations are byte-identical")
