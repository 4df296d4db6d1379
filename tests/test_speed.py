import io

import mpmath
import numpy as np
import pytest

from gwspeed import (
    Binomial,
    FinitePmf,
    Geometric,
    ModelError,
    PercolatedModel,
    Poisson,
    backbone_speed,
    check_condition,
    cluster_speed,
    cluster_speed_at,
    eq1_speed,
    mean_delay,
    parse_law,
    pipes_speed,
    sweep,
)
from gwspeed.cli import run
from gwspeed.percolation import backbone_pmf_iter, bush_mean_size, mean_excursions
from gwspeed.speed import CONDITION_SLACK, _backbone_speed_closed, _row

BINARY = FinitePmf([0, 0, 1])

LAWS = {
    "binary": BINARY,
    "geometric": Geometric(2 / 3),
    "poisson": Poisson(2.0),
    "binomial": Binomial(3, 0.8),
}

P_GRID = np.arange(0.55, 1.0, 0.05)

PMF20 = parse_law("pmf:0.05,0.1,0.1,0.1,0.08,0.08,0.07,0.06,0.06,0.05,0.05,0.04,0.04,"
                  "0.03,0.03,0.02,0.02,0.01,0.005,0.005")
CONDITION_LAWS = {
    **LAWS,
    "geometric:0.5": Geometric(0.5),
    **{f"regular:{d}": FinitePmf([0] * d + [1]) for d in (3, 5)},
    "binomial:40,0.1": Binomial(40, 0.1),
    "pmf20": PMF20,
}


def check_condition_reference(law, grid_size):
    """check_condition as a scalar loop over the grid, one PGF call per value."""
    lo = 1.0 / law.mean()
    s_cut = 1.0 - 1e-6

    def h(s):
        if s >= s_cut:
            s = s_cut
        return (1.0 - s) * law.pgf_derivative(s, 1) / (1.0 - law.pgf_derivative(s, 0))

    step = (1.0 - lo) / (grid_size + 1)
    values = [h(lo + (i + 1) * step) for i in range(grid_size)]
    worst = min(b - a for a, b in zip(values, values[1:]))
    return worst >= -CONDITION_SLACK, worst


# frozen pre-build grid search on the closed form, step 1e-4 over (0.5, 1)
PIPES_ARGMAX = 0.8198
PIPES_MAX = 0.0137914877
PIPES_AT_08 = 0.013658714260
PIPES_AT_09 = 0.011321262038


class TestEq1Speed:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_regular_tree(self, d):
        law = FinitePmf([0] * d + [1])
        assert eq1_speed(law) == pytest.approx((d - 1) / (d + 1), abs=1e-14)

    def test_half_line(self):
        assert eq1_speed(FinitePmf([0, 1])) == 0.0

    def test_two_term_sum(self):
        assert eq1_speed(FinitePmf([0, 0.5, 0, 0.5])) == pytest.approx(0.25, abs=1e-14)

    def test_rejects_positive_p0(self):
        with pytest.raises(ModelError):
            eq1_speed(Poisson(2.0))


class TestBackboneSpeed:
    def test_binary_hand_value(self):
        m = PercolatedModel(BINARY, 0.75)
        assert backbone_speed(m) == pytest.approx(1 / 6, abs=1e-12)
        # derivation's first line: 0.5 * 0 + 0.5 * (1/3)
        series = sum(pk * (k - 1) / (k + 1) for k, pk in backbone_pmf_iter(m))
        assert series == pytest.approx(1 / 6, abs=1e-12)

    def test_binary_full_retention_matches_eq1(self):
        m = PercolatedModel(BINARY, 1.0)
        assert backbone_speed(m) == pytest.approx(eq1_speed(BINARY), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", P_GRID)
    def test_two_routes_agree(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        assert abs(_backbone_speed_closed(m) - _row(m)[0]) <= 1e-10


class TestClusterSpeed:
    def test_binary_hand_value(self):
        m = PercolatedModel(BINARY, 0.75)
        assert cluster_speed(m) == pytest.approx(2 / 15, abs=1e-12)

    def test_binary_full_retention(self):
        m = PercolatedModel(BINARY, 1.0)
        assert cluster_speed(m) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_increasing_on_grid(self, name):
        speeds = [cluster_speed(PercolatedModel(LAWS[name], p))
                  for p in [0.6, 0.7, 0.8, 0.9, 1.0]]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", P_GRID)
    def test_bounds_and_ergodic_factor(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        s = backbone_speed(m)
        c = cluster_speed(m)
        assert 0.0 <= c <= s <= 1.0
        assert c == pytest.approx((1 - m.rho) / (1 + m.rho) * s, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", P_GRID)
    def test_delay_identity(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        assert mean_delay(m) == pytest.approx(2 * m.rho / (1 - m.rho), abs=1e-10)

    def test_delay_vacuous_at_rho_zero(self):
        assert mean_delay(PercolatedModel(BINARY, 1.0)) == 0.0

    def test_endpoint_continuity_at_one(self):
        c = cluster_speed(PercolatedModel(BINARY, 1 - 1e-6))
        assert c == pytest.approx(eq1_speed(BINARY), abs=1e-4)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_endpoint_continuity_at_critical(self, name):
        law = LAWS[name]
        p = 1 / law.mean() + 1e-4
        assert cluster_speed(PercolatedModel(law, p, tol=1e-13)) == pytest.approx(
            0.0, abs=0.05)

    def test_pinned_zero_at_critical_point(self):
        assert cluster_speed_at(BINARY, 0.5) == 0.0

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_second_difference_bounded(self, name):
        # differentiability surrogate: no jumps on a compact subgrid
        law = LAWS[name]
        h = 1e-3
        grid = np.arange(0.6, 0.96, 0.05)
        for p in grid:
            c = [cluster_speed(PercolatedModel(law, p + dp)) for dp in (-h, 0.0, h)]
            assert abs(c[0] - 2 * c[1] + c[2]) / h**2 <= 100


class TestCheckCondition:
    def test_geometric(self):
        ok, worst = check_condition(Geometric(0.5), 2000)
        assert ok and worst >= -1e-9

    def test_poisson(self):
        ok, _ = check_condition(Poisson(2.0), 2000)
        assert ok

    def test_binomial(self):
        ok, _ = check_condition(Binomial(3, 0.8), 2000)
        assert ok

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_regular_tree(self, d):
        ok, _ = check_condition(FinitePmf([0] * d + [1]), 2000)
        assert ok

    @pytest.mark.parametrize("grid_size", [2000, 10**4])
    @pytest.mark.parametrize("name", sorted(CONDITION_LAWS))
    def test_matches_scalar_reference(self, name, grid_size):
        law = CONDITION_LAWS[name]
        ok, worst = check_condition(law, grid_size)
        ref_ok, ref_worst = check_condition_reference(law, grid_size)
        assert ok == ref_ok
        assert type(worst) is float
        assert abs(worst - ref_worst) <= 1e-12

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            check_condition(Geometric(0.5), 2)

    def test_rejects_degenerate(self):
        with pytest.raises(ModelError):
            check_condition(FinitePmf([0, 1]))


class TestPipesSpeed:
    def test_zero_at_criticality(self):
        assert pipes_speed(0.5) == 0.0

    def test_zero_at_full_retention(self):
        assert pipes_speed(1.0) == 0.0

    def test_pinned_non_monotone_pair(self):
        assert pipes_speed(0.8) == pytest.approx(PIPES_AT_08, abs=1e-10)
        assert pipes_speed(0.9) == pytest.approx(PIPES_AT_09, abs=1e-10)
        assert pipes_speed(0.8) > pipes_speed(0.9)

    def test_pinned_argmax(self):
        grid = np.arange(0.5001, 1.0, 0.0001)
        vals = np.array([pipes_speed(p) for p in grid])
        i = int(np.argmax(vals))
        assert grid[i] == pytest.approx(PIPES_ARGMAX, abs=1e-12)
        assert vals[i] == pytest.approx(PIPES_MAX, abs=1e-9)

    def test_rises_then_falls_on_coarse_grid(self):
        grid = np.arange(0.501, 1.0, 0.001)
        vals = np.array([pipes_speed(p) for p in grid])
        d = np.sign(np.diff(vals))
        # exactly one direction change: increasing then decreasing
        changes = np.nonzero(np.diff(d) != 0)[0]
        assert len(changes) == 1
        assert d[0] > 0 and d[-1] < 0

    def test_rejects_subcritical(self):
        with pytest.raises(ModelError):
            pipes_speed(0.4)


class TestSweep:
    def test_binary_two_points(self):
        rows = sweep(BINARY, [0.75, 1.0])
        assert rows[0].cluster_speed == pytest.approx(2 / 15, abs=1e-12)
        assert rows[1].cluster_speed == pytest.approx(1 / 3, abs=1e-12)

    def test_binary_increasing_column(self):
        rows = sweep(BINARY, np.linspace(0.6, 1.0, 9))
        speeds = [r.cluster_speed for r in rows]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_singleton_full_retention(self):
        (row,) = sweep(FinitePmf([0, 0.5, 0, 0.5]), [1.0])
        assert row.cluster_speed == pytest.approx(
            eq1_speed(FinitePmf([0, 0.5, 0, 0.5])), abs=1e-12)

    def test_row_invariants(self):
        for row in sweep(Poisson(2.0), [0.6, 0.8, 1.0]):
            assert 0 <= row.cluster_speed <= row.backbone_speed <= 1
            factor = (1 - row.rho) / (1 + row.rho)
            assert row.cluster_speed == pytest.approx(
                factor * row.backbone_speed, abs=1e-12)
            assert row.mean_delay == pytest.approx(
                2 * row.rho / (1 - row.rho), abs=1e-10)
            assert row.condition_ok

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            sweep(BINARY, [0.8, 0.7])

    def test_rejects_subcritical_point(self):
        with pytest.raises(ModelError):
            sweep(BINARY, [0.4, 0.8])


# Taylor coefficients f^(k)(s)/k! in mpmath arithmetic, from the same float
# parameters
MP_TAYLOR = {
    "pmf:0,0,1": (lambda s, k: [s**2, 2 * s, mpmath.mpf(1)][k] if k <= 2 else 0, 2),
    "poisson:2": (lambda s, k: mpmath.exp(2 * (s - 1)) * 2**k / mpmath.factorial(k), None),
    "geometric:0.6667": (lambda s, k, a=mpmath.mpf(0.6667):
                         a**k * (1 - a) / (1 - a * s) ** (k + 1), None),
    "binomial:3,0.8": (lambda s, k, q=mpmath.mpf(0.8):
                       mpmath.binomial(3, k) * q**k * (1 - q + q * s) ** (3 - k), 3),
}


def series_oracle(spec, model):
    """S(p) = sum_k ptilde_k (k-1)/(k+1) at 40 digits, at the model's float rho."""
    taylor, cap = MP_TAYLOR[spec]
    with mpmath.workdps(40):
        p, rho = mpmath.mpf(model.p), mpmath.mpf(model.rho)
        lam = 1 - p + p * rho
        total, k = mpmath.mpf(0), 1
        while cap is None or k <= cap:
            term = taylor(lam, k) * p**k * (1 - rho) ** (k - 1)
            total += term * (k - 1) / (k + 1)
            if cap is None and k > 5 and term < mpmath.mpf(10) ** -45:
                break
            k += 1
        return total


class TestSeriesRoute:
    """The backbone speed is the series over ptilde. The closed form, kept
    as the cross-check, cancels two terms of size 1/(1-rho) and is off by
    up to 1e-4 relative near 1/m, where it can even turn negative."""

    @pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("spec", sorted(MP_TAYLOR))
    def test_matches_high_precision_series(self, spec, gap):
        law = parse_law(spec)
        m = PercolatedModel(law, 1 / law.mean() + gap)
        s = backbone_speed(m)
        assert s > 0.0
        exact = series_oracle(spec, m)
        assert abs(s - exact) <= 1e-9 * exact


PMF20_SPEC = PMF20.spec_string()
ROW_LAWS = ["pmf:0,0,1", "poisson:2", "geometric:0.6667", "binomial:3,0.8",
            "binomial:40,0.1", PMF20_SPEC, "geometric:0.8"]
ROW_FRACTIONS = [1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5, 0.8, 1.0]


def delay_oracle(model):
    """The delay as the direct sum over ptilde_k 2 M N(p,k)."""
    if model.rho == 0.0:
        return 0.0
    big_m = bush_mean_size(model)
    return sum(pk * 2.0 * big_m * mean_excursions(model, k)
               for k, pk in backbone_pmf_iter(model) if pk > 0.0)


class TestSingleCodePath:
    """sweep, the three public row functions and the CLI row all read one
    pass over the backbone law, so they agree exactly."""

    @pytest.mark.parametrize("spec", ROW_LAWS, ids=lambda s: s if len(s) < 20 else "pmf20")
    def test_every_route_to_a_row_agrees(self, spec):
        law = parse_law(spec)
        lo = 1 / law.mean()
        grid = [lo + (1 - lo) * f for f in ROW_FRACTIONS[:-1]] + [1.0]
        for row in sweep(law, grid):
            m = PercolatedModel(law, row.p)
            assert (row.rho, row.lam) == (m.rho, m.lam)
            assert row.backbone_speed == backbone_speed(m)
            assert row.cluster_speed == cluster_speed(m)
            assert row.mean_delay == mean_delay(m)
            assert row.mean_delay == pytest.approx(delay_oracle(m), rel=1e-13)
            out = io.StringIO()
            assert run(["speed", "--law", spec, "--p", repr(row.p)], out=out) == 0
            cli = out.getvalue().splitlines()[1].split(",")
            expected = [row.p, m.rho, m.lam, backbone_speed(m), cluster_speed(m),
                        mean_delay(m)]
            assert cli[:6] == [format(v, ".12g") for v in expected]
