import io

import mpmath
import numpy as np
import pytest
from oracles import mp_taylor

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
from gwspeed.percolation import backbone_pmf_iter, bush_mean_size
from gwspeed.speed import (
    CONDITION_GRID,
    CONDITION_SLACK,
    _backbone_speed_closed,
    _proved_monotone,
    _row,
)

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


def grid_reference(law):
    """check_condition's grid points and h values, built out of place."""
    lo = 1.0 / law.mean()
    s = np.minimum(lo + np.arange(1, CONDITION_GRID + 1) * ((1.0 - lo) / (CONDITION_GRID + 1)),
                   1.0 - 1e-6)
    f, df = law.pgf_array(s)
    return s, (1.0 - s) * df / (1.0 - f)


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
        assert cluster_speed(PercolatedModel(law, p)) == pytest.approx(
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
        ok, worst = check_condition(Geometric(0.5))
        assert ok and worst >= -1e-9

    def test_poisson(self):
        ok, _ = check_condition(Poisson(2.0))
        assert ok

    def test_binomial(self):
        ok, _ = check_condition(Binomial(3, 0.8))
        assert ok

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_regular_tree(self, d):
        ok, _ = check_condition(FinitePmf([0] * d + [1]))
        assert ok

    @pytest.mark.parametrize("grid_size", [2000, CONDITION_GRID])
    @pytest.mark.parametrize("name", sorted(CONDITION_LAWS))
    def test_matches_scalar_reference(self, name, grid_size):
        # the reference on the same grid gives the same values; on a
        # coarser grid it still gives the same verdict
        law = CONDITION_LAWS[name]
        ok, worst = check_condition(law)
        ref_ok, ref_worst = check_condition_reference(law, grid_size)
        assert ok == ref_ok
        assert type(worst) is float
        if grid_size == CONDITION_GRID:
            assert abs(worst - ref_worst) <= 1e-12

    @pytest.mark.parametrize("name", sorted(CONDITION_LAWS))
    def test_in_place_grid_is_bit_identical(self, name):
        law = CONDITION_LAWS[name]
        assert check_condition(law)[1] == float(np.min(np.diff(grid_reference(law)[1])))

    def test_rejects_degenerate(self):
        with pytest.raises(ModelError):
            check_condition(FinitePmf([0, 1]))


def proof_check_laws():
    """theorem_laws(), 1,000 seeded sparse and Dirichlet pmfs on {0, ..., K},
    K = 2..24, and each parametric family over its parameter; all with mean
    at least 1.05, away from the criticality where the grid's roundoff
    outgrows CONDITION_SLACK."""
    laws = theorem_laws()
    laws += [Poisson(float(mu)) for mu in np.geomspace(1.05, 1e6, 25)]
    laws += [Geometric(float(a)) for a in np.linspace(0.52, 0.999, 25)]
    laws += [Binomial(n, float(q)) for n in (2, 3, 10, 40, 400, 4000)
             for q in np.linspace(1.05 / n, 1.0, 6)]
    rng = np.random.default_rng(14)
    pmfs = 0
    while pmfs < 1000:
        k = int(rng.integers(3, 26))
        if pmfs % 2:
            w = rng.dirichlet(np.full(k, rng.uniform(0.2, 3.0)))
        else:
            w = np.where(rng.random(k) < rng.uniform(0.15, 0.6), rng.random(k), 0.0)
        if w.sum() > 0:
            law = FinitePmf(w.tolist())
            if law.mean() >= 1.05:
                laws.append(law)
                pmfs += 1
    return laws


class TestConditionProof:
    def test_proved_implies_grid_and_verdict_is_the_grids(self):
        proved = unproved_yes = 0
        for law in proof_check_laws():
            ok, worst = check_condition(law)
            grid_ok = worst >= -CONDITION_SLACK
            if _proved_monotone(law):
                proved += 1
                assert grid_ok, law
            elif grid_ok:
                unproved_yes += 1
            assert ok == grid_ok, law
        # the ratio test proves many pmfs, but not every one the grid passes
        assert proved >= 200 and unproved_yes >= 200

    @pytest.mark.parametrize("spec", [
        "pmf:0,0,1", "poisson:2", "geometric:0.6667", "binomial:3,0.8", "binomial:40,0.1",
        "pmf:0.05,0.1,0.1,0.1,0.08,0.08,0.07,0.06,0.06,0.05,0.05,0.04,0.04,0.03,0.03,"
        "0.02,0.02,0.01,0.005,0.005"])
    def test_sweep_on_proved_law_skips_the_grid(self, spec, monkeypatch):
        law = parse_law(spec)
        expected = sweep(law, [0.9, 0.95])

        def no_grid(self, s):
            raise AssertionError("grid evaluated for a proved law")

        monkeypatch.setattr(type(law), "pgf_array", no_grid)
        assert _proved_monotone(law)
        rows = sweep(law, [0.9, 0.95])
        assert rows == expected and all(r.condition_ok for r in rows)

    def test_unproved_pmf_reads_the_grid(self, monkeypatch):
        law = parse_law("pmf:0.4,0.1,0,0,0,0,0,0,0,0,0.5")
        calls = []
        grid = FinitePmf.pgf_array
        monkeypatch.setattr(FinitePmf, "pgf_array",
                            lambda self, s: calls.append(s.size) or grid(self, s))
        assert not _proved_monotone(law)
        rows = sweep(law, [0.5, 0.9])
        assert calls == [CONDITION_GRID]
        assert not any(r.condition_ok for r in rows)
        assert check_condition(law)[0] is False

    @pytest.mark.parametrize("p3,proved", [(0.0625, True), (np.nextafter(0.0625, 1), True),
                                           (np.nextafter(0.0625, 0), False)],
                             ids=["tie", "ulp-above", "ulp-below"])
    def test_ratio_test_is_exact_at_a_tie(self, p3, proved):
        # a_j/b_j = (j+1) p_{j+1} / P(X>j) reads 0, 3/2, 3/2, 4: a tie at
        # j = 1, 2, which p_3 one ulp lower breaks downwards
        assert _proved_monotone(FinitePmf([0.5, 0.0, 0.375, p3, 0.0625])) is proved

    def test_other_subclass_is_not_proved(self):
        class Shifted(Poisson):
            pass

        assert _proved_monotone(Poisson(2.0)) and not _proved_monotone(Shifted(2.0))

    def test_near_critical_binomial_is_proved_where_the_grid_rounds_below(self):
        # m = 1.004: the grid's most negative difference is roundoff past
        # CONDITION_SLACK; h at the two points, to 50 digits, does not fall
        law = Binomial(4000, 0.000251)
        ok, worst = check_condition(law)
        assert worst < -CONDITION_SLACK and ok
        assert sweep(law, [1.0])[0].condition_ok
        s, h_grid = grid_reference(law)
        i = int(np.argmin(np.diff(h_grid)))
        with mpmath.workdps(50):
            def h(x):
                b = 1 - mpmath.mpf(law.q) + mpmath.mpf(law.q) * mpmath.mpf(x)
                return (1 - mpmath.mpf(x)) * law.n * law.q * b ** (law.n - 1) / (1 - b**law.n)

            assert h(s[i + 1]) >= h(s[i])


def theorem_laws():
    """The four families at a few parameters, and seeded random pmfs on
    {0, ..., K}, K = 2..8, with mean at least 1.05."""
    laws = [parse_law(spec) for spec in (
        "pmf:0,0,1", "pmf:0,0,0,0,1", "poisson:1.5", "poisson:2", "poisson:6",
        "geometric:0.6", "geometric:0.6667", "geometric:0.9",
        "binomial:3,0.8", "binomial:10,0.3", "binomial:40,0.1")]
    rng = np.random.default_rng(2005)
    while len(laws) < 60:
        law = FinitePmf(rng.dirichlet(np.ones(rng.integers(3, 10))).tolist())
        if law.mean() >= 1.05:
            laws.append(law)
    return laws


class TestTheorem:
    # roundoff allowance between neighbouring speeds, relative to the speed
    SLACK = 1e-12

    def test_condition_implies_nondecreasing_speed(self):
        # the paper: h(s) = (1-s) f'(s)/(1-f(s)) nondecreasing on (1/m, 1)
        # makes the cluster speed nondecreasing in p on (1/m, 1]
        held = 0
        for law in theorem_laws():
            if not check_condition(law)[0]:
                continue
            held += 1
            lo = 1.0 / law.mean()
            grid = 1.0 - (1.0 - lo) * np.arange(59, -1, -1) / 60
            speeds = [row.cluster_speed for row in sweep(law, grid)]
            for p, a, b in zip(grid[1:], speeds, speeds[1:]):
                assert b >= a - self.SLACK * abs(a), (law, p, a, b)
        assert held >= 20


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
    """The delay as the direct sum over ptilde_k 2 M N(p,k), with
    N(p,k) = p rho c_{k+1}/c_k from the reference coefficients of
    `oracles`, apart from the recurrence that the rows and
    `mean_excursions` read."""
    if model.rho == 0.0:
        return 0.0
    big_m = bush_mean_size(model)
    law, lam = model.law, model.lam
    total = 0.0
    for k, pk in backbone_pmf_iter(model):
        if pk > 0.0:
            with mpmath.workdps(50):
                ratio = float(mp_taylor(law, lam, k + 1) / mp_taylor(law, lam, k))
            total += pk * 2.0 * big_m * model.p * model.rho * ratio
    return total


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


def pointwise_row(model, terms):
    """`_row`'s two sums over the first `terms` values of ptilde_k from the
    reference coefficients of `oracles`, apart from the recurrence `_row`
    reads, and the delay's one term past them."""
    law, lam = model.law, model.lam
    with mpmath.workdps(50):
        p, q = mpmath.mpf(model.p), 1 - mpmath.mpf(model.rho)
        pk = [float(mp_taylor(law, lam, k) * p**k * q ** (k - 1)) for k in range(1, terms + 2)]
    series = sum(p * (k - 1) / (k + 1) for k, p in enumerate(pk[:-1], 1))
    if model.rho == 0.0:
        return series, 0.0
    tail = sum(pk[1:])
    return series, 2.0 * model.rho / (1.0 - model.rho) * bush_mean_size(model) * tail


class TestRecurrenceRow:
    """`_row` builds ptilde by the law's coefficient recurrence; the
    reference coefficients over the same terms give the same row."""

    @pytest.mark.parametrize("spec", ROW_LAWS, ids=lambda s: s if len(s) < 20 else "pmf20")
    def test_matches_pointwise_backbone_pmf(self, spec):
        law = parse_law(spec)
        lo = 1 / law.mean()
        for f in ROW_FRACTIONS:
            m = PercolatedModel(law, lo + (1 - lo) * f if f < 1 else 1.0)
            terms = sum(1 for _ in backbone_pmf_iter(m))
            s, delay = _row(m)
            ref_s, ref_delay = pointwise_row(m, terms)
            assert s == pytest.approx(ref_s, rel=1e-13, abs=0), m.p
            assert delay == pytest.approx(ref_delay, rel=1e-13, abs=0), m.p


def thinned_speed_oracle(pmf):
    """sum_{k>=1} pbar_k (k-1)/(k+1) at 30 digits for a thinned law pbar
    with mean about 1000."""
    with mpmath.workdps(30):
        return float(mpmath.fsum(pmf(k) * mpmath.mpf(k - 1) / (k + 1) for k in range(1, 3000)))


class TestLargeSupportRows:
    """At p = 1/2 these laws thin to Poisson(1000) and Binomial(4000, 1/4),
    and rho underflows to 0, so S(p) is the thinned law's series. Their
    coefficients c_k(lambda) overflow a float; ptilde_k does not."""

    @pytest.mark.parametrize("spec,pmf", [
        ("poisson:2000", lambda k: mpmath.exp(-1000) * mpmath.mpf(1000) ** k
         / mpmath.factorial(k)),
        ("binomial:4000,0.5", lambda k: mpmath.binomial(4000, k) * mpmath.mpf(0.25) ** k
         * mpmath.mpf(0.75) ** (4000 - k)),
    ], ids=["poisson:2000", "binomial:4000,0.5"])
    def test_speed_is_the_thinned_series(self, spec, pmf):
        (row,) = sweep(parse_law(spec), [0.5])
        assert row.rho == 0.0 and row.mean_delay == 0.0
        assert row.backbone_speed == pytest.approx(thinned_speed_oracle(pmf), abs=1e-12)
        assert row.cluster_speed == row.backbone_speed
