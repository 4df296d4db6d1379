import math
import sys

import mpmath
import numpy as np
import pytest
from oracles import mp_taylor

from gwspeed import (
    Binomial,
    ConvergenceError,
    FinitePmf,
    Geometric,
    ModelError,
    PercolatedModel,
    Poisson,
    backbone_pmf,
    bush_mean_size,
    bush_pmf,
    mean_excursions,
    parse_law,
    rho_derivative,
    solve_rho,
    thinned_pmf,
)
from gwspeed.percolation import (
    G_ROUNDOFF,
    MAX_NEWTON_ITER,
    TOL,
    backbone_pmf_iter,
    bush_pmf_iter,
    thinned_pmf_iter,
)

BINARY = FinitePmf([0, 0, 1])

LAWS = {
    "binary": BINARY,
    "geometric": Geometric(2 / 3),
    "poisson": Poisson(2.0),
    "binomial": Binomial(3, 0.8),
}

# grid strictly inside (1/m, 1) for every law above (max 1/m is 0.5)
P_GRID = np.arange(0.55, 1.0, 0.05)

# frozen oracle: 10,000 plain fixed-point iterations of rho = f(1-p+p*rho)
# for Poisson(2) at p = 0.9, tol-free
POISSON_RHO_09 = 0.26757003336323354

# PGFs f and f' in mpmath arithmetic, from the same float parameters
Q = mpmath.mpf(0.8)
MP_PGFS = {
    "poisson:2": (lambda s: mpmath.exp(2 * (s - 1)), lambda s: 2 * mpmath.exp(2 * (s - 1))),
    "binomial:3,0.8": (lambda s: (1 - Q + Q * s) ** 3, lambda s: 3 * Q * (1 - Q + Q * s) ** 2),
    "pmf:0,0,1": (lambda s: s**2, lambda s: 2 * s),
}


def rho_oracle(spec, p):
    """(rho, 1 - mhat) at 50 digits, by bisection: first for the minimum of
    the convex g(x) = f(1-p+px) - x, then for its root to the left of it."""
    f, df = MP_PGFS[spec]
    with mpmath.workdps(50):
        p = mpmath.mpf(p)

        def bisect(fn, lo, hi):  # fn > 0 at lo, < 0 at hi
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if fn(mid) > 0 else (lo, mid)
            return lo

        x_min = bisect(lambda x: 1 - p * df(1 - p + p * x), mpmath.mpf(0), mpmath.mpf(1))
        rho = bisect(lambda x: f(1 - p + p * x) - x, mpmath.mpf(0), x_min)
        return rho, 1 - p * df(1 - p + p * rho)


class TestSolveRho:
    @pytest.mark.parametrize("p", P_GRID)
    def test_binary_closed_form(self, p):
        rho, lam = solve_rho(BINARY, p)
        assert rho == pytest.approx((1 - p) ** 2 / p**2, abs=1e-10)
        assert lam == pytest.approx(1 - p + p * rho, abs=0)

    def test_no_percolation_no_extinction(self):
        for law in (BINARY, FinitePmf([0, 0.5, 0.5])):
            rho, lam = solve_rho(law, 1.0)
            assert rho == pytest.approx(0.0, abs=1e-12)
            assert lam == pytest.approx(0.0, abs=1e-12)

    def test_poisson_long_iteration_oracle(self):
        rho, _ = solve_rho(Poisson(2.0), 0.9)
        assert rho == pytest.approx(POISSON_RHO_09, abs=1e-10)

    @pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-4, 1e-6, 1e-7])
    @pytest.mark.parametrize("spec", sorted(MP_PGFS))
    def test_high_precision_oracle(self, spec, gap):
        law = parse_law(spec)
        p = 1 / law.mean() + gap
        rho, _ = solve_rho(law, p)
        exact, slope = rho_oracle(spec, p)
        # the root's conditioning is 1/|g'(rho)| = 1/(1 - mhat)
        bound = 1e-12 if gap >= 1e-4 else 1e-12 + 1e-15 / float(slope)
        assert abs(rho - float(exact)) <= bound

    @pytest.mark.parametrize("gap", [1e-9, 1e-11, 1e-13])
    @pytest.mark.parametrize("spec", ["pmf:0,0,1", "poisson:2", "binomial:40,0.1"])
    def test_unresolvable_root_is_an_error(self, spec, gap):
        # closer to 1/m than this, roundoff cannot tell rho from the root 1
        law = parse_law(spec)
        with pytest.raises(ConvergenceError):
            solve_rho(law, 1 / law.mean() + gap)

    def test_rejects_subcritical_p(self):
        with pytest.raises(ModelError):
            solve_rho(BINARY, 0.5)
        with pytest.raises(ModelError):
            solve_rho(BINARY, 0.3)

    def test_rejects_subcritical_law(self):
        with pytest.raises(ModelError):
            solve_rho(Geometric(0.4), 0.9)  # mean 2/3
        with pytest.raises(ModelError):
            solve_rho(Geometric(0.5), 0.9)  # mean exactly 1

    def test_rejects_degenerate_law(self):
        with pytest.raises(ModelError):
            solve_rho(FinitePmf([0, 1]), 0.9)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_strictly_decreasing_in_p(self, name):
        rhos = [solve_rho(LAWS[name], p)[0] for p in P_GRID]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))


def two_call_newton(law, p):
    """Reference for `solve_rho` and `PercolatedModel`: the same Newton
    iteration with f and f' from two validated `pgf_derivative` calls per
    step, as it was written before the one-call `(f, f')` pair. Returns
    (rho, lambda, m_hat)."""
    m = law.mean()
    if m <= 1.0:
        raise ModelError(f"law mean {m} <= 1: no supercritical phase")
    if not 1.0 / m < p <= 1.0:
        raise ModelError(f"retaining probability p={p} not in (1/m, 1] = ({1.0 / m}, 1]")
    if law.is_degenerate:
        raise ModelError("degenerate law f(s) = s has no meaningful extinction problem")
    rho = 0.0
    for _ in range(MAX_NEWTON_ITER):
        lam = 1.0 - p + p * rho
        g = law.pgf_derivative(lam, 0) - rho
        gp = p * law.pgf_derivative(lam, 1) - 1.0
        if not (g > 0.0 and gp < 0.0):
            break
        step = -g / gp
        rho = min(rho + step, 1.0)
        if step <= TOL * 0.01:
            break
    else:
        raise ConvergenceError(
            f"Newton iteration for rho did not converge within {MAX_NEWTON_ITER} "
            f"steps (p={p})"
        )
    lam = 1.0 - p + p * rho
    if abs(rho - law.pgf_derivative(lam, 0)) > 10 * TOL:
        raise ConvergenceError(f"rho residual exceeds {10 * TOL} after refinement (p={p})")
    slope = 1.0 - p * law.pgf_derivative(lam, 1)
    if not G_ROUNDOFF < 0.1 * slope * (1.0 - rho):
        raise ConvergenceError(
            f"rho is not resolved from the trivial root 1 in double precision "
            f"(p={p} too close to 1/m)"
        )
    return rho, lam, p * law.pgf_derivative(lam, 1)


NEWTON_LAWS = ["poisson:2", "pmf:0,0,1", "geometric:0.6667", "binomial:3,0.8",
               "binomial:40,0.1", "pmf:0.4,0.1,0,0,0,0,0,0,0,0,0.5", "poisson:1.3",
               "geometric:0.9", "pmf:0.1,0.2,0.3,0.4",
               "pmf:0.05,0.1,0.1,0.1,0.08,0.08,0.07,0.06,0.06,0.05,0.05,0.04,0.04,"
               "0.03,0.03,0.02,0.02,0.01,0.005,0.005"]


def outcome(fn, *args):
    """Each float's bits, or the exception's type and message."""
    try:
        return [float(v).hex() for v in fn(*args)]
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome
        return type(exc), str(exc)


def model_values(law, p):
    m = PercolatedModel(law, p)
    return m.rho, m.lam, m.m_hat


class TestNewtonOracle:
    """`solve_rho` takes f and f' from one `_pgf_pair` call per step; rho,
    lambda and m_hat stay bit-identical to the two-call iteration, and the
    same inputs raise the same errors."""

    @pytest.mark.parametrize("spec", NEWTON_LAWS, ids=lambda s: s if len(s) < 25 else "pmf20")
    def test_bit_identical_to_two_call_newton(self, spec):
        law = parse_law(spec)
        lo = 1.0 / law.mean()
        raised = 0
        for gap in np.geomspace(1e-7, 1.0, 80):
            p = lo + gap  # a numpy scalar, as sweep grids give
            expected = outcome(two_call_newton, law, p)
            solved = isinstance(expected, list)
            assert outcome(solve_rho, law, p) == (expected[:2] if solved else expected), p
            assert outcome(model_values, law, p) == expected, p
            raised += not solved
        assert 0 < raised < 80  # both errors near 1/m and p > 1 are covered


class TestModel:
    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
    def test_invariants(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        assert 0.0 <= m.rho < 1.0
        assert 0.0 < m.lam <= 1.0
        assert m.m_hat < 1.0
        assert m.lam == 1.0 - p + p * m.rho
        assert abs(m.rho - m.law.pgf_derivative(m.lam)) <= 1e-11
        # Eq. (p) rearranged
        assert p * (1.0 - m.law.pgf_derivative(m.lam)) == pytest.approx(1.0 - m.lam, abs=1e-10)

    def test_immutable(self):
        m = PercolatedModel(BINARY, 0.75)
        with pytest.raises(AttributeError):
            m.rho = 0.5

    def test_constructor_rejects_critical_p(self):
        with pytest.raises(ModelError):
            PercolatedModel(BINARY, 0.5)


class TestThinnedPmf:
    def test_binary_both_edges(self):
        m = PercolatedModel(BINARY, 0.75)
        assert thinned_pmf(m, 2) == pytest.approx(0.5625, abs=1e-12)

    def test_binary_one_edge(self):
        m = PercolatedModel(BINARY, 0.75)
        assert thinned_pmf(m, 1) == pytest.approx(0.375, abs=1e-12)

    def test_geometric_l0_against_double_sum(self):
        # pbar_0 = sum_r p_r (1-p)^r, direct to tail 1e-14
        a, p = 0.5, 0.8
        m = PercolatedModel(Geometric(2 / 3), 0.8)  # supercritical carrier
        # the identity pbar_0 = f(1-p) holds for any law; check the
        # spec's Geometric(0.5) value through a bare double sum
        law = Geometric(a)
        total, r = 0.0, 0
        while True:
            term = law.pmf(r) * (1 - p) ** r
            total += term
            if term < 1e-14 and r > 10:
                break
            r += 1
        assert law.pgf_derivative(1 - p, 0) == pytest.approx(total, abs=1e-12)
        assert total == pytest.approx(0.5 / 0.9, abs=1e-6)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", [0.6, 0.8, 1.0])
    def test_matches_direct_double_sum(self, name, p):
        model = PercolatedModel(LAWS[name], p)
        law = LAWS[name]
        for l in range(6):
            direct, r = 0.0, 0
            while True:
                term = (law.pmf(l + r) * p**l * (1 - p) ** r
                        * math.comb(l + r, r))
                direct += term
                if (law.pmf(l + r) < 1e-16 and r > 10) or r > 500:
                    break
                r += 1
            assert thinned_pmf(model, l) == pytest.approx(direct, abs=1e-12)

    def test_negative_l_rejected(self):
        m = PercolatedModel(BINARY, 0.75)
        with pytest.raises(ValueError):
            thinned_pmf(m, -1)


class TestRhoDerivative:
    def test_binary_closed_form(self):
        m = PercolatedModel(BINARY, 0.75)
        # rho(p) = (1-p)^2/p^2 gives rho'(p) = -2(1-p)/p^3
        assert rho_derivative(m) == pytest.approx(-32 / 27, abs=1e-10)

    def test_binary_p_one(self):
        m = PercolatedModel(BINARY, 1.0)
        assert rho_derivative(m) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_finite_difference(self, name, p):
        law = LAWS[name]
        m = PercolatedModel(law, p)
        h = 1e-6
        fd = (solve_rho(law, p + h)[0] - solve_rho(law, p - h)[0]) / (2 * h)
        d = rho_derivative(m)
        assert d <= 0.0
        assert d == pytest.approx(fd, abs=1e-5)


class TestBackbonePmf:
    def test_binary_k1(self):
        m = PercolatedModel(BINARY, 0.75)
        assert backbone_pmf(m, 1) == pytest.approx(0.5, abs=1e-12)
        assert backbone_pmf(m, 1) == pytest.approx(m.m_hat, abs=1e-12)

    def test_binary_k2(self):
        m = PercolatedModel(BINARY, 0.75)
        assert backbone_pmf(m, 2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", [0.6, 0.8])
    def test_k1_is_m_hat(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        assert backbone_pmf(m, 1) == pytest.approx(m.m_hat, abs=1e-12)

    def test_k0_is_zero_not_error(self):
        m = PercolatedModel(BINARY, 0.75)
        assert backbone_pmf(m, 0) == 0.0
        with pytest.raises(ValueError):
            backbone_pmf(m, -1)


class TestBushLaw:
    def test_binary_k0(self):
        m = PercolatedModel(BINARY, 0.75)
        assert bush_pmf(m, 0) == pytest.approx(0.0625 * 9, abs=1e-12)

    def test_normalized(self):
        m = PercolatedModel(BINARY, 0.75)
        assert sum(pk for _, pk in bush_pmf_iter(m)) == pytest.approx(1.0, abs=1e-12)

    def test_mean_is_m_hat(self):
        m = PercolatedModel(BINARY, 0.75)
        mean = sum(k * pk for k, pk in bush_pmf_iter(m))
        assert mean == pytest.approx(m.m_hat, abs=1e-12)
        assert mean == pytest.approx(0.5, abs=1e-12)

    def test_rho_zero_rejected(self):
        m = PercolatedModel(BINARY, 1.0)
        with pytest.raises(ModelError):
            bush_pmf(m, 0)


class TestBushMeanSize:
    def test_binary(self):
        m = PercolatedModel(BINARY, 0.75)
        assert m.m_hat == pytest.approx(0.5, abs=1e-12)
        assert bush_mean_size(m) == pytest.approx(2.0, abs=1e-12)

    def test_p0_zero_law_at_full_retention(self):
        m = PercolatedModel(BINARY, 1.0)
        assert bush_mean_size(m) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", P_GRID)
    def test_two_m_hat_expressions_agree(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        f = m.law.pgf_derivative
        direct = m.p * f(m.lam, 1)
        if f(m.lam) < 1.0:  # alternate form undefined at rho = lam -> f = 1
            alt = (1 - m.lam) * f(m.lam, 1) / (1 - f(m.lam))
            assert abs(direct - alt) <= 1e-10


class TestMeanExcursions:
    def test_binary_k2_zero(self):
        m = PercolatedModel(BINARY, 0.75)
        assert mean_excursions(m, 2) == 0.0

    def test_binary_k1(self):
        m = PercolatedModel(BINARY, 0.75)
        assert mean_excursions(m, 1) == pytest.approx(0.125, abs=1e-12)

    def test_regular_tree_full_degree(self):
        m = PercolatedModel(FinitePmf([0, 0, 0, 1]), 0.75)  # d = 3
        assert mean_excursions(m, 3) == 0.0

    def test_impossible_degree_rejected(self):
        m = PercolatedModel(BINARY, 0.75)
        with pytest.raises(ModelError):
            mean_excursions(m, 3)  # f''' = 0: degree 4 impossible
        with pytest.raises(ValueError):
            mean_excursions(m, 0)


class TestPointwiseFromStream:
    """The pointwise functions take their terms from the streams that the
    iterators, the rows and the bush sampler read."""

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", [0.6, 0.8, 1.0])
    def test_terms_are_the_iterators(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        for l, pl in thinned_pmf_iter(m):
            assert thinned_pmf(m, l) == pl
        terms = dict(backbone_pmf_iter(m))
        for k, pk in terms.items():
            assert backbone_pmf(m, k) == pk
            if pk == 0.0:  # the binary law at p = 1, k = 1
                with pytest.raises(ModelError):
                    mean_excursions(m, k)
                continue
            with mpmath.workdps(50):
                expected = (m.p * m.rho * mp_taylor(m.law, m.lam, k + 1)
                            / mp_taylor(m.law, m.lam, k))
            assert mean_excursions(m, k) == pytest.approx(float(expected), rel=1e-13, abs=0)

    def test_past_a_finite_support(self):
        m = PercolatedModel(Binomial(3, 0.8), 0.8)
        assert thinned_pmf(m, 4) == backbone_pmf(m, 4) == 0.0
        assert mean_excursions(m, 3) == 0.0

    def test_large_poisson_gives_the_stream_term(self):
        # f^(1500)(lambda)/1500! overflows a float; the terms are probabilities
        m = PercolatedModel(parse_law("poisson:3000"), 0.5)
        assert backbone_pmf(m, 1500) == dict(backbone_pmf_iter(m))[1500]
        assert thinned_pmf(m, 1500) == dict(thinned_pmf_iter(m))[1500]
        assert backbone_pmf(m, 1500) == pytest.approx(0.010300073145108538, rel=1e-14)
        assert m.rho == 0.0 and mean_excursions(m, 1500) == 0.0

    def test_mean_excursions_where_the_coefficient_overflows(self):
        # Poisson: c_{k+1}/c_k = mu/(k+1), so N(p, k) = p rho mu/(k+1)
        m = PercolatedModel(Poisson(1e5), 2e-4)
        assert m.rho > 0.0
        assert mean_excursions(m, 100) == pytest.approx(m.p * m.rho * 1e5 / 101, rel=1e-13)

    def test_mean_excursions_refuses_subnormal_terms(self):
        # Geometric: c_{k+1}/c_k = a/(1-a lambda), so N(p, k) = p rho a/(1-a lambda);
        # ptilde_2174 is the first term below the smallest normal float
        m = PercolatedModel(Geometric(0.8), 0.9)
        assert sys.float_info.min > backbone_pmf(m, 2174) > 0.0
        assert backbone_pmf(m, 2173) >= sys.float_info.min
        assert mean_excursions(m, 2172) == pytest.approx(
            m.p * m.rho * 0.8 / (1 - 0.8 * m.lam), rel=1e-13)
        for k in (2173, 2174, 2200):
            with pytest.raises(ModelError, match="below the smallest normal float"):
                mean_excursions(m, k)
        # a subnormal ptilde_1 under a normal ptilde_2: p_0 = rho = lambda = 1e-310
        m = PercolatedModel(FinitePmf([1e-310, 0, 1]), 1.0)
        assert sys.float_info.min > backbone_pmf(m, 1) > 0.0 and backbone_pmf(m, 2) == 1.0
        with pytest.raises(ModelError, match="ptilde_1 = 2e-310"):
            mean_excursions(m, 1)


class TestNormalization:
    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", [0.55, 0.7, 0.85, 0.99])
    def test_all_three_laws_sum_to_one(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        assert sum(v for _, v in thinned_pmf_iter(m)) == pytest.approx(1.0, abs=1e-10)
        assert sum(v for _, v in backbone_pmf_iter(m)) == pytest.approx(1.0, abs=1e-10)
        if m.rho > 0:
            assert sum(v for _, v in bush_pmf_iter(m)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("p", [0.55, 0.7, 0.85, 0.99])
    def test_thinned_mean(self, name, p):
        m = PercolatedModel(LAWS[name], p)
        mean = sum(l * v for l, v in thinned_pmf_iter(m))
        assert mean == pytest.approx(p * LAWS[name].mean(), abs=1e-10)


class TestSamplingConsistency:
    def test_thinned_histogram(self):
        # thin-by-binomial of offspring.sample vs thinned_pmf, 5 SE
        law = Poisson(2.0)
        m = PercolatedModel(law, 0.8)
        rng = np.random.default_rng(11)
        n = 2 * 10**5
        counts = np.zeros(30, dtype=int)
        for _ in range(n):
            k = law.sample(rng)
            counts[min(int(rng.binomial(k, 0.8)) if k else 0, 29)] += 1
        for l in range(10):
            pl = thinned_pmf(m, l)
            se = math.sqrt(pl * (1 - pl) / n)
            assert abs(counts[l] / n - pl) <= 5 * se


def poisson_pmf(mu):
    return lambda l: mpmath.exp(-mu) * mpmath.mpf(mu) ** l / mpmath.factorial(l)


def binomial_pmf(n, q):
    return lambda l: mpmath.binomial(n, l) * q**l * (1 - q) ** (n - l)


class TestExactThinning:
    """Thinning by p maps Poisson(mu) to Poisson(mu p) and Binomial(n, q)
    to Binomial(n, q p): exact checks of pbar for large-support laws, whose
    derivatives f^(l) overflow a float."""

    @pytest.mark.parametrize("spec,exact", [
        ("poisson:200", poisson_pmf(100)),
        ("binomial:400,0.5", binomial_pmf(400, mpmath.mpf(0.25))),
        ("poisson:2000", poisson_pmf(1000)),
        ("binomial:4000,0.5", binomial_pmf(4000, mpmath.mpf(0.25))),
    ], ids=["poisson:200", "binomial:400,0.5", "poisson:2000", "binomial:4000,0.5"])
    def test_thinned_pmf_is_the_thinned_law(self, spec, exact):
        m = PercolatedModel(parse_law(spec), 0.5)
        terms = list(thinned_pmf_iter(m))
        with mpmath.workdps(30):
            assert max(abs(v - float(exact(l))) for l, v in terms) <= 1e-12
        assert sum(v for _, v in terms) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("spec,exact", [
        ("poisson:2000", poisson_pmf(1000)),
        ("binomial:4000,0.5", binomial_pmf(4000, mpmath.mpf(0.25))),
    ], ids=["poisson:2000", "binomial:4000,0.5"])
    def test_backbone_law_is_the_thinned_law(self, spec, exact):
        # rho underflows to 0 here, so ptilde_k = pbar_k for k >= 1; the
        # coefficients c_k(lambda) themselves overflow a float
        m = PercolatedModel(parse_law(spec), 0.5)
        assert m.rho == 0.0
        terms = list(backbone_pmf_iter(m))
        with mpmath.workdps(30):
            assert max(abs(v - float(exact(k))) for k, v in terms) <= 1e-12
