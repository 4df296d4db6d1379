import itertools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from oracles import exact_taylor, mp_taylor

from gwspeed import (
    Binomial,
    FinitePmf,
    Geometric,
    LawError,
    Poisson,
    parse_law,
)
from gwspeed.offspring import SUPPORT_CAP, SupportCapError, truncated_support

LAWS = {
    "binary": FinitePmf([0, 0, 1]),
    "geometric": Geometric(2 / 3),
    "poisson": Poisson(2.0),
    "binomial": Binomial(3, 0.8),
}

S_GRID = np.linspace(0.0, 1.0, 21)

PMF20 = parse_law("pmf:0.05,0.1,0.1,0.1,0.08,0.08,0.07,0.06,0.06,0.05,0.05,0.04,0.04,"
                  "0.03,0.03,0.02,0.02,0.01,0.005,0.005")
PAIR_LAWS = {**LAWS, "binomial:40,0.1": Binomial(40, 0.1), "pmf20": PMF20,
             "geometric:0.9": Geometric(0.9), "poisson:1.3": Poisson(1.3)}


class TestParseLaw:
    def test_binary_tree(self):
        law = parse_law("pmf:0,0,1")
        assert isinstance(law, FinitePmf)
        assert law.pmf(2) == 1.0

    def test_geometric(self):
        law = parse_law("geometric:0.5")
        assert isinstance(law, Geometric)
        # p_k = a^k (1-a)
        for k in range(5):
            assert law.pmf(k) == pytest.approx(0.5**k * 0.5, abs=1e-15)

    def test_renormalization(self):
        law = parse_law("pmf:1,2,1")
        assert law.weights == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)
        assert sum(law.weights) == pytest.approx(1.0, abs=1e-12)

    def test_binomial(self):
        law = parse_law("binomial:3,0.8")
        assert law.n == 3 and law.q == 0.8

    @pytest.mark.parametrize("bad", [
        "nonsense", "geometric:", "geometric:1.5", "geometric:0",
        "poisson:-1", "poisson:abc", "binomial:3", "binomial:0,0.5",
        "pmf:0,0,0", "pmf:-1,2", "unknown:1",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(LawError):
            parse_law(bad)


class TestPgfDerivative:
    def test_binary_first_derivative(self):
        # f(s) = s^2, f'(0.5) = 1
        assert LAWS["binary"].pgf_derivative(0.5, 1) == pytest.approx(1.0, abs=1e-15)

    def test_geometric_closed_form(self):
        a = 0.5
        law = Geometric(a)
        for s in S_GRID:
            assert law.pgf_derivative(s, 0) == pytest.approx(
                (1 - a) / (1 - a * s), rel=1e-14)

    def test_poisson_first_derivative(self):
        # f' = mu f; central difference oracle with h = 1e-6
        law = Poisson(2.0)
        h = 1e-6
        fd = (law.pgf_derivative(0.9 + h, 0) - law.pgf_derivative(0.9 - h, 0)) / (2 * h)
        val = law.pgf_derivative(0.9, 1)
        assert val == pytest.approx(2 * math.exp(-0.2), rel=1e-9)
        assert val == pytest.approx(fd, rel=1e-6)

    def test_finite_pmf_order_past_support_is_zero(self):
        assert LAWS["binary"].pgf_derivative(0.7, 3) == 0.0
        assert LAWS["binomial"].pgf_derivative(0.7, 4) == 0.0

    def test_overflow_is_an_overflow_error(self):
        # Poisson(200): f^(150)(1) = 200^150, and 400! does not fit a float
        with pytest.raises(OverflowError):
            Poisson(200.0).pgf_derivative(1.0, 150)
        with pytest.raises(OverflowError):
            Poisson(200.0).pgf_derivative(0.5, 400)

    def test_domain_errors(self):
        with pytest.raises(LawError):
            LAWS["binary"].pgf_derivative(1.5, 0)
        with pytest.raises(LawError):
            LAWS["binary"].pgf_derivative(-0.1, 0)
        with pytest.raises(LawError):
            LAWS["binary"].pgf_derivative(0.5, -1)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_finite_difference_of_lower_order(self, name, order):
        law = LAWS[name]
        h = 1e-6
        for s in np.linspace(2 * h, 1 - 2 * h, 15):
            fd = (law.pgf_derivative(s + h, order - 1)
                  - law.pgf_derivative(s - h, order - 1)) / (2 * h)
            exact = law.pgf_derivative(s, order)
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_monotone_and_convex(self, name):
        law = LAWS[name]
        f = [law.pgf_derivative(s, 0) for s in S_GRID]
        fp = [law.pgf_derivative(s, 1) for s in S_GRID]
        assert all(b >= a - 1e-14 for a, b in zip(f, f[1:]))
        assert all(b >= a - 1e-14 for a, b in zip(fp, fp[1:]))

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_normalization_and_mean_consistency(self, name):
        law = LAWS[name]
        assert law.pgf_derivative(1.0, 0) == pytest.approx(1.0, abs=1e-12)
        assert law.pgf_derivative(1.0, 1) == pytest.approx(law.mean(), abs=1e-10)


class TestMean:
    def test_binary(self):
        assert LAWS["binary"].mean() == pytest.approx(2.0, abs=1e-15)

    def test_geometric_against_truncated_sum(self):
        a = 0.5
        law = Geometric(a)
        total, k = 0.0, 0
        while a**k * (1 - a) > 1e-14 or k < 10:
            total += k * a**k * (1 - a)
            k += 1
        assert law.mean() == pytest.approx(1.0, abs=1e-12)
        assert law.mean() == pytest.approx(total, abs=1e-10)

    def test_binomial(self):
        assert Binomial(3, 0.8).mean() == pytest.approx(2.4, abs=1e-12)


class TestSample:
    def test_degenerate_always_two(self):
        rng = np.random.default_rng(0)
        assert all(LAWS["binary"].sample(rng) == 2 for _ in range(100))

    def test_geometric_sample_mean(self):
        law = Geometric(0.5)
        rng = np.random.default_rng(1)
        n = 10**6
        draws = np.array([law.sample(rng) for _ in range(n)])
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 1.0) <= 4 * se

    def test_poisson_sample_variance(self):
        law = Poisson(2.0)
        rng = np.random.default_rng(2)
        n = 10**6
        draws = np.array([law.sample(rng) for _ in range(n)])
        # SE of the sample variance of a Poisson via the fourth moment
        var = draws.var(ddof=1)
        m4 = ((draws - draws.mean()) ** 4).mean()
        se_var = math.sqrt((m4 - var**2) / n)
        assert abs(var - 2.0) <= 4 * se_var

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_empirical_pmf(self, name):
        law = LAWS[name]
        rng = np.random.default_rng(3)
        n = 10**6
        draws = np.array([law.sample(rng) for _ in range(n)])
        counts = np.bincount(draws, minlength=11)
        for k in range(11):
            pk = law.pmf(k)
            se = math.sqrt(max(pk * (1 - pk), 1e-12) / n)
            assert abs(counts[k] / n - pk) <= 5 * se

    def test_deterministic_given_rng_state(self):
        law = Poisson(2.0)
        a = [law.sample(np.random.default_rng(9)) for _ in range(1)]
        b = [law.sample(np.random.default_rng(9)) for _ in range(1)]
        assert a == b


def test_degenerate_flag():
    assert FinitePmf([0, 1]).is_degenerate
    assert not FinitePmf([0, 0, 1]).is_degenerate
    assert not Geometric(0.5).is_degenerate


def test_law_is_immutable():
    with pytest.raises(AttributeError):
        LAWS["poisson"].mu = 3.0


def close(got, exact, rel, abs_=0.0):
    """|got - exact| <= rel |exact| + abs_ against a reference number, and
    got exactly 0.0 where the reference is exactly 0."""
    if exact == 0:
        return got == 0.0
    return abs(got - exact) <= rel * abs(exact) + abs_


class TestTaylor:
    """f^(k)(s) and c_k(s) = f^(k)(s)/k! against the references of
    `oracles`: closed forms at 50 digits, exact sums for a pmf."""

    @pytest.mark.parametrize("name", sorted(PAIR_LAWS))
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.75, 1.0])
    def test_matches_derivative_over_factorial(self, name, s):
        # pgf_derivative reads `_pgf_pair` for orders 0 and 1 and the
        # coefficient stream above; both routes, orders 0 to 8
        law = PAIR_LAWS[name]
        terms = law.taylor_terms(s, 1.0)
        for k in range(9):
            exact = mp_taylor(law, s, k)
            assert close(law.pgf_derivative(s, k), exact * math.factorial(k), 1e-13), k
            assert close(next(terms, 0.0), exact, 1e-13), k

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_pmf_is_taylor_at_zero(self, name):
        # the stream's running product: up to k roundings off the exact p_k
        law = LAWS[name]
        for k in range(8):
            assert close(law.pmf(k), mp_taylor(law, 0.0, k), 1e-14), k
        assert law.pmf(-1) == 0.0

    def test_zero_past_finite_support(self):
        assert FinitePmf([0, 0.5, 0.5]).pgf_derivative(0.4, 3) == 0.0
        assert Binomial(3, 0.8).pgf_derivative(0.4, 4) == 0.0
        assert FinitePmf([0, 0.5, 0.5]).pmf(3) == Binomial(3, 0.8).pmf(4) == 0.0
        # k! does not fit a float; the derivative is still exactly 0
        assert Binomial(3, 0.8).pgf_derivative(0.4, 200) == 0.0

    def test_binomial_full_retention_at_zero(self):
        # q = 1: 1 - q + q s vanishes at s = 0 and all mass sits on n
        law = Binomial(3, 1.0)
        assert [law.pmf(k) for k in range(5)] == [0.0, 0.0, 0.0, 1.0, 0.0]
        assert [law.pgf_derivative(0.0, k) for k in range(5)] == [0.0, 0.0, 0.0, 6.0, 0.0]

    @pytest.mark.parametrize("law,k", [(Poisson(200.0), 400), (Binomial(400, 0.5), 200),
                                       (Geometric(0.9), 500),
                                       (FinitePmf([1.0] * 200), 100)])
    def test_high_orders_stay_finite(self, law, k):
        # deep in the series, where f^(k)(s) overflows a float or nearly
        # does; the stream's term c_k(s) x^k with s + x = 1 stays finite
        value = next(itertools.islice(law.taylor_terms(0.5, 0.5), k, None))
        assert 0.0 < value < math.inf
        with mpmath.workdps(50):
            assert close(value, mp_taylor(law, 0.5, k) * mpmath.mpf(0.5) ** k, 1e-13)

    def test_binomial_coefficient_exact_for_large_n(self):
        # at s = 1 the coefficient is C(n,k) q^k, by 200 ratio steps
        law = Binomial(400, 0.5)
        expected = math.comb(400, 200) / 2**200
        value = next(itertools.islice(law.taylor_terms(1.0, 1.0), 200, None))
        assert value == pytest.approx(expected, rel=1e-13)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("spec", ["pmf:nan,0,1", "pmf:inf,1", "pmf:0,-inf,1",
                                      "poisson:inf", "poisson:1e400", "poisson:nan"])
    def test_rejected(self, spec):
        with pytest.raises(LawError):
            parse_law(spec)

    def test_overflowing_sum_rescaled(self):
        # the weights' float sum is inf; the law is the uniform one on {0..3}
        assert FinitePmf([1e308] * 4).weights == FinitePmf([1, 1, 1, 1]).weights

    def test_finite_sum_keeps_its_bits(self):
        w = np.array([0.3, 1e-300, 2.7, 1e300])
        assert FinitePmf(w).weights == tuple(w / w.sum())


class TestPgfPair:
    @pytest.mark.parametrize("name", sorted(PAIR_LAWS))
    def test_bit_identical_to_two_derivative_calls(self, name):
        law = PAIR_LAWS[name]
        for s in [*S_GRID, 1 / 3, 0.7071067811865476, 1 - 1e-9, 5e-324]:
            s = float(s)
            assert law._pgf_pair(s) == (law.pgf_derivative(s, 0), law.pgf_derivative(s, 1))


class TestFinitePmfTaylor:
    """`FinitePmf.taylor_terms`, a Taylor shift by Horner in t, against the
    exact rational sums."""

    @pytest.mark.parametrize("s,k", [(0.5, 0), (0.5, 1), (0.5, 550), (0.5, 1099),
                                     (0.3, 900), (0.9, 700)])
    def test_1100_weights_are_finite_and_exact(self, s, k):
        # C(j, k) does not fit a float past about j = 1030; with s + x = 1
        # the terms do. Term 1099 at s = 0.5 and term 700 at s = 0.9 are
        # below 1e-300 and underflow: they meet an absolute bound
        law = FinitePmf([1.0] * 1100)
        x = 1.0 - s
        for scale in (1.0, 3.0):
            value = next(itertools.islice(law.taylor_terms(s, x, scale), k, None))
            assert math.isfinite(value)
            exact = scale * exact_taylor(law, s, k) * Fraction(x) ** k
            assert close(value, exact, 1e-13, 1e-300 * scale)

    def test_small_laws_match_exact_sums(self):
        # a few roundings per term: the shift adds positive terms only
        rng = np.random.default_rng(7)
        for _ in range(20):
            law = FinitePmf(rng.dirichlet(np.ones(rng.integers(2, 12))).tolist())
            for s in (0.0, float(rng.uniform()), 1.0):
                terms = law.taylor_terms(s, 1.0)
                for k in range(len(law.weights) + 1):
                    assert close(next(terms, 0.0), exact_taylor(law, s, k), 1e-14)


class TestTruncatedSupport:
    """A series stops at SUPPORT_CAP terms; it raises only when more than
    roundoff of its mass is still unread."""

    N = SUPPORT_CAP + 1

    @pytest.mark.parametrize("cap", [None, 2 * SUPPORT_CAP])
    def test_stops_at_the_cap_within_roundoff(self, cap):
        # N terms of 1/N sum to 1, but their running float sum falls short
        # of 1 by 2.7e-12, more than TAIL_MASS
        terms = [1.0 / self.N] * self.N + [0.0] * 10
        assert list(truncated_support(terms, 0, cap))[-1] == (SUPPORT_CAP, 1.0 / self.N)

    @pytest.mark.parametrize("cap", [None, 2 * SUPPORT_CAP])
    def test_mass_past_the_cap_raises(self, cap):
        terms = [0.5 / self.N] * 2 * self.N
        with pytest.raises(SupportCapError, match="mass 0.5 .* SUPPORT_CAP"):
            list(truncated_support(terms, 0, cap))


class TestMaxSupport:
    @pytest.mark.parametrize("law", [PMF20, FinitePmf([0.2, 0.5, 0.3, 0, 0]), FinitePmf([1])],
                             ids=["pmf20", "trailing-zeros", "point-mass-at-0"])
    def test_cached_value_is_the_scan(self, law):
        scan = max(k for k, w in enumerate(law.weights) if w > 0)
        assert law.max_support == scan
        assert law.__dict__["max_support"] == scan  # computed once, then read back


class TestPgfArray:
    @pytest.mark.parametrize("weights", [[0, 0, 1], [0.2, 0.3, 0.5],
                                         [0.05, 0.1, 0.1, 0.1, 0.08, 0.08, 0.07, 0.06, 0.06,
                                          0.05, 0.05, 0.04, 0.04, 0.03, 0.03, 0.02, 0.02,
                                          0.01, 0.005, 0.005]])
    def test_in_place_horner_is_bit_identical(self, weights):
        law = FinitePmf(weights)
        s = np.linspace(0.0, 1.0, 1001)
        f = df = np.zeros_like(s)
        for w in reversed(law.weights):
            df = df * s + f
            f = f * s + w
        got_f, got_df = law.pgf_array(s)
        assert np.array_equal(got_f, f) and np.array_equal(got_df, df)


TERM_LAWS = {**PAIR_LAWS, "binomial:3,1": Binomial(3, 1.0)}


class TestTaylorTerms:
    """`taylor_terms(s, x, scale)` gives scale c_k(s) x^k by a running product."""

    @pytest.mark.parametrize("name", sorted(TERM_LAWS))
    @pytest.mark.parametrize("s,x,scale", [(0.0, 1.0, 1.0), (0.4, 0.6, 1.0),
                                           (0.75, 0.2, 3.0), (0.1, 0.9, 1.5)])
    def test_matches_pointwise_taylor(self, name, s, x, scale):
        # each term against its own reference coefficient
        law = TERM_LAWS[name]
        terms = law.taylor_terms(s, x, scale)
        for k in range(30):
            with mpmath.workdps(50):
                expected = scale * mp_taylor(law, s, k) * mpmath.mpf(x) ** k
            assert close(next(terms, 0.0), expected, 1e-13, 1e-300), k

    @pytest.mark.parametrize("name", sorted(TERM_LAWS))
    def test_stops_at_max_support(self, name):
        law = TERM_LAWS[name]
        if law.max_support is not None:
            assert len(list(law.taylor_terms(0.3, 0.5))) == law.max_support + 1

    @pytest.mark.parametrize("law,s,x,mean", [
        (Poisson(2000.0), 0.5, 0.5, 1000), (Binomial(4000, 0.5), 0.5, 0.5, 1000),
        (FinitePmf([1.0] * 1100), 0.5, 0.5, 274.75),
    ], ids=["poisson:2000", "binomial:4000,0.5", "pmf-1100-weights"])
    def test_large_support_sums_to_one(self, law, s, x, mean):
        # s + x = 1: the terms are the p-thinned law, with no overflow
        # though c_k(s) itself overflows, and no loss where c_0 underflows
        terms = list(itertools.islice(law.taylor_terms(s, x), 3000))
        assert all(math.isfinite(t) for t in terms)
        assert math.fsum(terms) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(k * t for k, t in enumerate(terms)) == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("n,q,s,x,scale", [
        (4000, 0.5, 0.0, 1.0, 1.0), (4000, 0.5, 0.3, 0.6, 0.5), (3000, 0.3, 0.2, 0.3, 2.0)])
    def test_binomial_underflow_prefix_matches_log_space(self, n, q, s, x, scale):
        # every term below the first normal one is exp of the log-space
        # formula with log C(n,k) from the exact integer, to the bit, and so
        # is the first normal term; the formula runs here only from a few
        # terms before the first that is not 0.0
        base = 1 - q + q * s
        r = q * x / base

        def term(k):
            return math.exp(math.log(scale) + math.log(math.comb(n, k)) + n * math.log(base)
                            + k * math.log(r))

        # the log terms rise up to the mode, so bisect for the last 0.0
        lo, hi = 0, int((n * r - 1) / (1 + r))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if term(mid) == 0.0 else (lo, mid)
        first = lo - 2
        prefix = [term(first)]
        while prefix[-1] < sys.float_info.min:
            prefix.append(term(first + len(prefix)))
        got = list(itertools.islice(Binomial(n, q).taylor_terms(s, x, scale),
                                    first + len(prefix)))
        assert got[:first] == [0.0] * first
        assert got[first:] == prefix
        assert prefix[0] == 0.0 < prefix[-2] < sys.float_info.min

    def test_binomial_prefix_stops_past_the_support(self):
        # scale f(s + x) = 0.5 * 0.75^4000 underflows: every term is below
        # the smallest normal float and the stream ends at k = n
        terms = list(Binomial(4000, 0.5).taylor_terms(0.3, 0.2, 0.5))
        assert len(terms) == 4001 and max(terms) < sys.float_info.min

    def test_huge_binomial_prefix_is_zeros(self):
        # C(n,k) 2^-n is 0.0 in a double for every k < SUPPORT_CAP here; the
        # stream yields those zeros without computing C(n,k)
        terms = Binomial(10**20, 0.5).taylor_terms(0.0, 1.0)
        assert not any(itertools.islice(terms, 10**5))

    def test_underflowing_start_matches_log_space(self):
        # e^{-1000} underflows; the terms below the first normal one come
        # from log space, the rest from the ratio recurrence
        terms = Poisson(2000.0).taylor_terms(0.5, 0.5)
        with mpmath.workdps(30):
            for k in range(1400):
                exact = mpmath.exp(-1000) * mpmath.mpf(1000) ** k / mpmath.factorial(k)
                assert abs(next(terms) - float(exact)) <= 1e-12 * float(exact) + 1e-300
