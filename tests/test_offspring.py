import math

import numpy as np
import pytest

from gwspeed import (
    Binomial,
    FinitePmf,
    Geometric,
    LawError,
    Poisson,
    parse_law,
)

LAWS = {
    "binary": FinitePmf([0, 0, 1]),
    "geometric": Geometric(2 / 3),
    "poisson": Poisson(2.0),
    "binomial": Binomial(3, 0.8),
}

S_GRID = np.linspace(0.0, 1.0, 21)


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


class TestTaylor:
    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.75, 1.0])
    def test_matches_derivative_over_factorial(self, name, s):
        law = LAWS[name]
        for k in range(8):
            expected = law.pgf_derivative(s, k) / math.factorial(k)
            assert law.taylor(s, k) == pytest.approx(expected, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_pmf_is_taylor_at_zero(self, name):
        law = LAWS[name]
        for k in range(8):
            assert law.pmf(k) == pytest.approx(law.taylor(0.0, k), rel=1e-15, abs=1e-300)
        assert law.pmf(-1) == 0.0

    def test_zero_past_finite_support(self):
        assert FinitePmf([0, 0.5, 0.5]).taylor(0.4, 3) == 0.0
        assert Binomial(3, 0.8).taylor(0.4, 4) == 0.0

    def test_binomial_full_retention_at_zero(self):
        # q = 1: 1 - q + q s vanishes at s = 0 and all mass sits on n
        law = Binomial(3, 1.0)
        assert [law.taylor(0.0, k) for k in range(5)] == [0.0, 0.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("law,k", [(Poisson(200.0), 400), (Binomial(400, 0.5), 200),
                                       (Geometric(0.9), 500),
                                       (FinitePmf([1.0] * 200), 100)])
    def test_high_orders_stay_finite(self, law, k):
        # f^(k)(s) itself overflows a float here; f^(k)(s)/k! does not
        value = law.taylor(0.5, k)
        assert 0.0 < value < math.inf

    def test_binomial_coefficient_exact_for_large_n(self):
        # log C(n, k) from the exact integer; at s = 1 the coefficient is C(n,k) q^k
        law = Binomial(400, 0.5)
        expected = math.comb(400, 200) / 2**200
        assert law.taylor(1.0, 200) == pytest.approx(expected, rel=1e-13)
