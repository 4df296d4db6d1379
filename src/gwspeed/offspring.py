"""Offspring distributions for branching processes.

Four families are supported: a finite pmf, geometric, Poisson and
binomial. Each law knows its probability generating function (PGF)
f(s) = sum_k p_k s^k together with closed-form derivatives of every
order, its Taylor coefficients f^(k)(s)/k! (in log space for the three
parametric families), its mean, its pointwise pmf, and an exact sampler
driven by a caller-supplied numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-12

# truncation policy for infinite-support sums
TAIL_MASS = 1e-13
SUPPORT_CAP = 10**5


class LawError(ValueError):
    """Invalid offspring-law parameters or malformed law spec."""


@dataclass(frozen=True)
class OffspringLaw:
    """Base class; concrete families implement the PGF and sampler."""

    def pgf_derivative(self, s: float, order: int = 0) -> float:
        """f^(order)(s) for s in [0, 1]; order 0 is f(s) itself."""
        if not 0.0 <= s <= 1.0:
            raise LawError(f"PGF argument s={s} outside [0, 1]")
        if order < 0:
            raise LawError(f"derivative order must be >= 0, got {order}")
        return self._derivative(float(s), int(order))

    def _derivative(self, s: float, order: int) -> float:
        raise NotImplementedError

    def pgf_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f(s), f'(s)) elementwise on an array of points in [0, 1]."""
        raise NotImplementedError

    def taylor(self, s: float, k: int) -> float:
        """f^(k)(s)/k!, the k-th Taylor coefficient of f at s in [0, 1]."""
        raise NotImplementedError

    def pmf(self, k: int) -> float:
        """p_k = f^(k)(0)/k!."""
        return self.taylor(0.0, k) if k >= 0 else 0.0

    def mean(self) -> float:
        """m = f'(1), the mean number of offspring."""
        return self.pgf_derivative(1.0, 1)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one offspring count; mutates only the given rng."""
        raise NotImplementedError

    @property
    def max_support(self) -> int | None:
        """Largest k with p_k > 0, or None for infinite support."""
        return None

    @property
    def is_degenerate(self) -> bool:
        """True iff f(s) = s, i.e. p_1 = 1."""
        return abs(self.pmf(1) - 1.0) <= PROB_ATOL

    def spec_string(self) -> str:
        """Round-trippable text form accepted by parse_law."""
        raise NotImplementedError

    def support_iter(self):
        """Yield (k, p_k) covering all but TAIL_MASS of the law."""
        return truncated_support(self.pmf, 0, self.max_support)


def truncated_support(term, start: int, cap: int | None):
    """Yield (k, term(k)) for k = start, start+1, ... up to the law's
    `cap` = max_support, or, with infinite support, until all but
    TAIL_MASS of the mass is covered; never past SUPPORT_CAP."""
    cum = 0.0
    k = start
    while True:
        pk = term(k)
        yield k, pk
        cum += pk
        if cap is not None:
            if k >= cap:
                return
        elif 1.0 - cum < TAIL_MASS or (pk < 1e-17 and cum > 0.5):
            return  # roundoff may keep cum short of 1; such terms are negligible
        if k >= SUPPORT_CAP:
            return
        k += 1


@dataclass(frozen=True)
class FinitePmf(OffspringLaw):
    """Law with finite support given by explicit weights (renormalized)."""

    weights: tuple[float, ...]

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise LawError("pmf weights must be a non-empty 1-d sequence")
        if np.any(w < 0):
            raise LawError("pmf weights must be nonnegative")
        total = float(w.sum())
        if total <= 0:
            raise LawError("pmf weights sum to zero")
        object.__setattr__(self, "weights", tuple(float(x) for x in w / total))

    def _derivative(self, s: float, order: int) -> float:
        # f^(r)(s) = sum_{k>=r} p_k k!/(k-r)! s^{k-r}; exactly 0 past support
        total = 0.0
        for k in range(order, len(self.weights)):
            total += self.weights[k] * math.perm(k, order) * s ** (k - order)
        return total

    def pgf_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Horner for f and, one step behind it, for f'
        f = np.zeros_like(s)
        df = np.zeros_like(s)
        for w in reversed(self.weights):
            df = df * s + f
            f = f * s + w
        return f, df

    def taylor(self, s: float, k: int) -> float:
        # sum_{j>=k} p_j C(j,k) s^{j-k}; exactly 0 past support
        return math.fsum(self.weights[j] * math.comb(j, k) * s ** (j - k)
                         for j in range(k, len(self.weights)))

    def pmf(self, k: int) -> float:
        return self.weights[k] if 0 <= k < len(self.weights) else 0.0

    def sample(self, rng: np.random.Generator) -> int:
        u = rng.random()
        cum = 0.0
        for k, pk in enumerate(self.weights):
            cum += pk
            if u < cum:
                return k
        return len(self.weights) - 1

    @property
    def max_support(self) -> int:
        for k in range(len(self.weights) - 1, -1, -1):
            if self.weights[k] > 0:
                return k
        return 0

    def spec_string(self) -> str:
        return "pmf:" + ",".join(repr(w) for w in self.weights)


@dataclass(frozen=True)
class Geometric(OffspringLaw):
    """p_k = a^k (1-a); f(s) = (1-a)/(1-as), mean a/(1-a)."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise LawError(f"geometric parameter a={self.a} not in (0, 1)")

    def _derivative(self, s: float, order: int) -> float:
        a = self.a
        return math.factorial(order) * a**order * (1 - a) / (1 - a * s) ** (order + 1)

    def pgf_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = self.a
        d = 1 - a * s
        return (1 - a) / d, a * (1 - a) / d**2

    def taylor(self, s: float, k: int) -> float:
        a = self.a
        return math.exp(k * math.log(a) + math.log1p(-a) - (k + 1) * math.log1p(-a * s))

    def sample(self, rng: np.random.Generator) -> int:
        # numpy geometric counts trials to first success (prob 1-a)
        return int(rng.geometric(1.0 - self.a)) - 1

    def spec_string(self) -> str:
        return f"geometric:{self.a!r}"


@dataclass(frozen=True)
class Poisson(OffspringLaw):
    """p_k = e^{-mu} mu^k / k!; f(s) = e^{mu(s-1)}."""

    mu: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise LawError(f"poisson parameter mu={self.mu} must be positive")

    def _derivative(self, s: float, order: int) -> float:
        return self.mu**order * math.exp(self.mu * (s - 1.0))

    def pgf_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f = np.exp(self.mu * (s - 1.0))
        return f, self.mu * f

    def taylor(self, s: float, k: int) -> float:
        mu = self.mu
        return math.exp(k * math.log(mu) + mu * (s - 1.0) - math.lgamma(k + 1))

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.mu))

    def spec_string(self) -> str:
        return f"poisson:{self.mu!r}"


@dataclass(frozen=True)
class Binomial(OffspringLaw):
    """p_k = C(n,k) q^k (1-q)^{n-k}; f(s) = (1-q+qs)^n."""

    n: int
    q: float

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise LawError(f"binomial n={self.n} must be a positive integer")
        if not 0.0 < self.q <= 1.0:
            raise LawError(f"binomial q={self.q} not in (0, 1]")

    def _derivative(self, s: float, order: int) -> float:
        if order > self.n:
            return 0.0
        base = 1.0 - self.q + self.q * s
        return math.perm(self.n, order) * self.q**order * base ** (self.n - order)

    def pgf_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, q = self.n, self.q
        base = 1.0 - q + q * s
        return base**n, n * q * base ** (n - 1)

    def taylor(self, s: float, k: int) -> float:
        n, q = self.n, self.q
        base = 1.0 - q + q * s
        if k > n or base == 0.0:  # base is 0 only for q = 1 at s = 0: all mass on n
            return float(k == n)
        # log C(n,k) from the exact integer; lgamma differences lose n log n ulps
        return math.exp(math.log(math.comb(n, k)) + k * math.log(q)
                        + (n - k) * math.log(base))

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.binomial(self.n, self.q))

    @property
    def max_support(self) -> int:
        return self.n

    def spec_string(self) -> str:
        return f"binomial:{self.n},{self.q!r}"


def parse_law(spec: str) -> OffspringLaw:
    """Parse ``geometric:<a>`` | ``poisson:<mu>`` | ``binomial:<n>,<q>`` |
    ``pmf:<w0>,<w1>,...`` into an OffspringLaw."""
    spec = spec.strip()
    if ":" not in spec:
        raise LawError(f"malformed law spec {spec!r}: expected family:params")
    family, _, params = spec.partition(":")
    family = family.lower()
    try:
        if family == "geometric":
            return Geometric(float(params))
        if family == "poisson":
            return Poisson(float(params))
        if family == "binomial":
            n_str, _, q_str = params.partition(",")
            if not q_str:
                raise LawError("binomial spec needs two parameters n,q")
            return Binomial(int(n_str), float(q_str))
        if family == "pmf":
            return FinitePmf([float(w) for w in params.split(",")])
    except LawError:
        raise
    except ValueError as exc:
        raise LawError(f"malformed law spec {spec!r}: {exc}") from exc
    raise LawError(f"unknown law family {family!r}")


def pgf_derivative(law: OffspringLaw, s: float, order: int = 0) -> float:
    return law.pgf_derivative(s, order)

