"""Offspring distributions for branching processes.

Four families are supported: a finite pmf, geometric, Poisson and
binomial. Each law gives its probability generating function (PGF)
f(s) = sum_k p_k s^k by two routes: `_pgf_pair` returns (f, f') at a
point, for the Newton solve of rho and the mean, and `taylor_terms`
yields the whole series of Taylor coefficients c_k(s) = f^(k)(s)/k!,
one running product per term: each parametric family multiplies by its
ratio c_{k+1}/c_k, and a finite pmf takes a Taylor shift. The pmf and
the derivatives of order 2 and up are read off that series. Each law
also has an exact sampler driven by a caller-supplied numpy Generator.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-12

# truncation policy for infinite-support sums
TAIL_MASS = 1e-13
SUPPORT_CAP = 10**5
# a float sum of SUPPORT_CAP probabilities may miss their total by this much
_CAP_ROUNDOFF = SUPPORT_CAP * sys.float_info.epsilon
# smallest normal float: a running product seeded below it has lost digits
_TINY = sys.float_info.min
# exp(x) is exactly 0.0 below this (by a margin of 0.3)
_LOG_ZERO = math.log(math.ulp(0.0)) - 1.0


class LawError(ValueError):
    """Invalid offspring-law parameters or malformed law spec."""


class SupportCapError(ArithmeticError):
    """A law's mass lies past the first SUPPORT_CAP terms of its series."""


@dataclass(frozen=True)
class OffspringLaw:
    """Base class; concrete families implement the PGF and sampler."""

    def pgf_derivative(self, s: float, order: int = 0) -> float:
        """f^(order)(s) for s in [0, 1]; order 0 is f(s) itself. Orders 0 and
        1 come from `_pgf_pair`, higher ones are order! c_order(s) from
        `taylor_terms`, exactly 0 past a finite support. Raises
        OverflowError where f^(order)(s) exceeds the largest float."""
        if not 0.0 <= s <= 1.0:
            raise LawError(f"PGF argument s={s} outside [0, 1]")
        if order < 0:
            raise LawError(f"derivative order must be >= 0, got {order}")
        s, order = float(s), int(order)
        if order <= 1:
            return self._pgf_pair(s)[order]
        c = _term(self.taylor_terms(s, 1.0), order)
        if not c:
            return 0.0  # order! may not fit a float
        d = math.factorial(order) * c
        if d == math.inf:
            raise OverflowError(f"f^({order})({s}) exceeds the largest float")
        return d

    def _pgf_pair(self, s: float) -> tuple[float, float]:
        """(f(s), f'(s)) at one point of [0, 1], unchecked."""
        raise NotImplementedError

    def pgf_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f(s), f'(s)) elementwise on an array of points in [0, 1], as two
        new arrays that the caller may overwrite: `_pgf_pair`'s own body,
        unless a family's scalar arithmetic does not serve arrays."""
        return self._pgf_pair(s)

    def taylor_terms(self, s: float, x: float, scale: float = 1.0):
        """Yield scale * c_k(s) x^k for k = 0, 1, ..., with c_k = f^(k)/k!:
        the coefficients of scale * f(s + x t) in t, up to max_support.

        For s >= 0, x > 0 and s + x <= 1 they sum to scale * f(s + x) and
        none exceeds scale, so no term overflows where c_k(s) would.
        """
        raise NotImplementedError

    def pmf(self, k: int) -> float:
        """p_k = f^(k)(0)/k!, the k-th term of `taylor_terms(0, 1)`."""
        return _term(self.taylor_terms(0.0, 1.0), k) if k >= 0 else 0.0

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
        return iter(self._support)

    @functools.cached_property
    def _support(self):
        # built once per law: every row's closed form reads the same p_n
        return tuple(truncated_support(self.taylor_terms(0.0, 1.0), 0, self.max_support))


def truncated_support(terms, start: int, cap: int | None):
    """Yield (k, p_k) for k = start, start+1, ... from the iterable `terms`
    of p_start, p_start+1, ..., up to the law's `cap` = max_support, or,
    with infinite support, until all but TAIL_MASS of the mass is covered;
    never past SUPPORT_CAP. It takes no term past the last one it yields.
    Raises SupportCapError if it stops at SUPPORT_CAP with more than
    roundoff of the mass unread."""
    cum = 0.0
    for k, pk in enumerate(terms, start):
        yield k, pk
        cum += pk
        if cap is not None:
            if k >= cap:
                return
        elif 1.0 - cum < TAIL_MASS or (pk < 1e-17 and cum > 0.5):
            return  # roundoff may keep cum short of 1; such terms are negligible
        if k >= SUPPORT_CAP:
            if 1.0 - cum > _CAP_ROUNDOFF:
                raise SupportCapError(
                    f"mass {1.0 - cum:.3g} of the law lies past its first "
                    f"SUPPORT_CAP = {SUPPORT_CAP} terms")
            return


def _term(terms, k: int) -> float:
    """The k-th item of `terms`, or 0 past its end (a finite support)."""
    return next(itertools.islice(terms, k, None), 0.0)


def _underflow_start(log_term):
    """Yield exp(log_term(k)) for k = 0, 1, ... while it is below the
    smallest normal float; return (k, value) at the first normal term, from
    which a running product can take over."""
    k = 0
    while True:
        t = math.exp(log_term(k))
        if t >= _TINY:
            return k, t
        yield t
        k += 1


def _binomial_underflow_start(n, scale, base, r):
    """`_underflow_start` for scale C(n,k) base^n r^k, with log C(n,k) from
    the exact integer: yield the terms below the smallest normal float;
    return (k, value) at the first normal term, or (n+1, 0.0) if none is.

    A float lgamma estimate marks the terms that are exactly 0.0 in a
    double. math.comb runs once, at the first term that may not be, and
    carries forward exactly as C(n,k+1) = C(n,k)(n-k)/(k+1): computing it
    anew for every term of a long prefix takes minutes at n = 20000.
    """
    ls, nlb, lr = math.log(scale), n * math.log(base), math.log(r)
    lg_n = math.lgamma(n + 1)
    comb = None
    for k in range(n + 1):
        if comb is None:
            est = ls + (lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)) + nlb + k * lr
            # the estimate is off by roundoff on terms as large as these
            if est + 1e-12 * (abs(ls) + lg_n + abs(nlb) + k * abs(lr)) < _LOG_ZERO:
                yield 0.0
                continue
            comb = math.comb(n, k)
        t = math.exp(ls + math.log(comb) + nlb + k * lr)
        if t >= _TINY:
            return k, t
        yield t
        comb = comb * (n - k) // (k + 1)
    return n + 1, 0.0


@dataclass(frozen=True)
class FinitePmf(OffspringLaw):
    """Law with finite support given by explicit weights (renormalized)."""

    weights: tuple[float, ...]

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise LawError("pmf weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise LawError("pmf weights must be finite")
        if np.any(w < 0):
            raise LawError("pmf weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if total <= 0:
            raise LawError("pmf weights sum to zero")
        if total == math.inf:  # rescaled only then, so other weights keep their bits
            w = w / w.max()
            total = float(w.sum())
        object.__setattr__(self, "weights", tuple(float(x) for x in w / total))

    def _pgf_pair(self, s: float) -> tuple[float, float]:
        f = df = below = 0.0  # below = s^(k-1)
        for k, w in enumerate(self.weights):
            power = s**k
            f += w * power
            if k:
                df += w * k * below
            below = power
        return f, df

    def pgf_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Horner for f and, one step behind it, for f'. `_pgf_pair` keeps its
        # power sums: their roundoff fixes the bits of rho, which Horner's would change
        f = np.zeros_like(s)
        df = np.zeros_like(s)
        for w in reversed(self.weights):
            df *= s
            df += f
            f *= s
            f += w
        return f, df

    def taylor_terms(self, s: float, x: float, scale: float = 1.0):
        # Horner in t: multiply the running polynomial by (s + x t) and add
        # the next weight, so every coefficient is a sum of positive terms
        # that never exceeds scale
        w = self.weights
        n = self.max_support + 1
        c = [0.0] * n
        for j in range(n - 1, -1, -1):
            for i in range(n - 1 - j, 0, -1):
                c[i] = s * c[i] + x * c[i - 1]
            c[0] = s * c[0] + scale * w[j]
        yield from c

    @functools.cached_property
    def _support(self):
        return tuple(truncated_support(self.weights, 0, self.max_support))

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

    @functools.cached_property
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

    def _pgf_pair(self, s: float) -> tuple[float, float]:
        a = self.a
        d = 1 - a * s
        return (1 - a) / d, a * (1 - a) / d**2

    def taylor_terms(self, s: float, x: float, scale: float = 1.0):
        # c_{k+1}/c_k = a/(1-as); c_0 >= 1-a needs no underflow guard
        d = 1 - self.a * s
        r = self.a * x / d
        t = scale * (1 - self.a) / d
        while True:
            yield t
            t *= r

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
        if not 0.0 < self.mu < math.inf:
            raise LawError(f"poisson parameter mu={self.mu} must be positive and finite")

    def _pgf_pair(self, s: float) -> tuple[float, float]:
        f = math.exp(self.mu * (s - 1.0))
        return f, self.mu * f

    def pgf_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # np.exp here, not in `_pgf_pair`: on a float it would slow every Newton step
        f = np.exp(self.mu * (s - 1.0))
        return f, self.mu * f

    def taylor_terms(self, s: float, x: float, scale: float = 1.0):
        # c_{k+1}/c_k = mu/(k+1), from c_0 = e^{mu(s-1)}
        mu = self.mu
        r = mu * x
        k, c0 = 0, math.exp(mu * (s - 1.0))
        t = scale * c0
        if c0 < _TINY:
            k, t = yield from _underflow_start(
                lambda k: math.log(scale) + mu * (s - 1.0) + k * math.log(r) - math.lgamma(k + 1))
        while True:
            yield t
            k += 1
            t *= r / k

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

    def _pgf_pair(self, s: float) -> tuple[float, float]:
        n = self.n
        base = 1.0 - self.q + self.q * s
        return base**n, n * self.q * base ** (n - 1)

    def taylor_terms(self, s: float, x: float, scale: float = 1.0):
        # c_{k+1}/c_k = (n-k)/(k+1) q/(1-q+qs), from c_0 = (1-q+qs)^n
        n, q = self.n, self.q
        base = 1.0 - q + q * s
        if base == 0.0:  # q = 1 at s = 0: all mass on n
            yield from [0.0] * n
            yield scale * x**n
            return
        r = q * x / base
        k, c0 = 0, base**n
        t = scale * c0
        if c0 < _TINY:
            k, t = yield from _binomial_underflow_start(n, scale, base, r)
            if k > n:
                return
        while True:
            yield t
            if k == n:
                return
            t *= r * (n - k) / (k + 1)
            k += 1

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

