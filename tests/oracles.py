"""Reference Taylor coefficients c_k(s) = f^(k)(s)/k! of the offspring laws,
apart from the coefficient recurrences (`taylor_terms`) that the library
reads: closed forms at 50 digits for the three parametric families, from
the laws' float parameters, and exact rational sums for a finite pmf."""

import math
from fractions import Fraction

import mpmath

from gwspeed import Binomial, FinitePmf, Geometric, Poisson

DPS = 50


def exact_taylor(law, s, k):
    """f^(k)(s)/k! of a finite pmf in exact rational arithmetic."""
    s = Fraction(s)
    return sum(Fraction(w) * math.comb(j, k) * s ** (j - k)
               for j, w in enumerate(law.weights) if j >= k)


def mp_taylor(law, s, k):
    """c_k(s) as an mpmath number at DPS digits; exactly 0 past a finite
    support."""
    with mpmath.workdps(DPS):
        if type(law) is FinitePmf:
            exact = exact_taylor(law, s, k)
            return mpmath.mpf(exact.numerator) / exact.denominator
        s = mpmath.mpf(s)
        if type(law) is Geometric:
            a = mpmath.mpf(law.a)
            return a**k * (1 - a) / (1 - a * s) ** (k + 1)
        if type(law) is Poisson:
            mu = mpmath.mpf(law.mu)
            return mu**k * mpmath.exp(mu * (s - 1)) / mpmath.factorial(k)
        if type(law) is Binomial:
            if k > law.n:
                return mpmath.mpf(0)
            q = mpmath.mpf(law.q)
            return mpmath.binomial(law.n, k) * q**k * (1 - q + q * s) ** (law.n - k)
    raise TypeError(f"no reference coefficients for {law!r}")
