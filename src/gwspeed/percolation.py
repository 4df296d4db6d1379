"""Percolated Galton-Watson model quantities.

Bond percolation with retaining probability p thins an offspring law
{p_k} into {pbar_l}. This module solves for the extinction probability
rho of the thinned process, and derives from (law, p, rho) the backbone
law ptilde, the bush law phat, the mean bush size M and the expected
excursion count N(p, k).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .offspring import OffspringLaw, _term, truncated_support

# rho tolerance: Newton stops at a step of at most TOL/100 and the root
# must satisfy |rho - f(lambda)| <= 10 TOL
TOL = 1e-12
MAX_NEWTON_ITER = 200
# absolute roundoff in evaluating g(x) = f(1-p+px) - x, a few ulps of 1
G_ROUNDOFF = 1e-15


class ConvergenceError(RuntimeError):
    """Newton iteration for rho did not converge, or its root is not
    resolved from the trivial root 1 in double precision."""


class ModelError(ValueError):
    """Model parameters outside the supercritical regime the theory covers."""


def solve_rho(law: OffspringLaw, p: float) -> tuple[float, float]:
    """Smallest fixed point rho of rho = f(1 - p + p*rho), plus lambda.

    Newton's method on g(x) = f(1-p+px) - x, started from x = 0. g is
    convex with g'(x) = p f'(lambda) - 1 < 0 below its smallest root, so
    the iterates climb monotonically to rho: quadratically at a simple
    root and still linearly as p -> 1/m, where the root nears a double
    root at 1. The loop stops at a step of at most TOL/100, or at the
    first step that is not positive, which is the roundoff floor. Returns
    (rho, lambda) with lambda = 1 - p + p*rho.
    """
    return _solve(law, p)[:2]


def _solve(law: OffspringLaw, p: float) -> tuple[float, float, float]:
    """`solve_rho`, plus f'(lambda). Each step takes f and f' from one
    `_pgf_pair` call; lambda stays in [0, 1] because rho does."""
    m = law.mean()
    if m <= 1.0:
        raise ModelError(f"law mean {m} <= 1: no supercritical phase")
    if not 1.0 / m < p <= 1.0:
        raise ModelError(f"retaining probability p={p} not in (1/m, 1] = ({1.0 / m}, 1]")
    if law.is_degenerate:
        raise ModelError("degenerate law f(s) = s has no meaningful extinction problem")

    p = float(p)  # a numpy scalar gives the same values, more slowly
    rho = 0.0
    for _ in range(MAX_NEWTON_ITER):
        lam = 1.0 - p + p * rho
        f, fp = law._pgf_pair(lam)
        g = f - rho
        gp = p * fp - 1.0
        if not (g > 0.0 and gp < 0.0):
            break  # at the root to roundoff: the next step would not be positive
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
    f, fp = law._pgf_pair(lam)
    if abs(rho - f) > 10 * TOL:
        raise ConvergenceError(f"rho residual exceeds {10 * TOL} after refinement (p={p})")
    # Roundoff in g moves the root by about G_ROUNDOFF / |g'(rho)|. As p -> 1/m
    # that shift outgrows the root's distance to the trivial root 1, and a
    # "root" found there is noise: refuse one that roundoff moves by more
    # than a tenth of that distance.
    slope = 1.0 - p * fp
    if not G_ROUNDOFF < 0.1 * slope * (1.0 - rho):
        raise ConvergenceError(
            f"rho is not resolved from the trivial root 1 in double precision "
            f"(p={p} too close to 1/m)"
        )
    return rho, lam, fp


@dataclass(frozen=True)
class PercolatedModel:
    """An offspring law together with a retaining probability p and the
    solved extinction quantities rho, lambda = 1-p+p*rho, mhat = p f'(lambda)."""

    law: OffspringLaw
    p: float
    rho: float = field(init=False)
    lam: float = field(init=False)
    m_hat: float = field(init=False)

    def __init__(self, law: OffspringLaw, p: float):
        rho, lam, fp = _solve(law, p)
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "m_hat", p * fp)


def thinned_pmf(model: PercolatedModel, l: int) -> float:
    """pbar_l: probability of l retained children after p-thinning.

    pbar_l = sum_r p_{l+r} p^l (1-p)^r C(l+r, r) = p^l f^(l)(1-p) / l!,
    the l-th term of `thinned_pmf_iter`'s stream. A call walks the stream
    from its start: O(l) for a parametric law, and O(n^2) for a FinitePmf
    of n weights whatever l is. Read many terms from `thinned_pmf_iter`.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return _term(model.law.taylor_terms(1.0 - model.p, model.p), l)


def rho_derivative(model: PercolatedModel) -> float:
    """d(rho)/dp = -(1-rho) f'(lambda) / (1 - p f'(lambda)); always <= 0."""
    fp = model.law.pgf_derivative(model.lam, 1)
    denom = 1.0 - model.p * fp
    if abs(denom) <= 1e-12:
        raise ModelError("p f'(lambda) = 1: model at criticality, derivative diverges")
    return -(1.0 - model.rho) * fp / denom


def backbone_pmf(model: PercolatedModel, k: int) -> float:
    """ptilde_k = f^(k)(lambda) / k! * p^k (1-rho)^(k-1); ptilde_0 = 0.
    The k-th term of `backbone_pmf_iter`'s stream, at `thinned_pmf`'s cost
    per call; read many terms from `backbone_pmf_iter`."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 0.0
    return _term(_backbone_terms(model), k - 1)


def bush_pmf(model: PercolatedModel, k: int) -> float:
    """phat_k = pbar_k rho^(k-1), the red-vertex offspring law, at
    `thinned_pmf`'s cost per call; read many terms from `bush_pmf_iter`."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if model.rho == 0.0:
        raise ModelError("rho = 0: no bushes exist, bush law undefined")
    return thinned_pmf(model, k) * model.rho ** (k - 1)


def bush_mean_size(model: PercolatedModel) -> float:
    """M = 1/(1 - mhat), the mean total size of a bush (root included)."""
    if model.m_hat >= 1.0 - 1e-12:
        raise ModelError(f"mhat = {model.m_hat} at/above 1: bushes not subcritical")
    return 1.0 / (1.0 - model.m_hat)


def mean_excursions(model: PercolatedModel, k: int) -> float:
    """N(p, k) = p rho / (k+1) * f^(k+1)(lambda) / f^(k)(lambda), i.e.
    p rho c_{k+1} / c_k with c_k = f^(k)(lambda)/k!. As ptilde_{k+1}/ptilde_k
    = p (1-rho) c_{k+1}/c_k, it is rho/(1-rho) times the ratio of two
    adjacent terms of the backbone stream, at `backbone_pmf`'s cost per call.
    Raises ModelError where a term it divides is 0 or subnormal, which would
    leave the ratio undefined or with few correct digits."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = _backbone_terms(model)
    pk = _term(terms, k - 1)
    if pk < sys.float_info.min:
        raise ModelError(f"ptilde_{k} = {pk!r}: backbone degree {k + 1} impossible "
                         f"or below the smallest normal float")
    nxt = next(terms, None)
    if nxt is None:  # past a finite support
        return 0.0
    if model.rho > 0.0 and nxt < sys.float_info.min:
        # with lambda > 0 every c_j up to the support is positive, so a 0 here
        # is an underflow too
        raise ModelError(f"ptilde_{k + 1} = {nxt!r} is below the smallest normal float")
    return model.rho * nxt / ((1.0 - model.rho) * pk)


# The pointwise functions above and the iterators build each law by the
# offspring law's coefficient recurrence (`taylor_terms`) on the
# probabilities themselves: pbar_l = c_l(1-p) p^l,
# ptilde_k = c_k(lambda) (p(1-rho))^k / (1-rho) and phat_k = c_k(1-p) (p rho)^k / rho.

def thinned_pmf_iter(model: PercolatedModel):
    """Yield (l, pbar_l) covering all but TAIL_MASS of the thinned law."""
    terms = model.law.taylor_terms(1.0 - model.p, model.p)
    return truncated_support(terms, 0, model.law.max_support)


def _backbone_terms(model: PercolatedModel):
    """ptilde_1, ptilde_2, ... without end (or to the law's max_support)."""
    q = 1.0 - model.rho
    terms = model.law.taylor_terms(model.lam, model.p * q, 1.0 / q)
    next(terms)  # k = 0: rho/(1-rho), where ptilde_0 is 0
    return terms


def backbone_pmf_iter(model: PercolatedModel):
    """Yield (k, ptilde_k) for k >= 1 covering all but TAIL_MASS."""
    return truncated_support(_backbone_terms(model), 1, model.law.max_support)


def bush_pmf_iter(model: PercolatedModel):
    """Yield (k, phat_k) for k >= 0 covering all but TAIL_MASS."""
    if model.rho == 0.0:
        raise ModelError("rho = 0: no bushes exist, bush law undefined")
    terms = model.law.taylor_terms(1.0 - model.p, model.p * model.rho, 1.0 / model.rho)
    return truncated_support(terms, 0, model.law.max_support)
