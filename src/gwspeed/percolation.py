"""Percolated Galton-Watson model quantities.

Bond percolation with retaining probability p thins an offspring law
{p_k} into {pbar_l}. This module solves for the extinction probability
rho of the thinned process, and derives from (law, p, rho) the backbone
law ptilde, the bush law phat, the mean bush size M and the expected
excursion count N(p, k).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .offspring import OffspringLaw, truncated_support

DEFAULT_TOL = 1e-12
MAX_NEWTON_ITER = 200
# absolute roundoff in evaluating g(x) = f(1-p+px) - x, a few ulps of 1
G_ROUNDOFF = 1e-15


class ConvergenceError(RuntimeError):
    """Newton iteration for rho did not converge, or its root is not
    resolved from the trivial root 1 in double precision."""


class ModelError(ValueError):
    """Model parameters outside the supercritical regime the theory covers."""


def solve_rho(law: OffspringLaw, p: float, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Smallest fixed point rho of rho = f(1 - p + p*rho), plus lambda.

    Newton's method on g(x) = f(1-p+px) - x, started from x = 0. g is
    convex with g'(x) = p f'(lambda) - 1 < 0 below its smallest root, so
    the iterates climb monotonically to rho: quadratically at a simple
    root and still linearly as p -> 1/m, where the root nears a double
    root at 1. The loop stops at a step of at most tol/100, or at the
    first step that is not positive, which is the roundoff floor. Returns
    (rho, lambda) with lambda = 1 - p + p*rho.
    """
    if tol <= 0:
        raise ModelError(f"tol must be positive, got {tol}")
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
            break  # at the root to roundoff: the next step would not be positive
        step = -g / gp
        rho = min(rho + step, 1.0)
        if step <= tol * 0.01:
            break
    else:
        raise ConvergenceError(
            f"Newton iteration for rho did not converge within {MAX_NEWTON_ITER} "
            f"steps (p={p})"
        )

    lam = 1.0 - p + p * rho
    if abs(rho - law.pgf_derivative(lam, 0)) > 10 * tol:
        raise ConvergenceError(f"rho residual exceeds {10 * tol} after refinement (p={p})")
    # Roundoff in g moves the root by about G_ROUNDOFF / |g'(rho)|. As p -> 1/m
    # that shift outgrows the root's distance to the trivial root 1, and a
    # "root" found there is noise: refuse one that roundoff moves by more
    # than a tenth of that distance.
    slope = 1.0 - p * law.pgf_derivative(lam, 1)
    if not G_ROUNDOFF < 0.1 * slope * (1.0 - rho):
        raise ConvergenceError(
            f"rho is not resolved from the trivial root 1 in double precision "
            f"(p={p} too close to 1/m)"
        )
    return rho, lam


@dataclass(frozen=True)
class PercolatedModel:
    """An offspring law together with a retaining probability p and the
    solved extinction quantities rho, lambda = 1-p+p*rho, mhat = p f'(lambda)."""

    law: OffspringLaw
    p: float
    rho: float = field(init=False)
    lam: float = field(init=False)
    m_hat: float = field(init=False)
    tol: float = DEFAULT_TOL

    def __init__(self, law: OffspringLaw, p: float, tol: float = DEFAULT_TOL):
        rho, lam = solve_rho(law, p, tol)
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "tol", float(tol))
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "m_hat", p * law.pgf_derivative(lam, 1))

    def f(self, s: float, order: int = 0) -> float:
        return self.law.pgf_derivative(s, order)


def thinned_pmf(model: PercolatedModel, l: int) -> float:
    """pbar_l: probability of l retained children after p-thinning.

    pbar_l = sum_r p_{l+r} p^l (1-p)^r C(l+r, r) = p^l f^(l)(1-p) / l!.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return model.p**l * model.law.taylor(1.0 - model.p, l)


def rho_derivative(model: PercolatedModel) -> float:
    """d(rho)/dp = -(1-rho) f'(lambda) / (1 - p f'(lambda)); always <= 0."""
    fp = model.f(model.lam, 1)
    denom = 1.0 - model.p * fp
    if abs(denom) <= 1e-12:
        raise ModelError("p f'(lambda) = 1: model at criticality, derivative diverges")
    return -(1.0 - model.rho) * fp / denom


def backbone_pmf(model: PercolatedModel, k: int) -> float:
    """ptilde_k = f^(k)(lambda) / k! * p^k (1-rho)^(k-1); ptilde_0 = 0."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 0.0
    return model.law.taylor(model.lam, k) * model.p**k * (1.0 - model.rho) ** (k - 1)


def bush_pmf(model: PercolatedModel, k: int) -> float:
    """phat_k = pbar_k rho^(k-1), the red-vertex offspring law."""
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
    p rho c_{k+1} / c_k with c_k = f^(k)(lambda)/k!."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ck = model.law.taylor(model.lam, k)
    if ck == 0.0:
        raise ModelError(f"f^({k})(lambda) = 0: backbone degree {k + 1} impossible")
    return model.p * model.rho * model.law.taylor(model.lam, k + 1) / ck


def thinned_pmf_iter(model: PercolatedModel):
    """Yield (l, pbar_l) covering all but TAIL_MASS of the thinned law."""
    return truncated_support(functools.partial(thinned_pmf, model), 0, model.law.max_support)


def backbone_pmf_iter(model: PercolatedModel):
    """Yield (k, ptilde_k) for k >= 1 covering all but TAIL_MASS."""
    return truncated_support(functools.partial(backbone_pmf, model), 1, model.law.max_support)


def bush_pmf_iter(model: PercolatedModel):
    """Yield (k, phat_k) for k >= 0 covering all but TAIL_MASS."""
    return truncated_support(functools.partial(bush_pmf, model), 0, model.law.max_support)
