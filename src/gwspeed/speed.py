"""Analytic speed formulas for the walk on the percolated cluster.

One pass over the backbone offspring law ptilde (`_row`) gives both the
backbone speed S(p), as a series, and the mean bush delay, from the
law's tail. Each is cross-asserted against a second route: S against a
closed form summing over the original law, the delay against the
identity 2 rho/(1-rho). The cluster speed is the backbone speed damped
by the ergodic delay factor (1-rho)/(1+rho).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .offspring import OffspringLaw
from .percolation import (
    ModelError,
    PercolatedModel,
    backbone_pmf,
    backbone_pmf_iter,
    bush_mean_size,
)

ROUTE_TOL = 1e-10
DELAY_TOL = 1e-10
CONDITION_SLACK = 1e-9


class InternalInconsistency(AssertionError):
    """The two independent computation routes disagree beyond tolerance."""


@dataclass(frozen=True)
class SpeedCurvePoint:
    """One row of a speed-vs-p sweep."""

    p: float
    rho: float
    lam: float
    backbone_speed: float
    cluster_speed: float
    mean_delay: float
    condition_ok: bool


def eq1_speed(law: OffspringLaw) -> float:
    """Speed on an un-percolated tree with p_0 = 0: sum_k p_k (k-1)/(k+1)."""
    if law.pmf(0) > 0.0:
        raise ModelError("eq1_speed requires p_0 = 0")
    total = 0.0
    for k, pk in law.support_iter():
        if k >= 1:
            total += pk * (k - 1) / (k + 1)
    return total


def _backbone_speed_closed(model: PercolatedModel) -> float:
    """S(p) = (1+rho)/(1-rho) - 2/((1-rho)^2 p) sum_n p_n (1-lam^{n+1})/(n+1)."""
    rho, lam, p = model.rho, model.lam, model.p
    acc = 0.0
    for n, pn in model.law.support_iter():
        acc += pn * (1.0 - lam ** (n + 1)) / (n + 1)
    return (1.0 + rho) / (1.0 - rho) - 2.0 / ((1.0 - rho) ** 2 * p) * acc


def _row(model: PercolatedModel) -> tuple[float, float]:
    """(S(p), mean delay) from one pass over the backbone law ptilde.

    S(p) is the series sum_k ptilde_k (k-1)/(k+1); the closed form, which
    cancels two terms of size 1/(1-rho), is only its cross-check. The
    delay per backbone vertex is sum_k ptilde_k 2 M N(p,k), and since
    ptilde_k N(p,k) = rho/(1-rho) ptilde_{k+1} it is 2 M rho/(1-rho)
    sum_{k>=2} ptilde_k. As ptilde_1 = mhat = 1 - 1/M, checking it against
    the identity 2 rho/(1-rho) checks that ptilde sums to 1.
    """
    rho = model.rho
    # near criticality rho -> 1 amplifies roundoff by 1/(1-rho)^2
    slack = max(1.0, (1.0 - rho) ** -2)
    series = tail = 0.0
    for k, pk in backbone_pmf_iter(model):
        series += pk * (k - 1) / (k + 1)
        if k >= 2:
            tail += pk
    # N(p,k) at the last term k reaches ptilde_{k+1}, one past the cut
    tail += backbone_pmf(model, k + 1)
    closed = _backbone_speed_closed(model)
    if abs(closed - series) > ROUTE_TOL * slack:
        raise InternalInconsistency(
            f"backbone speed routes disagree: closed={closed!r} series={series!r}"
        )
    if rho == 0.0:
        return series, 0.0
    identity = 2.0 * rho / (1.0 - rho)
    delay = identity * bush_mean_size(model) * tail
    if abs(delay - identity) > DELAY_TOL * slack:
        raise InternalInconsistency(
            f"delay sum {delay!r} != 2 rho/(1-rho) = {identity!r}"
        )
    return series, delay


def backbone_speed(model: PercolatedModel) -> float:
    """Speed S(p) of the walk on the backbone, with both checks of `_row`."""
    return _row(model)[0]


def mean_delay(model: PercolatedModel) -> float:
    """Average excursion delay per backbone vertex, sum_k ptilde_k 2 M N(p,k),
    with both checks of `_row`."""
    return _row(model)[1]


def cluster_speed(model: PercolatedModel) -> float:
    """Speed on the full cluster: (1-rho)/(1+rho) * S(p)."""
    return (1.0 - model.rho) / (1.0 + model.rho) * _row(model)[0]


def cluster_speed_at(law: OffspringLaw, p: float, tol: float = 1e-12) -> float:
    """cluster_speed over p in [1/m, 1], with the p = 1/m endpoint pinned
    to 0 by continuity."""
    if p == 1.0 / law.mean():
        return 0.0
    return cluster_speed(PercolatedModel(law, p, tol))


def check_condition(law: OffspringLaw, grid_size: int = 10**4) -> tuple[bool, float]:
    """Check h(s) = (1-s) f'(s) / (1-f(s)) is nondecreasing on (1/m, 1).

    Returns (ok, most negative successive difference). Near s = 1 both
    numerator and denominator vanish; h there is read off at s = 1-1e-6.
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    if law.is_degenerate:
        raise ModelError("degenerate law f(s) = s excluded from the condition check")
    lo = 1.0 / law.mean()
    step = (1.0 - lo) / (grid_size + 1)
    s = np.minimum(lo + np.arange(1, grid_size + 1) * step, 1.0 - 1e-6)
    f, df = law.pgf_array(s)
    worst = float(np.min(np.diff((1.0 - s) * df / (1.0 - f))))
    return worst >= -CONDITION_SLACK, worst


def pipes_speed(p: float) -> float:
    """Closed-form speed on the percolated binary tree with pipes.

    (1/3) (2p-1)^2 / (p^2 + (1-p)^2) * (1-p) / (2p^3 - 6p^2 + 3p + 3).
    Zero at both endpoints p = 1/2 and p = 1, and non-monotone between.
    """
    if p < 0.5 or p > 1.0:
        raise ModelError(f"pipes model needs p in [1/2, 1], got {p}")
    if p == 0.5:
        return 0.0
    return (
        (1.0 / 3.0)
        * (2.0 * p - 1.0) ** 2
        / (p**2 + (1.0 - p) ** 2)
        * (1.0 - p)
        / (2.0 * p**3 - 6.0 * p**2 + 3.0 * p + 3.0)
    )


def sweep(law: OffspringLaw, p_grid, tol: float = 1e-12) -> list[SpeedCurvePoint]:
    """Evaluate the full analytic pipeline on a strictly increasing p grid."""
    ps = list(p_grid)
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p grid must be strictly increasing")
    condition_ok, _ = check_condition(law)
    rows = []
    for p in ps:
        model = PercolatedModel(law, p, tol)
        s, delay = _row(model)
        rows.append(SpeedCurvePoint(
            p=p, rho=model.rho, lam=model.lam, backbone_speed=s,
            cluster_speed=(1.0 - model.rho) / (1.0 + model.rho) * s,
            mean_delay=delay, condition_ok=condition_ok))
    return rows
