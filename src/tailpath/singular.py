"""Singular curve of the survival Marshall-Olkin model.

The survival MO copula piles singular mass on the curve (1-x)^alpha =
(1-u^2/x)^beta inside each admissible rectangle slice. Its root x_u in
[u^2, 1] is unique (the log-scale gap is strictly decreasing from +inf to
-inf), shadows the path of maximal dependence as u drops, and for beta =
2 alpha collapses to a depressed cubic solved in closed trigonometric form.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import DomainError, ScheduleError
from .maxpath import PathResult
from .numerics import brent_root

__all__ = [
    "AsymptoticRow",
    "SingularAsymptotics",
    "SingularCurvePoint",
    "asymptotic_report",
    "cardano_roots",
    "cubic_value",
    "curve_residual",
    "log_gap",
    "singular_root",
]


def _check_params(alpha: float, beta: float) -> None:
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        raise DomainError(f"need alpha, beta in (0, 1], got ({alpha}, {beta})")


def log_gap(alpha: float, beta: float, u: float, x: float) -> float:
    """Log-scale defining gap alpha ln(1-x) - beta ln(1-u^2/x) on (u^2, 1)."""
    if not u * u < x < 1.0:
        raise DomainError(f"log_gap needs x in (u^2, 1) = ({u * u}, 1), got {x}")
    return alpha * math.log1p(-x) - beta * math.log1p(-u * u / x)


def curve_residual(alpha: float, beta: float, u: float, x: float) -> float:
    """Original-scale residual (1-x)^alpha - (1-u^2/x)^beta.

    The powers are computed through log1p so that x near 1 (or near u^2)
    keeps full precision; a base of exactly zero contributes exactly zero,
    which covers the u = 1 endpoint where both sides vanish.
    """
    if not u * u <= x <= 1.0 or x == 0.0:
        raise DomainError(f"curve_residual needs x > 0 in [u^2, 1] = [{u * u}, 1], got {x}")
    left = 0.0 if x == 1.0 else math.exp(alpha * math.log1p(-x))
    vy = u * u / x
    right = 0.0 if vy == 1.0 else math.exp(beta * math.log1p(-vy))
    return left - right


class SingularCurvePoint(NamedTuple):
    u: float
    x_star: float
    residual: float
    ratio: float


def singular_root(alpha: float, beta: float, u: float) -> SingularCurvePoint:
    """Unique root of (1-x)^alpha = (1-u^2/x)^beta in [u^2, 1].

    u = 1 returns x = 1 exactly (the interval degenerates). Otherwise Brent
    runs on the log-scale gap, whose divergence to +inf at u^2 and -inf at 1
    guarantees the bracket; endpoints are inset by machine-scale epsilon to
    keep the logs finite.
    """
    _check_params(alpha, beta)
    if not 0.0 < u <= 1.0:
        raise DomainError(f"singular_root needs u in (0, 1], got {u}")
    if u == 1.0:
        return SingularCurvePoint(u=1.0, x_star=1.0, residual=0.0, ratio=1.0)
    lo = u * u * (1.0 + 1e-14)
    hi = 1.0 - 1e-14
    x = brent_root(lambda t: log_gap(alpha, beta, u, t), lo, hi)
    return SingularCurvePoint(
        u=u,
        x_star=x,
        residual=curve_residual(alpha, beta, u, x),
        ratio=x / u,
    )


def cubic_value(u: float, x: float) -> float:
    """Characteristic cubic x^3 - 2 u^2 x + u^4 of the beta = 2 alpha curve.

    Obtained by squaring the defining equation: 1-x = (1-u^2/x)^2 times x^2
    rearranges to this depressed cubic, whose root in [u^2, 1] is the
    singular-curve point.
    """
    return x**3 - 2.0 * u * u * x + u**4


def cardano_roots(u: float) -> tuple[float, float, float]:
    """All three real roots of the characteristic cubic, trigonometric form.

    x_k = 2u sqrt(2/3) cos((1/3) arccos(-3 sqrt(6) u / 8) + 2 pi k / 3) for
    k = 0, 1, 2, ordered so that x_1 < 0 < x_2 < x_0 <= 1: the k=0 root is
    the singular-curve point, k=2 is the spurious small positive root
    introduced by squaring, k=1 is negative.
    """
    if not 0.0 < u <= 1.0:
        raise DomainError(f"cardano_roots needs u in (0, 1], got {u}")
    amp = 2.0 * u * math.sqrt(2.0 / 3.0)
    theta = math.acos(-3.0 * math.sqrt(6.0) * u / 8.0) / 3.0
    x0 = amp * math.cos(theta)
    x1 = amp * math.cos(theta + 2.0 * math.pi / 3.0)
    x2 = amp * math.cos(theta + 4.0 * math.pi / 3.0)
    return x0, x1, x2


class AsymptoticRow(NamedTuple):
    u: float
    phi_ratio: float
    x_ratio: float
    target: float
    gap: float


class SingularAsymptotics(NamedTuple):
    rows: tuple[AsymptoticRow, ...]
    target: float
    phi_ratio_converges: bool
    x_ratio_converges: bool


def asymptotic_report(
    alpha: float,
    beta: float,
    u_schedule: Sequence[float],
    path: PathResult,
) -> SingularAsymptotics:
    """Compare the path maximizer and the singular curve against sqrt(beta/alpha).

    One row per scheduled u with both ratios phi_star/u and x_star/u, the
    common limit, and the gap |phi_star - x_star|. The path must have been
    traced on the survival MO model over exactly this schedule (ScheduleError
    otherwise). Convergence flags require the final gap to the limit to be
    below 0.05 and no larger than the initial one.
    """
    _check_params(alpha, beta)
    us = [float(u) for u in u_schedule]
    if len(us) != len(path.points) or any(
        u != p.u for u, p in zip(us, path.points)
    ):
        raise ScheduleError(
            "u schedule does not match the traced path points one-to-one"
        )
    target = math.sqrt(beta / alpha)
    rows = []
    for u, p in zip(us, path.points):
        root = singular_root(alpha, beta, u)
        rows.append(
            AsymptoticRow(
                u=u,
                phi_ratio=p.ratio_b,
                x_ratio=root.ratio,
                target=target,
                gap=abs(p.phi_star - root.x_star),
            )
        )

    def converges(values: list[float]) -> bool:
        first = abs(values[0] - target)
        last = abs(values[-1] - target)
        return last <= 0.05 and last <= first

    return SingularAsymptotics(
        rows=tuple(rows),
        target=target,
        phi_ratio_converges=converges([r.phi_ratio for r in rows]),
        x_ratio_converges=converges([r.x_ratio for r in rows]),
    )
