"""Tail copulas and the maximal tail concordance measure (MTCM).

The (lower) tail copula of a copula C is the limit of C(tx, ty)/t as t drops
to 0. This module provides the closed forms available for the families in
:mod:`tailpath.copulas` (survival Marshall-Olkin, survival asymmetric
Gumbel, survival extreme-value via any Pickands function, Student-t), a
numeric-limit fallback for any model with an evaluable cdf, and the MTCM
solver, which maximizes the profile b mapsto
Lambda(b, 1/b) over unit-area rectangles and reports the maximizer b_star and
maximum lambda_star. Order-1 homogeneity makes the log profile 1-Lipschitz
in ln b, so the solver's Piyavskii-Shubert search certifies lambda_star to
a relative gap, which it reports, and decides degeneracy exactly at b = 1.

Each closed form is one plain function with its parameters first;
analytic_tail_copula binds them with functools.partial, so the solver gets
a callable Lambda(x, y). The numeric limit is both a function, which also
returns the error estimate, and a callable class (NumericTailCopula).
"""

from __future__ import annotations

import heapq
import math
import sys
from functools import partial
from typing import Callable, NamedTuple

from .copulas import (
    AsymGumbel,
    Comonotone,
    Copula,
    FGM,
    Independence,
    MarshallOlkin,
    StudentT,
    Survival,
)
from .errors import DegenerateTailError, DomainError
from .numerics import aitken_limit, maximize_1d, student_t_cdf

__all__ = [
    "MTCM_GAP",
    "MtcmResult",
    "NumericTailCopula",
    "analytic_tail_copula",
    "default_t_sequence",
    "mtcm",
    "tail_copula_from_pickands",
    "tail_copula_numeric",
    "tail_copula_sag",
    "tail_copula_smo",
    "tail_copula_tev",
    "tail_copula_zero",
]


def _check_quadrant(x: float, y: float) -> None:
    # Written so that NaN fails it too.
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
        raise DomainError(
            f"tail copula arguments must be finite and nonnegative, got ({x}, {y})"
        )


def tail_copula_smo(alpha: float, beta: float, x: float, y: float) -> float:
    """Tail copula of the survival Marshall-Olkin copula: min(alpha x, beta y)."""
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        raise DomainError(
            f"tail_copula_smo needs alpha, beta in (0, 1], got ({alpha}, {beta})"
        )
    _check_quadrant(x, y)
    ax, by = alpha * x, beta * y
    # min(ax, by) without builtin min, which costs 271 ns against 27 ns for
    # the conditional on CPython 3.11 (65 against 31 ns on 3.13) per profile point.
    return by if by < ax else ax


def tail_copula_sag(alpha: float, beta: float, theta: float, x: float, y: float) -> float:
    """Tail copula of the survival asymmetric Gumbel copula.

    Lambda(x, y) = alpha x + beta y - ||(alpha x, beta y)||_theta. With P the
    larger of alpha x and beta y and Q the smaller, it is written
    Q - P ((1 + (Q/P)^theta)^(1/theta) - 1) and the bracket is formed with
    log1p and expm1, as AsymGumbel._survival_cdf forms its exponent, so
    nothing cancels however far x/y is from 1. The value lies in [0, Q].
    The survival cdf keeps its own copy of the expression: a shared helper
    would add a call to every cdf evaluation, ~8% of that kernel.
    """
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0 and theta > 1.0):
        raise DomainError(
            f"tail_copula_sag needs alpha, beta in (0, 1] and theta > 1, "
            f"got ({alpha}, {beta}, {theta})"
        )
    _check_quadrant(x, y)
    p, q = alpha * x, beta * y
    if p < q:
        p, q = q, p
    if q == 0.0:
        return 0.0
    h = q - p * math.expm1(math.log1p((q / p) ** theta) / theta)
    # h >= 0, but a theta within a few ulps of 1 can round it below 0.
    return h if h > 0.0 else 0.0


def tail_copula_from_pickands(
    pickands: Callable[[float], float], x: float, y: float
) -> float:
    """Tail copula of the survival of an extreme-value copula.

    Lambda(x, y) = x + y - l(x, y) with the stable tail dependence function
    l(x, y) = (x + y) A(y / (x + y)). Any callable A on [0, 1] is accepted;
    with the exact lower bound A(w) = max(w, 1-w) this reduces to min(x, y),
    and A identically 1 gives the degenerate zero tail. 1 - A cancels where
    one argument dwarfs the other (past x/y ~ 1e16), so the value is clamped
    into its range [0, min(x, y)]; tail_copula_sag is the survival
    asymmetric Gumbel's cancellation-free form.
    """
    _check_quadrant(x, y)
    s = x + y
    if s == 0.0:
        return 0.0
    if s == math.inf:  # x + y overflows: halve exactly, by homogeneity
        return 2.0 * tail_copula_from_pickands(pickands, 0.5 * x, 0.5 * y)
    value = s * (1.0 - pickands(y / s))
    lo_xy = y if y < x else x
    return 0.0 if value < 0.0 else (value if value < lo_xy else lo_xy)


def tail_copula_tev(nu: float, rho: float, x: float, y: float) -> float:
    """Tail copula shared by the Student-t copula and its extreme-value limit.

    Lambda(x, y) = x T_{nu+1}(eta (rho - (y/x)^(-1/nu)))
                 + y T_{nu+1}(eta (rho - (x/y)^(-1/nu)))
    with eta = sqrt((nu+1)/(1-rho^2)).
    """
    if not 0.0 < nu < math.inf:
        raise DomainError(f"tail_copula_tev needs finite nu > 0, got {nu}")
    if not -1.0 < rho < 1.0:
        raise DomainError(f"tail_copula_tev needs rho in (-1, 1), got {rho}")
    _check_quadrant(x, y)
    if x == 0.0 or y == 0.0:
        return 0.0
    eta = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
    # r = (x/y)^(1/nu) from logs: x/y can leave the float range (x = 1e-200,
    # y = 1e200) where r does not; the clamp keeps r and 1/r finite.
    r = math.exp(min(max((math.log(x) - math.log(y)) / nu, -709.0), 709.0))
    term_x = x * student_t_cdf(eta * (rho - r), nu + 1.0)
    term_y = y * student_t_cdf(eta * (rho - 1.0 / r), nu + 1.0)
    return term_x + term_y


def tail_copula_zero(x: float, y: float) -> float:
    """Degenerate tail copula of a tail-independent model: 0 on the quadrant."""
    _check_quadrant(x, y)
    return 0.0


_LEVEL_FLOOR = 1e-5  # smallest level t (or u) of a tail limit; see default_t_sequence


def default_t_sequence(x: float, y: float) -> list[float]:
    """Geometric t sequence {0.1 * 2^-k} for the numeric tail-copula limit.

    Capped so that t * max(x, y) <= 1 (the cdf stays on the unit square) and
    floored at _LEVEL_FLOOR = 1e-5, which bounds the amplification 1/t of
    the cdf's absolute error in C(tx, ty)/t. Past max(x, y) = 25000 the cap leaves
    fewer than three terms, and past 1e5 the one term left is the floor.
    """
    _check_quadrant(x, y)
    hi = min(0.1, 1.0 / max(x, y, 1e-300))
    seq = []
    t = hi
    while t >= _LEVEL_FLOOR:
        seq.append(t)
        t *= 0.5
    if not seq:
        seq = [_LEVEL_FLOOR]
    return seq


class NumericTailValue(NamedTuple):
    """Accelerated numeric tail-copula value with its reported error."""

    value: float
    error: float
    ratios: tuple[float, ...]


def tail_copula_numeric(
    model: Copula,
    x: float,
    y: float,
    *,
    cdf_abs_error: float = 1e-8,
) -> NumericTailValue:
    """Numeric-limit tail copula: extrapolate C(tx, ty)/t along default_t_sequence.

    The ratios r go to aitken_limit, and the reported error is the
    accelerator's own, |d2 q / (1 - q)| with d2 = r[-1] - r[-2] and
    q = d2 / (r[-2] - r[-3]): the geometric tail of corrections still to
    come. The spread |d2| of the last two ratios alone understates it by the
    factor |q / (1 - q)| when the ratios converge slowly (q ~ 0.95 per
    halving of t at nu ~ 30 for the Student-t). With fewer than three ratios
    (max(x, y) > 25000) there is no q, and the error is infinite. The error
    is never below 1e-3 of the cdf's noise floor cdf_abs_error / t_last.
    """
    _check_quadrant(x, y)
    if x == 0.0 or y == 0.0:
        return NumericTailValue(value=0.0, error=0.0, ratios=())
    ts = default_t_sequence(x, y)
    ratios = []
    for t in ts:
        ratios.append(model.cdf(min(t * x, 1.0), min(t * y, 1.0)) / t)
    value, error = aitken_limit(ratios)
    noise_floor = cdf_abs_error / ts[-1]
    return NumericTailValue(
        value=value, error=max(error, noise_floor * 1e-3), ratios=tuple(ratios)
    )


class NumericTailCopula:
    """Numeric-limit tail copula of an arbitrary model, callable as Lambda(x, y)."""

    def __init__(self, model: Copula, *, cdf_abs_error: float = 1e-8) -> None:
        self.model = model
        self.cdf_abs_error = float(cdf_abs_error)

    def value_and_error(self, x: float, y: float) -> NumericTailValue:
        return tail_copula_numeric(self.model, x, y, cdf_abs_error=self.cdf_abs_error)

    def __call__(self, x: float, y: float) -> float:
        return self.value_and_error(x, y).value


def analytic_tail_copula(model: Copula) -> Callable[[float, float], float]:
    """Closed-form tail copula of a model, where one is known.

    Returns the module's closed form with the model's parameters bound.
    Tail-independent families (independence, FGM, plain MO and plain AG, whose
    lower tails vanish) map to tail_copula_zero so that the MTCM solver can
    diagnose them uniformly. Independence, FGM, comonotone and Student-t are
    radially symmetric, so their survival models share the tail;
    survival() returns them unchanged, and only an explicitly built
    Survival of one of them reaches the shared branch here. Every returned form
    raises DomainError unless x and y are finite and nonnegative.
    """
    surv = isinstance(model, Survival)
    base = model.base if surv else model
    if isinstance(base, MarshallOlkin):
        # Plain MO has a lower tail only as the comonotone case alpha = beta = 1.
        if surv or (base.alpha == 1.0 and base.beta == 1.0):
            return partial(tail_copula_smo, base.alpha, base.beta)
        return tail_copula_zero
    if isinstance(base, AsymGumbel):
        if surv:
            return partial(tail_copula_sag, base.alpha, base.beta, base.theta)
        return tail_copula_zero
    if isinstance(base, StudentT):
        return partial(tail_copula_tev, base.nu, base.rho)
    if isinstance(base, Comonotone):
        return partial(tail_copula_smo, 1.0, 1.0)
    if isinstance(base, (Independence, FGM)):
        return tail_copula_zero
    raise DomainError(f"no closed-form tail copula for {model!r}")


# The relative gap at which the mtcm search stops, the half-width in ln b of
# its refinement, and its evaluation cap.
MTCM_GAP = 1e-3
_MTCM_REFINE = 0.05
_MTCM_MAX_EVALS = 2000
_TINY = sys.float_info.min
_LN_TINY = math.log(_TINY)


class MtcmResult(NamedTuple):
    """Maximal tail concordance: maximizer, maximum, and search diagnostics.

    gap certifies lambda_star: the profile's maximum is at most
    lambda_star (1 + gap), up to the rounding of the profile values, when the
    tail is a tail copula (for a numeric one, up to its error estimates); a
    callable that is none gets no such bound. A value that is not a positive
    normal float (0, NaN, inf or subnormal) counts as the smallest normal
    float, the bound an underflow leaves. The search aims at gap <= MTCM_GAP,
    and converged is false when it met its evaluation cap first. unique
    certifies that every b with |ln(b / b_star)| > 0.1 has a profile value
    below lambda_star / (1 + MTCM_GAP); false means the search could not.
    """

    b_star: float
    lambda_star: float
    unique: bool
    gap: float
    converged: bool
    n_evals: int

    def to_json_dict(self) -> dict:
        return self._asdict()


def mtcm(tail: Callable[[float, float], float]) -> MtcmResult:
    """Maximize the profile f(s) = Lambda(e^s, e^-s) over s = ln b.

    A tail copula is monotone and homogeneous of order 1, so ln f is 1-Lipschitz
    and f(s) <= e^-|s|: f(0) = 0 exactly when Lambda vanishes (DegenerateTailError),
    and otherwise the maximizer has |s| <= -ln f(0). There, up to |s| = 709 where
    e^s is a float, a Piyavskii-Shubert search splits the interval of highest
    envelope at its peak until none exceeds the best ln f by ln(1 + MTCM_GAP);
    maximize_1d refines the best point over +-0.05. value_and_error, where the
    tail has it, raises each value by its error; a non-finite f(0) is a DomainError.
    """
    with_error = getattr(tail, "value_and_error", None)

    def profile(s: float) -> tuple[float, float]:
        b = math.exp(s)
        r = tail(b, 1.0 / b) if with_error is None else with_error(b, 1.0 / b)
        return (r, 0.0) if with_error is None else (r.value, r.error)

    def visit(s: float) -> float:
        # f(s), kept if best; returns ln(f(s) + err), floored as an underflow.
        nonlocal best_f, best_s, u_top
        f, err = profile(s)
        if best_f < f < math.inf:
            best_f, best_s = f, s
        u = math.log(f + err) if _TINY < f + err < math.inf else _LN_TINY
        u_top = max(u_top, u)
        return u

    def push(a: float, ua: float, b: float, ub: float) -> None:
        # The envelope's peak on [a, b]; a split one clears ua and ub, so lies inside.
        x = 0.5 * (a + b + ub - ua)
        heapq.heappush(heap, (-0.5 * (ua + ub + b - a), a, ua, b, ub, x))

    f0, err0 = profile(0.0)
    if not math.isfinite(f0):
        raise DomainError(f"tail copula profile at b = 1 is {f0}")
    if f0 <= err0:
        raise DegenerateTailError(f"Lambda(1, 1) = {f0:.3e} +- {err0:.1e}: the tail is degenerate")
    s_max, u0 = min(max(-math.log(f0 - err0), 0.0), 709.0), math.log(f0 + err0)
    best_f, best_s, u_top, heap, stop = f0, 0.0, u0, [], math.log1p(MTCM_GAP)
    push(-s_max, visit(-s_max), 0.0, u0)
    push(0.0, u0, s_max, visit(s_max))
    # Each split adds one interval, so len(heap) + 1 profile values are known.
    while -heap[0][0] > u_top + stop and len(heap) + 1 < _MTCM_MAX_EVALS:
        _, a, ua, b, ub, x = heapq.heappop(heap)
        ux = visit(x)
        push(a, ua, x, ux)
        push(x, ux, b, ub)
    env, h = max(-heap[0][0], u_top), _MTCM_REFINE
    ref = maximize_1d(lambda s: profile(s)[0], best_s - h, best_s + h, n_grid=5)
    best_f, best_s = max((best_f, best_s), (ref.max_value, ref.argmax))
    top = math.log(best_f)
    unique = all(-e <= top - stop or a - 2 * h <= best_s <= b + 2 * h for e, a, _, b, _, _ in heap)
    converged = env <= u_top + stop and ref.converged
    gap = math.expm1(max(env - top, 0.0))
    return MtcmResult(math.exp(best_s), best_f, unique, gap, converged, len(heap) + 1 + ref.n_evals)
