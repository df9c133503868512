"""Tail copulas and the maximal tail concordance measure (MTCM).

The (lower) tail copula of a copula C is the limit of C(tx, ty)/t as t drops
to 0. This module provides the closed forms available for the families in
:mod:`tailpath.copulas` (survival Marshall-Olkin, survival extreme-value via a
Pickands function, Student-t), a numeric-limit fallback for any model with an
evaluable cdf, and the MTCM solver, which maximizes the profile b mapsto
Lambda(b, 1/b) over unit-area rectangles and reports the maximizer b_star and
maximum lambda_star.

Each closed form is one plain function with its parameters first;
analytic_tail_copula binds them with functools.partial, so the solver gets
a callable Lambda(x, y). The numeric limit is both a function, which also
returns the error estimate, and a callable class (NumericTailCopula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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
    "MtcmResult",
    "NumericTailCopula",
    "analytic_tail_copula",
    "default_t_sequence",
    "mtcm",
    "tail_copula_from_pickands",
    "tail_copula_numeric",
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


def tail_copula_from_pickands(
    pickands: Callable[[float], float], x: float, y: float
) -> float:
    """Tail copula of the survival of an extreme-value copula.

    Lambda(x, y) = x + y - l(x, y) with the stable tail dependence function
    l(x, y) = (x + y) A(y / (x + y)). Any callable A on [0, 1] is accepted;
    with the exact lower bound A(w) = max(w, 1-w) this reduces to min(x, y),
    and A identically 1 gives the degenerate zero tail.
    """
    _check_quadrant(x, y)
    s = x + y
    if s == 0.0:
        return 0.0
    return s * (1.0 - pickands(y / s))


def tail_copula_tev(nu: float, rho: float, x: float, y: float) -> float:
    """Tail copula shared by the Student-t copula and its extreme-value limit.

    Lambda(x, y) = x T_{nu+1}(eta (rho - (y/x)^(-1/nu)))
                 + y T_{nu+1}(eta (rho - (x/y)^(-1/nu)))
    with eta = sqrt((nu+1)/(1-rho^2)).
    """
    if not nu > 0.0:
        raise DomainError(f"tail_copula_tev needs nu > 0, got {nu}")
    if not -1.0 < rho < 1.0:
        raise DomainError(f"tail_copula_tev needs rho in (-1, 1), got {rho}")
    _check_quadrant(x, y)
    if x == 0.0 or y == 0.0:
        return 0.0
    eta = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
    inv_nu = 1.0 / nu
    term_x = x * student_t_cdf(eta * (rho - (y / x) ** (-inv_nu)), nu + 1.0)
    term_y = y * student_t_cdf(eta * (rho - (x / y) ** (-inv_nu)), nu + 1.0)
    return term_x + term_y


def tail_copula_zero(x: float, y: float) -> float:
    """Degenerate tail copula of a tail-independent model: 0 on the quadrant."""
    _check_quadrant(x, y)
    return 0.0


def default_t_sequence(x: float, y: float) -> list[float]:
    """Geometric t sequence {0.1 * 2^-k} for the numeric tail-copula limit.

    Capped so that t * max(x, y) <= 1 (the cdf stays on the unit square) and
    floored at 1e-5, which bounds the amplification 1/t of the cdf's
    absolute error in C(tx, ty)/t. Past max(x, y) = 25000 the cap leaves
    fewer than three terms, and past 1e5 the one term left is the floor.
    """
    _check_quadrant(x, y)
    hi = min(0.1, 1.0 / max(x, y, 1e-300))
    seq = []
    t = hi
    while t >= 1e-5:
        seq.append(t)
        t *= 0.5
    if not seq:
        seq = [1e-5]
    return seq


@dataclass(frozen=True)
class NumericTailValue:
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
        return partial(tail_copula_from_pickands, base.pickands) if surv else tail_copula_zero
    if isinstance(base, StudentT):
        return partial(tail_copula_tev, base.nu, base.rho)
    if isinstance(base, Comonotone):
        return partial(tail_copula_smo, 1.0, 1.0)
    if isinstance(base, (Independence, FGM)):
        return tail_copula_zero
    raise DomainError(f"no closed-form tail copula for {model!r}")


@dataclass(frozen=True)
class MtcmResult:
    """Maximal tail concordance: maximizer, maximum, and solver diagnostics.

    profile_samples holds the (b, Lambda(b, 1/b)) pairs of the grid the
    final search scanned, in increasing b; `tailpath profile` writes them
    as profile.csv and as the profile.svg curve.
    """

    b_star: float
    lambda_star: float
    unique: bool
    profile_samples: tuple[tuple[float, float], ...] = field(repr=False)
    n_evals: int

    def to_json_dict(self) -> dict:
        return {
            "b_star": self.b_star,
            "lambda_star": self.lambda_star,
            "unique": self.unique,
            "n_evals": self.n_evals,
        }


def mtcm(tail: Callable[[float, float], float], *, n_grid: int = 512) -> MtcmResult:
    """Maximize the profile b -> Lambda(b, 1/b) and return (b_star, lambda_star).

    The search is one maximize_1d call in s = ln b over [-ln 1e3, ln 1e3],
    treating b and 1/b symmetrically: a grid scan, then golden-section
    refinement of the best grid cell to 1e-10 in s. It assumes
    Lambda(x, y) <= min(x, y), which every tail copula meets, so that
    Lambda(b, 1/b) <= min(b, 1/b): a profile value f certifies that the
    maximizer lies in |ln b| <= -ln f. When the first maximum is below 1e-3
    that bound reaches past the bracket, and the search is run once more over
    it; the second result replaces the first. A callable that breaks the
    assumption gets no such certificate. No bracket is widened further, and
    the search raises no ConvergenceError of its own.

    Raises DegenerateTailError when the profile maximum over the first
    bracket is below the degeneracy threshold 1e-10: the tail copula is
    identically zero at this resolution and every downstream tail quantity
    is undefined. A non-finite profile value counts as -inf, as in
    maximize_1d, which raises DomainError for a profile with no finite value
    on the grid and for n_grid < 3.

    The uniqueness flag is a grid-level diagnostic: it clears when some grid
    point outside the refined cell comes within the plateau tolerance 1e-9
    of the grid maximum (a plateau or a competing branch), and is not a
    certification. profile_samples is the final search's grid, which
    `tailpath profile` writes as its table and chart.
    """

    def profile(s: float) -> float:
        e = math.exp(s)
        return tail(e, 1.0 / e)

    s_max = math.log(1e3)
    res = maximize_1d(profile, -s_max, s_max, n_grid=n_grid, tol=1e-10)
    n_evals = res.n_evals
    if res.max_value < 1e-10:
        raise DegenerateTailError(
            f"profile maximum {res.max_value:.3e} below degeneracy threshold "
            "1.0e-10: tail copula is degenerate"
        )
    if res.max_value < 1e-3:
        s_max = -math.log(res.max_value)
        res = maximize_1d(profile, -s_max, s_max, n_grid=n_grid, tol=1e-10)
        n_evals += res.n_evals

    fs = res.grid_f
    f_grid = max(fs)
    i_best = fs.index(f_grid)
    near = [i for i, f in enumerate(fs) if f >= f_grid - 1e-9]
    unique = near[0] >= i_best - 1 and near[-1] <= i_best + 1

    samples = tuple((math.exp(s), f) for s, f in zip(res.grid_x, fs))
    return MtcmResult(
        b_star=math.exp(res.argmax),
        lambda_star=res.max_value,
        unique=unique,
        profile_samples=samples,
        n_evals=n_evals,
    )
