"""Spectral (angular) measure of the t extreme-value limit.

The Student-t copula's extremes are governed by a measure on [0, 1] with two
endpoint atoms and a Lebesgue density h on the interior. This module
evaluates that density, its masses, the tail copula it represents, and the
log-angle kernel whose Laplace smoothing is the profile tail copula: writing
b = e^s, the profile satisfies

    Lambda(e^s, e^{-s}) = integral of e^{-|s+a|} k(a) da over the real line,

where k (profile_kernel here) is even, strictly decreasing on (0, inf), and
exponentially bounded. Those three facts force the maximum at s = 0, i.e.
b_star = 1 for every Student-t copula; the functions here make each step
numerically checkable.

Interior integrals use the substitution w = 1/(1 + q^nu), under which
h(w) dw becomes eta (1 + q^nu) t_{nu+1}(eta (q - rho)) dq on (0, inf), a
smooth integrand, so the w-endpoint power singularities never materialize.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .numerics import _NU_MIN, _student_t_ln_pdf, integrate_adaptive, student_t_cdf, student_t_pdf
from .tailcopula import _check_quadrant

__all__ = [
    "SpectralModel",
    "endpoint_mass",
    "h_density",
    "interior_mass",
    "interior_mass_weighted",
    "profile_kernel",
    "profile_kernel_decay_form",
    "profile_kernel_log_slope",
    "smoothed_profile",
    "spectral_tail_copula",
]


class _SpectralFields(NamedTuple):
    nu: float
    rho: float


class SpectralModel(_SpectralFields):
    """Degrees of freedom and correlation of the t extreme-value family."""

    __slots__ = ()
    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, nu: float, rho: float) -> SpectralModel:
        if not _NU_MIN <= nu < math.inf:
            raise DomainError(f"SpectralModel needs finite nu >= {_NU_MIN}, got {nu}")
        if not -1.0 < rho < 1.0:
            raise DomainError(f"SpectralModel needs rho in (-1, 1), got {rho}")
        return super().__new__(cls, nu, rho)

    @property
    def eta(self) -> float:
        return math.sqrt((self.nu + 1.0) / (1.0 - self.rho * self.rho))


def _h_from_parts(sm: SpectralModel, w: float, one_w: float) -> float:
    """Density evaluated from w and 1-w supplied separately (stable for w -> 1).

    Formed in logs, since for nu < 1 and w -> 0 both r = ((1-w)/w)^(1/nu)
    and 1/w^((2nu+1)/nu) overflow while h underflows. Past ln r = 600 the t
    argument exceeds 1e260, rho is lost against r, and ln t_{nu+1} falls by
    exactly nu + 2 per unit of ln r, so the density is shifted from there.
    """
    nu, eta = sm.nu, sm.eta
    ln_w = math.log(w)
    ln_one_w = math.log(one_w)
    ln_r = (ln_one_w - ln_w) / nu
    excess = ln_r - 600.0 if ln_r > 600.0 else 0.0
    ln_t = _student_t_ln_pdf(eta * (math.exp(ln_r - excess) - sm.rho), nu + 1.0)
    ln_denom = (2.0 * nu + 1.0) / nu * ln_w + (nu - 1.0) / nu * ln_one_w
    return math.exp(math.log(eta / nu) + ln_t - (nu + 2.0) * excess - ln_denom)


def h_density(sm: SpectralModel, w: float) -> float:
    """Spectral density on (0, 1):

    h(w) = (eta/nu) t_{nu+1}(eta (r^(1/nu) - rho)) / (w^((2nu+1)/nu) (1-w)^((nu-1)/nu))

    with r = (1-w)/w. Symmetric about 1/2 and strictly positive; diverges
    (integrably) at both endpoints for nu > 1.
    """
    if not 0.0 < w < 1.0:
        raise DomainError(f"h_density needs w in (0, 1), got {w}")
    return _h_from_parts(sm, w, 1.0 - w)


def endpoint_mass(sm: SpectralModel) -> float:
    """Atom carried at each of w = 0 and w = 1: T_{nu+1}(-eta rho)."""
    return student_t_cdf(-sm.eta * sm.rho, sm.nu + 1.0)


def interior_mass(sm: SpectralModel) -> float:
    """Total interior mass of the density by adaptive quadrature.

    Computed in the substituted variable, where the integrand is
    eta (1 + q^nu) t_{nu+1}(eta (q - rho)); equals 2 T_{nu+1}(eta rho).
    """
    nu, rho, eta = sm.nu, sm.rho, sm.eta

    def integrand(q: float) -> float:
        return eta * (1.0 + q**nu) * student_t_pdf(eta * (q - rho), nu + 1.0)

    return integrate_adaptive(integrand, 0.0, math.inf, abs_tol=1e-9, rel_tol=1e-9)


def interior_mass_weighted(sm: SpectralModel) -> float:
    """Quadrature of w * h(w) over (0, 1) in the substituted variable.

    There w h(w) dw is eta t_{nu+1}(eta (q - rho)) dq; with the two endpoint
    atoms it satisfies the moment constraint, interior + endpoint_mass = 1.
    """
    nu, rho, eta = sm.nu, sm.rho, sm.eta

    def integrand(q: float) -> float:
        return eta * student_t_pdf(eta * (q - rho), nu + 1.0)

    return integrate_adaptive(integrand, 0.0, math.inf, abs_tol=1e-9, rel_tol=1e-9)


def spectral_tail_copula(sm: SpectralModel, x: float, y: float) -> float:
    """Tail copula from the spectral representation:

    Lambda(x, y) = integral over (0, 1) of min(w x, (1-w) y) h(w) dw.

    The endpoint atoms contribute nothing because the min kernel vanishes
    there. Quadrature runs in the substituted variable and splits at the
    kink q = (x/y)^(1/nu) (the image of w = y/(x+y)), after ordering x <= y
    (the tail copula is exchangeable), so the low part spans no more than
    [0, 1] and cannot miss the mass near q = rho. The integrals are those of
    Lambda(1, y/x), scaled by x, so the tolerances hold relative to min(x, y).
    """
    _check_quadrant(x, y)
    if x == 0.0 or y == 0.0:
        return 0.0
    if x > y:
        x, y = y, x
    nu, rho, eta = sm.nu, sm.rho, sm.eta
    q_kink = (x / y) ** (1.0 / nu)

    def low_part(q: float) -> float:
        # (y/x) q^nu, written so that neither factor overflows.
        return eta * (q / q_kink) ** nu * student_t_pdf(eta * (q - rho), nu + 1.0)

    def high_part(q: float) -> float:
        return eta * student_t_pdf(eta * (q - rho), nu + 1.0)

    low = integrate_adaptive(low_part, 0.0, q_kink, abs_tol=1e-10, rel_tol=1e-9)
    high = integrate_adaptive(high_part, q_kink, math.inf, abs_tol=1e-10, rel_tol=1e-9)
    return x * (low + high)


def profile_kernel(sm: SpectralModel, a: float) -> float:
    """Log-angle kernel k(a) = 2 {w(a)(1-w(a))}^(3/2) h(w(a)).

    Here w(a) = e^{2a}/(1 + e^{2a}); w and 1-w are computed separately so the
    kernel stays accurate far into the tails, where w rounds to 1.
    """
    if not math.isfinite(a):
        raise DomainError(f"profile_kernel needs finite a, got {a}")
    if abs(a) > 300.0:
        return 0.0
    w = 1.0 / (1.0 + math.exp(-2.0 * a))
    one_w = 1.0 / (1.0 + math.exp(2.0 * a))
    return 2.0 * (w * one_w) ** 1.5 * _h_from_parts(sm, w, one_w)


def profile_kernel_decay_form(sm: SpectralModel, a: float) -> float:
    """Algebraically simplified kernel (2 eta/nu) e^{-(1+2/nu)a} t_{nu+1}(eta(e^{-2a/nu} - rho)).

    Stated for a >= 0, where it makes the exponential decay explicit; agrees
    with profile_kernel to roundoff.
    """
    nu, rho, eta = sm.nu, sm.rho, sm.eta
    return (
        (2.0 * eta / nu)
        * math.exp(-(1.0 + 2.0 / nu) * a)
        * student_t_pdf(eta * (math.exp(-2.0 * a / nu) - rho), nu + 1.0)
    )


def profile_kernel_log_slope(sm: SpectralModel, a: float) -> float:
    """d/da of ln k(a): ((nu+2)/nu) (q^2 - 1) / (1 + q^2 - 2 rho q), q = e^{-2a/nu}.

    Strictly negative for a > 0 (q < 1), which is the monotonicity driving
    b_star = 1; vanishes at a = 0.
    """
    nu, rho = sm.nu, sm.rho
    q = math.exp(-2.0 * a / nu)
    return ((nu + 2.0) / nu) * (q * q - 1.0) / (1.0 + q * q - 2.0 * rho * q)


def smoothed_profile(sm: SpectralModel, s: float) -> float:
    """Profile tail copula in log coordinates: Lambda(e^s, e^{-s}).

    Evaluated as the Laplace smoothing of the kernel, integral of
    e^{-|s+a|} k(a) da, split at the kink a = -s and truncated where the
    exponential envelope of k certifies the remainder is below 1e-16 of the
    result scale. The value is at most e^-|s|, so the integral is taken in
    units of e^-|s| and the tolerances hold relative to that scale at every s.
    """
    if not math.isfinite(s):
        raise DomainError(f"smoothed_profile needs finite s, got {s}")
    half_width = abs(s) + 40.0

    def integrand(a: float) -> float:
        return math.exp(abs(s) - abs(s + a)) * profile_kernel(sm, a)

    left = integrate_adaptive(integrand, -half_width, -s, abs_tol=5e-11, rel_tol=1e-9)
    right = integrate_adaptive(integrand, -s, half_width, abs_tol=5e-11, rel_tol=1e-9)
    return math.exp(-abs(s)) * (left + right)
