"""Bivariate copula families used throughout the package.

Each family exposes the same small surface: ``cdf(u, v)`` evaluated exactly
from its closed form, and ``sample(n, seed)`` drawing from the model. Sampling
is exact where a stochastic representation exists (independence, comonotone,
Marshall-Olkin shocks, the asymmetric Gumbel's positive-stable frailty, the
Student-t scale mixture). FGM inverts its conditional distribution instead:
draw u and p uniform and solve dC/du(u, v) = p for v, a quadratic with a
closed-form root, so no sampler bisects or searches for a root. Every
sampler works on whole arrays and imports numpy when called; the cdfs are
plain float arithmetic, so evaluating a model never loads it.

The survival transform is a first-class wrapper because lower-tail questions
about a model are upper-tail questions about its survival copula.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError
from .numerics import _NU_MIN, student_t_cdf, student_t_quantile, student_t_pdf
from .numerics import _ln_t_tail_constant, _student_t_cdf_array, _student_t_ln_pdf, integrate_adaptive

__all__ = [
    "AsymGumbel",
    "Comonotone",
    "Copula",
    "FGM",
    "Independence",
    "MarshallOlkin",
    "PickandsFn",
    "StudentT",
    "Survival",
    "rectangle_volume",
    "survival",
]


if TYPE_CHECKING:
    import numpy as np

_TINY = sys.float_info.min


def _generator(n: int, seed: int | None) -> tuple[int, np.random.Generator]:
    """n as an int and numpy's generator for seed: DomainError unless both are integers >= 0."""
    import numpy as np

    try:
        size = operator.index(n)
        if size < 0:
            raise ValueError
        return size, np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise DomainError(f"sampling needs integers n, seed >= 0, got {n!r}, {seed!r}") from None


def _check_unit_pair(u: float, v: float) -> None:
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"copula arguments must lie in [0, 1]^2, got ({u}, {v})")


class Copula:
    """Common interface: a cdf on the unit square and a sampler."""

    def cdf(self, u: float, v: float) -> float:
        raise NotImplementedError

    def _survival_cdf(self, u: float, v: float) -> float:
        """Survival copula u + v - 1 + C(1-u, 1-v) at a pair Survival.cdf validated.

        This generic form cancels terms of order one to a value of order
        min(u, v), so near the origin it keeps only ~1e-16 absolute accuracy;
        families with a closed form that does not cancel override it.
        """
        return u + v - 1.0 + self.cdf(1.0 - u, 1.0 - v)

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        """Draw n >= 0 pairs as an (n, 2) array with uniform margins."""
        raise NotImplementedError

    def spec(self) -> str:
        """Model specification string, parseable by the CLI."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.spec()!r})"


class Independence(Copula):
    """Product copula: C(u, v) = u v."""

    def cdf(self, u: float, v: float) -> float:
        _check_unit_pair(u, v)
        return u * v

    _survival_cdf = cdf  # radially symmetric: its own survival copula

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        n, rng = _generator(n, seed)
        return rng.random((n, 2))

    def spec(self) -> str:
        return "indep"


class Comonotone(Copula):
    """Upper Frechet-Hoeffding bound: C(u, v) = min(u, v)."""

    def cdf(self, u: float, v: float) -> float:
        _check_unit_pair(u, v)
        return v if v < u else u  # min(u, v); see MarshallOlkin.cdf

    _survival_cdf = cdf  # radially symmetric: its own survival copula

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        import numpy as np

        n, rng = _generator(n, seed)
        u = rng.random(n)
        return np.column_stack([u, u])

    def spec(self) -> str:
        return "comono"


class FGM(Copula):
    """Farlie-Gumbel-Morgenstern family: C(u, v) = u v (1 + theta (1-u)(1-v)).

    theta in [-1, 1]. The whole family is tail independent, which makes it the
    standard degenerate-case stress test for everything downstream.
    """

    def __init__(self, theta: float) -> None:
        if not -1.0 <= theta <= 1.0:
            raise DomainError(f"FGM needs theta in [-1, 1], got {theta}")
        self.theta = float(theta)

    def cdf(self, u: float, v: float) -> float:
        _check_unit_pair(u, v)
        return u * v * (1.0 + self.theta * (1.0 - u) * (1.0 - v))

    _survival_cdf = cdf  # radially symmetric: its own survival copula

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        import numpy as np

        n, rng = _generator(n, seed)
        u = rng.random(n)
        return np.column_stack([u, self._conditional_quantile(u, rng.random(n))])

    def _conditional_quantile(self, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        """v with dC/du (u, v) = p, in closed form (Nelsen, An Introduction to Copulas, 2006).

        dC/du = v (1 + a (1 - v)) with a = theta (1 - 2u) is a quadratic in v;
        its root in [0, 1] is taken as 2p / (1 + a + sqrt((1 + a)^2 - 4ap)),
        which does not cancel. The denominator is 0 only at a = -1 with
        p = 0, where v = 0.
        """
        import numpy as np

        a = self.theta * (1.0 - 2.0 * u)
        root = np.sqrt(np.maximum((1.0 + a) ** 2 - 4.0 * a * p, 0.0))
        return 2.0 * p / np.maximum(1.0 + a + root, _TINY)

    def spec(self) -> str:
        return f"fgm:theta={self.theta:g}"


class MarshallOlkin(Copula):
    """Marshall-Olkin copula: C(u, v) = min(u^(1-alpha) v, u v^(1-beta)).

    alpha, beta in (0, 1]. Mass on the curve u^alpha = v^beta plus an
    absolutely continuous part; sampled exactly from the three-shock
    construction (two individual exponential shocks and one common shock).
    """

    def __init__(self, alpha: float, beta: float) -> None:
        if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
            raise DomainError(
                f"MarshallOlkin needs alpha, beta in (0, 1], got ({alpha}, {beta})"
            )
        self.alpha = float(alpha)
        self.beta = float(beta)

    def cdf(self, u: float, v: float) -> float:
        _check_unit_pair(u, v)
        if u == 0.0 or v == 0.0:
            return 0.0
        a = u ** (1.0 - self.alpha) * v
        b = u * v ** (1.0 - self.beta)
        # min(a, b), written out because path and profile scans call this per
        # grid point: builtin min costs 271 ns against 27 ns for the
        # conditional on CPython 3.11 (65 against 31 ns on 3.13).
        return b if b < a else a

    def _survival_cdf(self, u: float, v: float) -> float:
        """u v + (1-u)(1-v) expm1(min(alpha lu, beta lv)), lu = -ln(1-u), lv = -ln(1-v).

        C(1-u, 1-v) = (1-u)(1-v) e^H with H = min(alpha lu, beta lv) >= 0,
        so u + v - 1 + C(1-u, 1-v) is the sum of the two nonnegative terms
        above: nothing cancels, and the value keeps its relative accuracy
        down to the smallest u and v. At u = 0 or v = 0 both terms are
        exactly 0.
        """
        if u == 1.0:
            return v
        if v == 1.0:
            return u
        h = self.alpha * -math.log1p(-u)
        k = self.beta * -math.log1p(-v)
        return u * v + (1.0 - u) * (1.0 - v) * math.expm1(k if k < h else h)

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        import numpy as np

        n, rng = _generator(n, seed)
        a, b = self.alpha, self.beta
        z12 = rng.exponential(1.0, size=n)
        # Individual shock rates (1-a)/a and (1-b)/b; rate 0 means no shock.
        if a < 1.0:
            z1 = rng.exponential(a / (1.0 - a), size=n)
        else:
            z1 = np.full(n, np.inf)
        if b < 1.0:
            z2 = rng.exponential(b / (1.0 - b), size=n)
        else:
            z2 = np.full(n, np.inf)
        x = np.minimum(z1, z12)
        y = np.minimum(z2, z12)
        return np.column_stack([np.exp(-x / a), np.exp(-y / b)])

    def spec(self) -> str:
        return f"mo:alpha={self.alpha:g},beta={self.beta:g}"


class _PickandsFields(NamedTuple):
    alpha: float
    beta: float
    theta: float


class PickandsFn(_PickandsFields):
    """Asymmetric logistic Pickands dependence function.

    A(w) = (1-beta) w + (1-alpha)(1-w)
           + ((beta w)^theta + (alpha (1-w))^theta)^(1/theta)

    with alpha, beta in (0, 1] and theta > 1. Convex on [0, 1], pinned to
    A(0) = A(1) = 1, and sandwiched between max(w, 1-w) and 1.

    Orientation: w is the second coordinate's share throughout this package
    (the tail copula evaluates A(y/(x+y)), the copula A(ln v / ln(uv))), so
    alpha weights the first coordinate and beta the second. In the
    theta -> infinity limit the induced tail copula tends to min(alpha x,
    beta y), aligning with the Marshall-Olkin orientation: both families
    put the profile maximizer at sqrt(beta/alpha).
    """

    __slots__ = ()
    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, alpha: float, beta: float, theta: float) -> PickandsFn:
        if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
            raise DomainError(f"PickandsFn needs alpha, beta in (0, 1], got ({alpha}, {beta})")
        if not theta > 1.0:
            raise DomainError(f"PickandsFn needs theta > 1, got {theta}")
        return super().__new__(cls, alpha, beta, theta)

    def __call__(self, w: float) -> float:
        if not 0.0 <= w <= 1.0:
            raise DomainError(f"Pickands argument must lie in [0, 1], got {w}")
        a, b, t = self.alpha, self.beta, self.theta
        # The mix (p^t + q^t)^(1/t) of p = b w and q = a (1 - w), scaled by
        # the larger of the two so that large t cannot underflow both powers.
        p, q = b * w, a * (1.0 - w)
        if p < q:
            p, q = q, p
        mix = p * (1.0 + (q / p) ** t) ** (1.0 / t)
        return (1.0 - b) * w + (1.0 - a) * (1.0 - w) + mix


class AsymGumbel(Copula):
    """Asymmetric Gumbel extreme-value copula.

    C(u, v) = exp( ln(uv) * A(ln v / ln(uv)) ) with the asymmetric logistic
    Pickands function A. Upper tail dependent; its survival copula is the
    lower-tail workhorse of this package.
    """

    def __init__(self, alpha: float, beta: float, theta: float) -> None:
        self.pickands = PickandsFn(alpha, beta, theta)
        self.alpha = self.pickands.alpha
        self.beta = self.pickands.beta
        self.theta = self.pickands.theta

    def cdf(self, u: float, v: float) -> float:
        _check_unit_pair(u, v)
        if u == 0.0 or v == 0.0:
            return 0.0
        if u == 1.0:
            return v
        if v == 1.0:
            return u
        s = math.log(u) + math.log(v)
        w = math.log(v) / s
        return math.exp(s * self.pickands(w))

    def _survival_cdf(self, u: float, v: float) -> float:
        """u v + (1-u)(1-v) expm1(H), with H = alpha lu + beta lv - N >= 0.

        Here lu = -ln(1-u), lv = -ln(1-v) and N is the theta-norm of
        (alpha lu, beta lv), so C(1-u, 1-v) = (1-u)(1-v) e^H and the
        survival value u + v - 1 + C(1-u, 1-v) is the sum of the two
        nonnegative terms above. With P the larger of alpha lu and beta lv
        and Q the smaller, H = Q - delta, delta = P ((1 + (Q/P)^theta)^(1/theta) - 1)
        in [0, Q]; delta is formed with log1p and expm1, so H loses digits
        only where theta nears 1 and H is small against Q. Nothing else
        cancels, so the value keeps its relative accuracy near the origin.
        """
        if u == 1.0:
            return v
        if v == 1.0:
            return u
        p = self.alpha * -math.log1p(-u)
        q = self.beta * -math.log1p(-v)
        if p < q:
            p, q = q, p
        if p == 0.0:
            return 0.0
        t = self.theta
        h = q - p * math.expm1(math.log1p((q / p) ** t) / t)
        # H >= 0, but a theta within a few ulps of 1 can round it below 0.
        return u * v + (1.0 - u) * (1.0 - v) * math.expm1(h if h > 0.0 else 0.0)

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        """Exact draws from Khoudraji's product form of the model.

        C(u, v) = u^(1-alpha) v^(1-beta) G(u^alpha, v^beta), with G the
        symmetric Gumbel copula of parameter theta. So U is the larger of
        S^(1/alpha) and an independent uniform to the power 1/(1-alpha), and
        V likewise with T and beta, for (S, T) drawn from G. G comes from
        Marshall and Olkin's frailty construction (JASA 83, 1988): -ln S =
        (E1/M)^k and -ln T = (E2/M)^k, with k = 1/theta, E1 and E2 standard
        exponential, and M positive stable with E exp(-tM) = exp(-t^k). M
        comes from Kanter's representation (Ann. Probab. 3, 1975), M =
        (A(W)/E)^((1-k)/k) with W uniform on (0, pi], E standard exponential
        and A(W) = (sin(kW)^k sin((1-k)W)^(1-k) / sin W)^(1/(1-k)). It is all
        held in logs, so theta = 500 neither overflows nor underflows.
        """
        import numpy as np

        n, rng = _generator(n, seed)
        k = 1.0 / self.theta
        w = np.pi * (1.0 - rng.random(n))
        e = rng.standard_exponential((5, n))  # E, E1, E2, then -ln of the two uniforms
        ln_e = np.log(e[:3])
        # -k ln M = (1-k) (ln E - ln A(W)), with (1-k) ln A(W) expanded so that
        # no 1/(1-k) is formed; sin(kW)^k is taken before the log so that
        # theta = inf (k = 0, the comonotone G) gives 0 and not 0 * -inf.
        neg_k_ln_m = (1.0 - k) * (ln_e[0] - np.log(np.sin((1.0 - k) * w)))
        neg_k_ln_m += np.log(np.sin(w)) - np.log(np.sin(k * w) ** k)
        cols = []
        for ln_ei, weight, own in ((ln_e[1], self.alpha, e[3]), (ln_e[2], self.beta, e[4])):
            # -ln S / alpha, or -ln T / beta; then the independent factor's share.
            x = np.exp(k * ln_ei + neg_k_ln_m) / weight
            if weight < 1.0:
                x = np.minimum(x, own / (1.0 - weight))
            cols.append(np.exp(-x))
        return np.column_stack(cols)

    def spec(self) -> str:
        return f"ag:alpha={self.alpha:g},beta={self.beta:g},theta={self.theta:g}"


# Largest integer nu served by the Dunnett-Sobel sum. The sum has O(nu) terms:
# at nu = 1000 it costs about 0.3 quadrature evaluations, at nu = 5000 about
# 1.2 (see README).
_DUNNETT_SOBEL_MAX_NU = 1000


def _t_cdf_dunnett_sobel(nu: int, rho: float, h: float, k: float) -> float:
    """P(X <= h, Y <= k) for the standard bivariate t with integer nu >= 1.

    Dunnett and Sobel's (1954) finite sum, as in Genz's routine BVTL (Stat.
    Comput. 14, 2004): separate recursions for even and odd nu, and the
    limiting forms when 1 - |rho| <= 1e-15. Lengths enter through hypot, and
    the odd-nu arctangent through (h, k, nu) scaled by max(1, |h|, |k|), which
    it is invariant under, so far-tail quantiles do not overflow.
    """
    if 1.0 - rho <= 1e-15:
        return student_t_cdf(min(h, k), nu)
    if rho + 1.0 <= 1e-15:
        return max(student_t_cdf(h, nu) - student_t_cdf(-k, nu), 0.0)
    ors = (1.0 - rho) * (1.0 + rho)
    snu = math.sqrt(nu)
    rh, rk = math.hypot(snu, h), math.hypot(snu, k)  # sqrt(nu + h^2), sqrt(nu + k^2)
    # xnkh = (k - rho h)^2 / ((k - rho h)^2 + ors (nu + h^2)) and its mirror
    # xnhk, held as the legs sin/cos of an angle so 1 - xnkh keeps its digits.
    krh, hrk = k - rho * h, h - rho * k
    skh, shk = math.sqrt(ors) * rh, math.sqrt(ors) * rk
    nkh, nhk = math.hypot(krh, skh), math.hypot(hrk, shk)
    sin_kh, cos_kh = abs(krh) / nkh, skh / nkh
    sin_hk, cos_hk = abs(hrk) / nhk, shk / nhk
    ks, hs = math.copysign(1.0, krh), math.copysign(1.0, hrk)
    xnkh_c, xnhk_c = cos_kh * cos_kh, cos_hk * cos_hk  # 1 - xnkh, 1 - xnhk
    qh, qk = (snu / rh) ** 2, (snu / rk) ** 2  # 1 / (1 + h^2 / nu)
    # Both recursions count j2 = 2j in floats against a float bound, so no
    # coefficient mixes int and float; 2j and 2j +- 1 are exact, so the bits
    # are those of an int j. Over 3000 random (nu <= 50, rho, h, k) on
    # CPython 3.11 (shared 2-vCPU VM) a call takes 9.8 us, against 13.5 us
    # with an int j.
    if nu % 2 == 0:
        bvt = math.atan2(math.sqrt(ors), -rho) / (2.0 * math.pi)
        gmph, gmpk = h / (4.0 * rh), k / (4.0 * rk)
        btnckh = 2.0 * math.atan2(sin_kh, cos_kh) / math.pi
        btpdkh = 2.0 * sin_kh * cos_kh / math.pi
        btnchk = 2.0 * math.atan2(sin_hk, cos_hk) / math.pi
        btpdhk = 2.0 * sin_hk * cos_hk / math.pi
        j2, top = 0.0, float(nu)  # j2 = 2j for j = 1 .. nu/2
        while j2 < top:
            j2 += 2.0
            bvt += gmph * (1.0 + ks * btnckh)
            bvt += gmpk * (1.0 + hs * btnchk)
            btnckh += btpdkh
            btpdkh *= j2 * xnkh_c / (j2 + 1.0)
            btnchk += btpdhk
            btpdhk *= j2 * xnhk_c / (j2 + 1.0)
            gmph *= (j2 - 1.0) * qh / j2
            gmpk *= (j2 - 1.0) * qk / j2
    else:
        scale = max(1.0, abs(h), abs(k))
        hh, kk, nn = h / scale, k / scale, nu / scale / scale
        qhrk = math.sqrt(hh * hh + kk * kk - 2.0 * rho * hh * kk + nn * ors)
        hkrn = hh * kk + rho * nn
        hkn = hh * kk - nn
        hpk = hh + kk
        bvt = math.atan2(
            -math.sqrt(nn) * (hkn * qhrk + hpk * hkrn), hkn * hkrn - nn * hpk * qhrk
        ) / (2.0 * math.pi)
        if bvt < -1e-15:
            bvt += 1.0
        gmph = (h / rh) * (snu / rh) / (2.0 * math.pi)
        gmpk = (k / rk) * (snu / rk) / (2.0 * math.pi)
        btnckh = btpdkh = sin_kh
        btnchk = btpdhk = sin_hk
        j2, top = 0.0, nu - 1.0  # j2 = 2j for j = 1 .. (nu - 1)/2
        while j2 < top:
            j2 += 2.0
            bvt += gmph * (1.0 + ks * btnckh)
            bvt += gmpk * (1.0 + hs * btnchk)
            btpdkh *= (j2 - 1.0) * xnkh_c / j2
            btnckh += btpdkh
            btpdhk *= (j2 - 1.0) * xnhk_c / j2
            btnchk += btpdhk
            gmph *= j2 * qh / (j2 + 1.0)
            gmpk *= j2 * qk / (j2 + 1.0)
    return bvt


def _t_cdf_quadrature(nu: float, rho: float, h: float, k: float) -> float:
    """P(X <= h, Y <= k) for the standard bivariate t, any nu > 0, by quadrature.

    Integrates over the first coordinate, where the conditional law of the
    second given the first is a rescaled t with nu + 1 degrees of freedom.
    For every nu, h > 0 is first reflected to -h through (-X, Y), so the
    integral never spans the far upper tail. For nu >= 1 the integral is
    taken in the quantile's own scale: s = h - sigma r with sigma =
    max(1, -h), r in [0, inf) through integrate_adaptive's rational map, and
    the density divided by its value at h. With c = nu / sigma^2,
    a = h / sigma and p = r - a the integrand is
    ((c + a^2) / (c + p^2))^((nu+1)/2) T_{nu+1}(z), in (0, 1] and free of
    lgamma, and C = sigma t_nu(h) times its integral. sigma t_nu(h) is formed
    from the log density, since t_nu(h) alone underflows where C does not
    (u = 1e-200 at nu = 1.5). The tolerance, 1e-12 absolute or 1e-10
    relative on C, is stated on that normalised integral, so the error
    estimate does not shrink with the density's units. Values far below
    1e-12 therefore carry no relative accuracy. Below nu = 1 that map
    leaves a w^(nu - 1) singularity at the infinite end, so the tail below
    x0 = min(h, -1) is mapped by s = x0 w^(-1/nu) instead: its Jacobian
    cancels the density's |s|^-(nu+1) decay and the integrand,
    K |x0|^-nu (1 + nu/s^2)^(-(nu+1)/2) T_{nu+1}(z), stays bounded on [0, 1],
    with K the constant of the tail bound T_nu(x) <= K |x|^-nu.
    """
    if h > 0.0:
        # (-X, Y) has correlation -rho.
        return student_t_cdf(k, nu) - _t_cdf_quadrature(nu, -rho, -h, k)
    scale = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
    if nu >= 1.0:
        # s = h - sigma r, in units of sigma and of the density at h.
        sigma = max(1.0, -h)
        front = math.exp(math.log(sigma) + _student_t_ln_pdf(h, nu))
        if front == 0.0:
            return 0.0  # C < 1e-300: inside the 1e-12 tolerance
        c, a, kk = nu / sigma / sigma, h / sigma, k / sigma
        ca, nu1 = c + a * a, nu + 1.0
        power = 0.5 * nu1

        def body(r: float) -> float:
            p = r - a
            cp = c + p * p
            z = (kk + rho * p) * scale / math.sqrt(cp)
            return (ca / cp) ** power * student_t_cdf(z, nu1)

        abs_tol = min(1e-12 / front, sys.float_info.max)
        return front * integrate_adaptive(body, 0.0, math.inf, abs_tol=abs_tol, rel_tol=1e-10)

    def integrand(s: float) -> float:
        z = (k - rho * s) * scale / math.sqrt(nu + s * s)
        return student_t_pdf(s, nu) * student_t_cdf(z, nu + 1.0)

    x0 = min(h, -1.0)
    front = math.exp(_ln_t_tail_constant(nu) - nu * math.log(-x0))  # K |x0|^-nu

    def tail(w: float) -> float:
        # Written in r = 1/|s| = w^(1/nu) / |x0|, so nothing overflows as w -> 0.
        r = w ** (1.0 / nu) / -x0
        z = (k * r + rho) * scale / math.sqrt(nu * r * r + 1.0)
        return front * (1.0 + nu * r * r) ** (-0.5 * (nu + 1.0)) * student_t_cdf(z, nu + 1.0)

    total = integrate_adaptive(tail, 0.0, 1.0, abs_tol=0.5e-12, rel_tol=1e-10)
    if h > x0:
        total += integrate_adaptive(integrand, x0, h, abs_tol=0.5e-12, rel_tol=1e-10)
    return total


class StudentT(Copula):
    """Bivariate Student-t copula with nu degrees of freedom, correlation rho.

    cdf(u, v) is the bivariate t probability at the quantiles T_nu^-1(u),
    T_nu^-1(v). For integer nu up to 1000 it is the Dunnett-Sobel closed
    form, a finite sum of about nu/2 terms whose cost grows past that of
    quadrature at a few thousand. Every other nu goes through adaptive
    quadrature of the exact conditional decomposition, which verify also
    uses as the independent check on the closed form; for every nu it
    reflects a positive first quantile, so it never integrates across the
    far upper tail, and for nu >= 1 it integrates in the first quantile's
    own scale with the density normalised at that quantile, to 1e-12
    absolute or 1e-10 relative. Radially symmetric,
    so it equals its own survival copula; tail dependent for every rho > -1.
    """

    def __init__(self, nu: float, rho: float) -> None:
        if not _NU_MIN <= nu < math.inf:
            raise DomainError(f"StudentT needs finite nu >= {_NU_MIN}, got {nu}")
        if not -1.0 < rho < 1.0:
            raise DomainError(f"StudentT needs rho in (-1, 1), got {rho}")
        self.nu = float(nu)
        self.rho = float(rho)

    def cdf(self, u: float, v: float) -> float:
        _check_unit_pair(u, v)
        if u == 0.0 or v == 0.0:
            return 0.0
        if u == 1.0:
            return v
        if v == 1.0:
            return u
        nu, rho = self.nu, self.rho
        xu = student_t_quantile(u, nu)
        yv = student_t_quantile(v, nu)
        if nu.is_integer() and nu <= _DUNNETT_SOBEL_MAX_NU:
            c = _t_cdf_dunnett_sobel(int(nu), rho, xu, yv)
        else:
            c = _t_cdf_quadrature(nu, rho, xu, yv)
        # Both routes carry an absolute error (~1e-16 for the sum, which
        # cancels terms of order one; the quadrature's tolerance for the
        # integral), so far-tail values can leave the Frechet bounds.
        return min(max(c, u + v - 1.0, 0.0), u, v)

    _survival_cdf = cdf  # radially symmetric: its own survival copula

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        import numpy as np

        n, rng = _generator(n, seed)
        nu, rho = self.nu, self.rho
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
        w = np.sqrt(rng.chisquare(nu, size=n) / nu)
        x = z1 / w
        y = z2 / w
        t = _student_t_cdf_array(np.concatenate([x, y]), nu)
        return np.column_stack([t[:n], t[n:]])

    def spec(self) -> str:
        return f"t:nu={self.nu:g},rho={self.rho:g}"


class Survival(Copula):
    """Survival copula of a base model: C^(u, v) = u + v - 1 + C(1-u, 1-v).

    cdf validates (u, v) once and evaluates the base family's
    _survival_cdf kernel. MarshallOlkin and AsymGumbel write the base as
    C(1-u, 1-v) = (1-u)(1-v) e^H with H >= 0 in closed form, so the survival
    value is u v + (1-u)(1-v) expm1(H), two nonnegative terms, and nothing
    cancels: against a 60-digit decimal reference on u, v in [1e-10, 0.99]
    both are within 2.5e-15 relative (AsymGumbel for theta in [1.05, 500]).
    The radially symmetric independence, comonotone, FGM and Student-t
    copulas are their own survival copulas and evaluate their own cdf. Any
    other base takes the formula as written, which cancels terms of order
    one and so is accurate to ~1e-16 absolute, not relative.

    The transform is an involution, so wrapping a Survival unwraps it (see
    the survival() helper); samples are the reflected samples of the base.
    """

    def __init__(self, base: Copula) -> None:
        if isinstance(base, Survival):
            raise DomainError(
                "nested Survival wrapper; use survival() which unwraps instead"
            )
        self.base = base

    def cdf(self, u: float, v: float) -> float:
        # _check_unit_pair written out: path and profile scans call this per
        # grid point, and the call frame costs as much as the comparison.
        if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
            raise DomainError(f"copula arguments must lie in [0, 1]^2, got ({u}, {v})")
        return self.base._survival_cdf(u, v)

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        return 1.0 - self.base.sample(n, seed)

    def spec(self) -> str:
        return f"surv-{self.base.spec()}"


def survival(model: Copula) -> Copula:
    """Survival transform with the involution applied: survival(survival(C)) is C.

    Independence, comonotone, FGM and Student-t copulas are radially
    symmetric, so each is its own survival copula and comes back unchanged:
    its cdf then keeps its relative accuracy in the far lower tail, where
    u + v - 1 + C(1-u, 1-v) cancels (FGM(0.6) at u = v = 1e-8 gives 1.6e-16,
    not 0). Every other model is wrapped in Survival, whose MarshallOlkin and
    AsymGumbel kernels do not cancel either (see Survival).
    """
    if isinstance(model, Survival):
        return model.base
    if isinstance(model, (Independence, Comonotone, FGM, StudentT)):
        return model
    return Survival(model)


def rectangle_volume(
    model: Copula, u1: float, u2: float, v1: float, v2: float
) -> float:
    """Probability mass the copula assigns to the rectangle [u1,u2] x [v1,v2]."""
    if u1 > u2 or v1 > v2:
        raise DomainError("rectangle_volume needs u1 <= u2 and v1 <= v2")
    return (
        model.cdf(u2, v2) - model.cdf(u1, v2) - model.cdf(u2, v1) + model.cdf(u1, v1)
    )
