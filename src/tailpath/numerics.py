"""Self-contained numerical kernel: special functions, quadrature, roots, 1-d maximization.

The shipped package deliberately carries no special-function dependency, so the
Student-t distribution is built here from the regularized incomplete beta
function (continued fraction, Lentz's method) and log-gamma, for every nu >= 1e-323
(below it nu / 2 underflows to 0).
From a shape parameter of 100 on (nu >= 200), where the log-gamma
difference and the fraction at arguments near 1 cancel, the difference comes
from its asymptotic series and an argument past 1/2 is evaluated from its
complement by Didonato and Morris's contracted fraction.
The finite series of Abramowitz & Stegun 26.7.3-4 for integer nu is not used:
it cancels in the lower tail (relative error up to 3e-11 at T = 3.7e-6 and
9e-5 at T = 1e-12 for nu in 1..30), where the continued fraction holds 1e-14. The quantile is
Halley iteration with a bisection safeguard, started from a corrected power-law
tail bound or a Cornish-Fisher expansion, whichever is estimated closer. The bivariate
Student-t cdf lives with the copula (copulas.StudentT): a closed form for
integer nu up to 1000, quadrature built on these functions otherwise.
Integration is adaptive Gauss-Kronrod (G7/K15) with worst-interval bisection
over [a, b] or [a, inf), the only ranges the package integrates; [a, inf) is
mapped to [0, 1) with x = a + t/(1-t), whose Jacobian the open rule tolerates
at t -> 1 as long as f decays faster than 1/x^2. Root finding is classic
Brent. Maximization is a coarse grid scan followed by golden-section
refinement around the best cell, which is robust for the kinked profiles this
package optimizes (piecewise-smooth with isolated corners). The quadrature
budget (400 bisections), Brent's tolerance (1e-15) and the golden-section
bracket (1e-10) are fixed; callers choose only quadrature tolerances and grids.

Scalar routines accept and return plain floats, and the grid scan runs on
plain lists, so nothing here loads numpy until an array is built. The one
array routine is a private twin of student_t_cdf that the Student-t sampler
calls once per sample; it imports numpy when called, runs in blocks of
65536 entries and repeats the scalar arithmetic, so the two agree bit for
bit.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import BracketError, ConvergenceError, DomainError

__all__ = [
    "OptimResult1D",
    "aitken_limit",
    "betainc_regularized",
    "brent_root",
    "integrate_adaptive",
    "maximize_1d",
    "student_t_cdf",
    "student_t_pdf",
    "student_t_quantile",
]

if TYPE_CHECKING:
    import numpy as np

_EPS = sys.float_info.epsilon

# The smallest nu whose half, the incomplete beta's shape and lgamma's
# argument in the t routines, does not underflow to 0.
_NU_MIN = 1e-323

# |x| beyond which student_t_cdf takes its far-tail form (x^2 > 1e300 is
# near overflow), for nu below the same bound.
_T_FAR = 1e150

# Fixed solver settings: integrate_adaptive's bisection budget, brent_root's
# absolute tolerance and the bracket at which maximize_1d's golden section stops.
_MAX_SUBDIVISIONS = 400
_BRENT_XTOL = 1e-15
_GOLDEN_TOL = 1e-10

# 15-point Kronrod abscissae on [-1, 1] (positive half; node 0 included once)
# with the embedded 7-point Gauss rule on the odd-indexed nodes.
_KRONROD_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_KRONROD_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_GAUSS_WEIGHTS = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def betainc_regularized(a: float, b: float, x: float, xc: float | None = None) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation (modified Lentz), with the symmetry swap
    I_x(a, b) = 1 - I_{1-x}(b, a) applied when x is past the convergence
    crossover (a + 1) / (a + b + 2). The swap needs 1 - x, which cancels
    when x is near 1; a caller that can form it without cancelling passes
    it as xc. From a shape of _LARGE_SHAPE on, _betainc_large takes over.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"betainc_regularized requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"betainc_regularized requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if xc is None:
        xc = 1.0 - x
    elif not 0.0 <= xc <= 1.0:
        raise DomainError(f"betainc_regularized requires xc in [0, 1], got {xc}")
    if a >= _LARGE_SHAPE or b >= _LARGE_SHAPE:
        return _betainc_large(a, b, x, xc)
    # x = 1 swaps even where the crossover rounds to 1 (b << a).
    if x == 1.0 or x > (a + 1.0) / (a + b + 2.0):
        return 1.0 if xc == 0.0 else 1.0 - _betainc_fraction(b, a, xc)
    return _betainc_fraction(a, b, x)


def _betainc_large(a: float, b: float, x: float, xc: float) -> float:
    """betainc_regularized for a shape of at least _LARGE_SHAPE, 0 < x <= 1.

    An infinite shape is a DomainError: it makes the crossover NaN.
    x > 1/2 is judged and evaluated by xc, which keeps the digits that x
    rounded away: the swap test is xc < (b + 1) / (a + b + 2), and below the
    crossover _betainc_contracted replaces the plain fraction. In the t cdf
    at nu = 2e86, t = 6.8, z rounds to 1 while 1 - z = 2.3e-85 lies far above
    the crossover's 1.5 / (a + 2.5); a test on z would swap, and the swapped
    fraction, outside its range there, returns 1 + 1.8e-7.
    """
    if a == math.inf or b == math.inf:
        raise DomainError(f"betainc_regularized requires finite a and b, got a={a}, b={b}")
    if x > 0.5:
        swap = xc < (b + 1.0) / (a + b + 2.0)
    else:
        swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        if xc == 0.0:
            return 1.0
        a, b, x, xc = b, a, xc, x
    if x > 0.5 and xc > 0.0:
        value = _betainc_contracted(a, b, x, xc)
    else:
        value = _betainc_fraction(a, b, x, _ln_inv_beta(a, b))
    return 1.0 - value if swap else value


# Bernoulli numbers B_0 .. B_8, for _lgamma_shift's series.
_BERNOULLI = (1.0, -0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0, 0.0, -1.0 / 30.0)

# lgamma overflows past this argument.
_LGAMMA_MAX = 2.5599833278516383e305

# From this larger shape parameter on, the incomplete beta and the t density
# take their large-shape forms: _lgamma_shift's series, and for x > 1/2 the
# swap test and _betainc_contracted on 1 - x.
_LARGE_SHAPE = 100.0


def _lgamma_shift(a: float, b: float) -> float:
    """ln Gamma(a + b) - ln Gamma(a) for a >= _LARGE_SHAPE and 0 < b <= 1.

    The two lgamma values are near a ln a and cancel down to about b ln a:
    1.3e-6 relative is lost at a = 5e9, b = 1/2. So the difference is the
    asymptotic series
    b ln a + sum_{k=1..8} (-1)^(k+1) (B_{k+1}(b) - B_{k+1}(0)) / (k (k+1) a^k),
    with B_n the Bernoulli polynomials, within 3e-16 relative of mpmath at
    b = 1/2 for a >= 25.5.

    Past a = _LGAMMA_MAX it raises OverflowError as lgamma does, though the
    series itself would not overflow, so the range of every shape stays
    lgamma's (the t routines raise ConvergenceError past nu = 5.1e305).
    """
    if a > _LGAMMA_MAX:
        raise OverflowError("math range error")
    acc = 0.0
    for coeff in _lgamma_shift_coeffs(b):
        acc = coeff + acc / a
    return b * math.log(a) + acc / a


@functools.lru_cache(maxsize=8)
def _lgamma_shift_coeffs(b: float) -> tuple[float, ...]:
    """_lgamma_shift's series coefficients at b, for k = 8 down to 1.

    Each is (-1)^(k+1) (B_{k+1}(b) - B_{k+1}(0)) / (k (k+1)), with
    B_{k+1}(b) - B_{k+1}(0) = sum_{j <= k} C(k+1, j) B_j b^(k+1-j). They
    depend on b alone, and the t routines pass only b = 1/2.
    """
    coeffs = []
    for k in range(8, 0, -1):
        diff = sum(math.comb(k + 1, j) * _BERNOULLI[j] * b ** (k + 1 - j) for j in range(k + 1))
        coeffs.append((diff if k % 2 else -diff) / (k * (k + 1)))
    return tuple(coeffs)


def _ln_inv_beta(a: float, b: float) -> float:
    """-ln B(a, b) = ln Gamma(a + b) - ln Gamma(a) - ln Gamma(b).

    From a larger shape of _LARGE_SHAPE on, with the smaller below it, the
    difference for the larger shape, big, is formed without cancelling. The
    smaller is n + f with n an integer and 0 < f <= 1, and
    ln Gamma(big + n + f) - ln Gamma(big) is
    sum_{j<n} ln(big + f + j) + _lgamma_shift(big, f). At a smaller shape of
    at most 1 the sum is empty. The plain lgamma difference cancels there:
    it puts I_x(8.4e6, 3.06) at x = 1 - 1.1e-6 3.0e-8 relative off.
    """
    big, small = (a, b) if a >= b else (b, a)
    try:
        if big >= _LARGE_SHAPE and small < _LARGE_SHAPE:
            n = math.ceil(small) - 1
            f = small - n  # exact: n >= small / 2 when n > 0
            rising = math.fsum(math.log(big + f + j) for j in range(n))
            return rising + _lgamma_shift(big, f) - math.lgamma(small)
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    except OverflowError:  # lgamma overflows past 2.6e305
        raise ConvergenceError(
            f"incomplete beta for a={a}, b={b} lies beyond floating-point range"
        ) from None


def _betainc_contracted(a: float, b: float, x: float, xc: float) -> float:
    """I_x(a, b) for x > 1/2 below the crossover, a large shape, from xc = 1 - x.

    There the modified-Lentz steps of _betainc_fraction form 1 - x times
    nearly 1 at every odd step, so the rounding of x, 1e-16 absolute, comes
    back relative to 1 - x: at nu = 1e10, t = -5 the t cdf's z is
    1 - 2.5e-9 and the value is 8e-8 off. This is the even contraction of
    the same fraction as in Didonato and Morris's BFRAC (ACM TOMS 18, 1992,
    Algorithm 708), whose coefficients take x only through
    lambda = (a + b) xc - b > 0 and xc + 1, which keep their digits; the
    front likewise takes ln x as log1p(-xc) and ln(1 - x) as ln xc.
    """
    front = math.exp(_ln_inv_beta(a, b) + a * math.log1p(-xc) + b * math.log(xc))
    c = 1.0 + (a + b) * xc - b
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = xc + 1.0
    p, s = 1.0, a + 1.0
    # Wallis recurrences for 1 / (c / c1 + alpha_1 / (beta_1 + ...)),
    # rescaled each step so that the denominator is 1.
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    n = 0.0
    while n < 300.0:
        n += 1.0
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = (p * (p + c0) * e * e) * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 2.0 * _EPS * r:
            return front * r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled for a={a}, b={b}, x={x}"
    )


def _betainc_fraction(
    a: float, b: float, x: float, ln_inv_beta: float | None = None
) -> float:
    """I_x(a, b) by its continued fraction, for 0 < x < 1 below the crossover.

    ln_inv_beta is -ln B(a, b), which _betainc_large passes from
    _ln_inv_beta; without it the plain lgamma difference is formed here, as
    every shape below _LARGE_SHAPE needs, without a further call.
    """
    if ln_inv_beta is None:
        try:
            ln_inv_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        except OverflowError:  # lgamma overflows past 2.6e305
            raise ConvergenceError(
                f"incomplete beta for a={a}, b={b} lies beyond floating-point range"
            ) from None
    ln_front = ln_inv_beta + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)

    # m counts in floats and the guards |v| < eps are written -eps < v < eps:
    # an int m mixes int and float in every coefficient, and builtin abs is a
    # call. Both forms give the same bits: 2m and a + 2m are exact, and am2 is
    # formed from a at each step, since accumulating am2 += 2 rounds
    # differently; the chained test treats +-0, +-inf and NaN as abs did. Over
    # 3000 (a, b, x) cases on CPython 3.11 (shared 2-vCPU VM) a call takes
    # 7.8 us, against 10.9 us with an int m and abs.
    ab = a + b
    c = 1.0
    d = 1.0 - ab * x / (a + 1.0)
    if -1e-300 < d < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    m = 0.0
    while m < 299.0:
        m += 1.0
        am2 = a + 2.0 * m
        # even step
        num = m * (b - m) * x / ((am2 - 1.0) * am2)
        d = 1.0 + num * d
        if -1e-300 < d < 1e-300:
            d = 1e-300
        c = 1.0 + num / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        # odd step
        num = -(a + m) * (ab + m) * x / (am2 * (am2 + 1.0))
        d = 1.0 + num * d
        if -1e-300 < d < 1e-300:
            d = 1e-300
        c = 1.0 + num / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -1e-16 < delta - 1.0 < 1e-16:
            return front * h / a
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled for a={a}, b={b}, x={x}"
    )


def student_t_pdf(x: float, nu: float) -> float:
    """Density of the Student-t distribution with nu degrees of freedom."""
    if not nu >= _NU_MIN:
        raise DomainError(f"student_t_pdf requires nu >= {_NU_MIN}, got {nu}")
    return math.exp(_student_t_ln_pdf(x, nu))


def _student_t_ln_pdf(x: float, nu: float, ln_norm: float | None = None) -> float:
    """ln of student_t_pdf(x, nu), finite wherever the density underflows.

    ln_norm, the log density at 0, may be passed in by a caller that
    evaluates many points at one nu. x^2 overflows past |x| = 1.3e154, so
    past |x| = _T_FAR the log kernel ln(1 + x^2/nu) is taken as
    2 ln|x| - ln nu + log1p(nu / x^2).
    """
    if ln_norm is None:
        ln_norm = _student_t_ln_norm(nu)
    ax = abs(x)
    if ax > _T_FAR:
        ln_kernel = 2.0 * math.log(ax) - math.log(nu) + math.log1p(nu / ax / ax)
    else:
        ln_kernel = math.log1p(x * x / nu)
    return ln_norm - 0.5 * (nu + 1.0) * ln_kernel


def _student_t_ln_norm(nu: float) -> float:
    """ln of the Student-t density at 0."""
    a = 0.5 * nu
    try:
        if a >= _LARGE_SHAPE:
            shift = _lgamma_shift(a, 0.5)
        else:
            shift = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(a)
        return shift - 0.5 * math.log(nu * math.pi)
    except OverflowError:  # lgamma overflows past 2.6e305
        raise ConvergenceError(
            f"t density for nu={nu} lies beyond floating-point range"
        ) from None


def student_t_cdf(x: float, nu: float) -> float:
    """Distribution function of Student-t via the incomplete beta function.

    Uses T_nu(x) = 1 - I_z(nu/2, 1/2) / 2 for x > 0 with z = nu / (nu + x^2),
    and symmetry for x < 0, so both tails are computed without cancellation.
    Near the centre z is close to 1 and the incomplete beta swaps to
    I_{1-z}(1/2, nu/2); 1 - z is passed as x^2 / (nu + x^2), since forming
    it from z cancels when x^2 << nu (3e-11 relative at nu = 871.5,
    x = -2.5e-4).
    x^2 overflows past |x| = 1.3e154 and nu / x^2 underflows further out: at
    nu = 1, x = -1e200 the computed z is 0, while T is 3.2e-201. So past
    |x| = _T_FAR, for nu < _T_FAR, the half tail is z^a / (2 a B(a, 1/2))
    with a = nu/2 and z^a = (sqrt(nu) / |x|)^nu (1 + nu / x^2)^-a. The
    factor (1 - z)^(1/2) and the continued fraction are 1 + O(z) with
    z < 1e-150, so they are 1 to double precision.
    """
    if not nu >= _NU_MIN:
        raise DomainError(f"student_t_cdf requires nu >= {_NU_MIN}, got {nu}")
    if math.isnan(x):
        raise DomainError("student_t_cdf got NaN argument")
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    if x == 0.0:
        return 0.5
    if abs(x) > _T_FAR > nu:
        a = 0.5 * nu
        ax = abs(x)
        ln_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
        z_a = (math.sqrt(nu) / ax) ** nu * math.exp(-a * math.log1p(nu / ax / ax))
        half_tail = 0.5 * z_a * math.exp(-ln_beta) / a
    else:
        x2 = x * x
        half_tail = 0.5 * betainc_regularized(0.5 * nu, 0.5, nu / (nu + x2), x2 / (nu + x2))
    return 1.0 - half_tail if x > 0.0 else half_tail


def _betainc_array(a: float, b: float, x: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """betainc_regularized(a, b, t, tc) at every t of an array x, bit for bit.

    xc holds the complements tc = 1 - t, as the scalar routine's xc. Entries
    past the crossover take the swap I_x(a, b) = 1 - I_{1-x}(b, a) on their
    complement, and every entry then runs the scalar routine's modified-Lentz
    steps in the same order, with its own (a, b). All entries stay in one
    loop at full length: an entry that meets the stopping rule keeps the
    value it had then, while the others go on. No array changes size,
    because numpy keeps freed buffers under 1 KB in a cache keyed by exact
    size, and arrays that shrank step by step would leave it holding
    megabytes. The front factor goes through math's log, log1p and exp
    entry by entry: numpy's vector versions can differ from them by an ulp,
    and a ln x reaches -700 in the tails, where an ulp of it is 1e-13 of the
    result.
    """
    import numpy as np

    large = a >= _LARGE_SHAPE or b >= _LARGE_SHAPE  # as in betainc_regularized
    swap = (x == 1.0) | (x > (a + 1.0) / (a + b + 2.0))
    if large:
        swap = np.where(x > 0.5, xc < (b + 1.0) / (a + b + 2.0), swap)
    xs = np.where(swap, xc, x)
    # x = 0 and a swapped xc = 0 stay inactive with value 0, which the swap
    # turns into the scalar routine's 0 and 1; their placeholder 0.5 is never
    # read. Entries below the crossover have x < 1.
    active = xs > 0.0
    pairs = ((a, b), (b, a))  # an entry's (a, b), indexed by its swap flag
    # From _LARGE_SHAPE on, entries past 1/2 take _betainc_contracted as the
    # scalar routine does, one call each; they leave the array loop.
    if large:
        tc = np.where(swap, x, xc)
        contracted = active & (xs > 0.5) & (tc > 0.0)
        contracted_values = [
            _betainc_contracted(*pairs[s], t, u)
            for t, u, s in zip(
                xs[contracted].tolist(), tc[contracted].tolist(), swap[contracted].tolist()
            )
        ]
        active &= ~contracted
    xs = np.where(active, xs, 0.5)
    log, log1p, exp = math.log, math.log1p, math.exp
    norm = [_ln_inv_beta(p, q) for p, q in pairs]
    front = np.array([
        exp(norm[s] + pairs[s][0] * log(t) + pairs[s][1] * log1p(-t))
        for t, s in zip(xs.tolist(), swap.tolist())
    ])

    def per_entry(f):
        """The scalar routine's coefficient f(a, b) for each entry."""
        return np.where(swap, f(b, a), f(a, b))

    tiny = 1e-300

    def floor_tiny(v):
        if v.size and np.abs(v).min() < tiny:
            v[np.abs(v) < tiny] = tiny

    c = np.ones_like(xs)
    d = 1.0 - per_entry(lambda p, q: p + q) * xs / per_entry(lambda p, q: p + 1.0)
    floor_tiny(d)
    d = 1.0 / d
    h = d.copy()
    value = np.zeros_like(xs)
    step = np.empty_like(xs)
    # Stopped entries and placeholders keep stepping unread; they may overflow.
    with np.errstate(all="ignore"):
        for m in range(1, 300):
            if not active.any():
                break
            m2 = 2 * m
            for num in (  # the even step, then the odd step
                per_entry(lambda p, q: m * (q - m)) * xs
                / per_entry(lambda p, q: (p + m2 - 1.0) * (p + m2)),
                per_entry(lambda p, q: -(p + m) * (p + q + m)) * xs
                / per_entry(lambda p, q: (p + m2) * (p + m2 + 1.0)),
            ):
                # d = 1 + num d, c = 1 + num / c, d = 1 / d, h *= d c, in place.
                np.multiply(num, d, out=d)
                d += 1.0
                floor_tiny(d)
                np.divide(num, c, out=c)
                c += 1.0
                floor_tiny(c)
                np.divide(1.0, d, out=d)
                np.multiply(d, c, out=step)
                h *= step
            stop = active & (np.abs(step - 1.0) < 1e-16)
            if stop.any():
                value = np.where(stop, front * h / per_entry(lambda p, q: p), value)
                active &= ~stop
    if active.any():
        raise ConvergenceError(
            f"incomplete beta continued fraction stalled for a={a}, b={b}, "
            f"x={x[active][0]}"
        )
    if large:
        value[contracted] = contracted_values
    return np.where(swap, 1.0 - value, value)


# Entries of _student_t_cdf_array taken per pass; each pass's temporaries
# hold a few arrays of this length, not of the whole input.
_T_CDF_BLOCK = 65536


def _student_t_cdf_array(x: np.ndarray, nu: float) -> np.ndarray:
    """student_t_cdf over a 1-d array of x, equal entry by entry to the scalar calls.

    It runs in blocks of _T_CDF_BLOCK entries. Entries never interact, so
    the blocking changes no bit; it bounds the continued fraction's working
    arrays, which at a million entries would take several times the input.
    """
    import numpy as np

    if not nu >= _NU_MIN:
        raise DomainError(f"student_t_cdf requires nu >= {_NU_MIN}, got {nu}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(0, len(x), _T_CDF_BLOCK):
        xb = x[i:i + _T_CDF_BLOCK]
        if np.isnan(xb).any():
            raise DomainError("student_t_cdf got NaN argument")
        # x = 0 gives z = 1 and 1 - z = 0, which _betainc_array maps to the
        # scalar routine's 1. Entries past _T_FAR, infinities included, take
        # the scalar routine; x^2 may overflow there, and its complement be NaN.
        far = np.abs(xb) > _T_FAR
        with np.errstate(over="ignore", invalid="ignore"):
            x2 = xb * xb
            z = nu / (nu + x2)
            w = x2 / (nu + x2)
        half_tail = 0.5 * _betainc_array(0.5 * nu, 0.5, z, w)
        ob = out[i:i + _T_CDF_BLOCK]
        ob[:] = np.where(xb > 0.0, 1.0 - half_tail, half_tail)
        if far.any():
            ob[far] = [student_t_cdf(t, nu) for t in xb[far].tolist()]
    return out


def _ln_t_tail_constant(nu: float) -> float:
    """ln K of the tail bound T_nu(x) <= K |x|^-nu, tight as x -> -inf.

    K = Gamma((nu+1)/2) nu^(nu/2 - 1) / (sqrt(pi) Gamma(nu/2)). The bound
    holds because the density is at most its power law: 1 + x^2/nu >= x^2/nu.
    """
    return _student_t_ln_norm(nu) + 0.5 * (nu - 1.0) * math.log(nu)


# Halley steps of student_t_quantile before, on the side where T_nu > p, it
# takes Newton steps on ln T_nu instead.
_T_QUANTILE_STEPS = 120


def _t_quantile_start(p: float, nu: float, x0: float) -> float:
    """Starting point of student_t_quantile for p < 0.5, inside [x0, 0).

    Two expansions compete, each judged by its own next term. The tail
    bound x0 = -(K / p)^(1/nu) inverts the leading term of
    T_nu(x) = K |x|^-nu (1 - nu^2 (nu+1) / (2 (nu+2) x^2) + O(x^-4)); the
    second term moves it to x0 (1 - delta), delta = nu (nu+1) / (2 (nu+2) x0^2),
    so x0 is off by about delta |x0|. The Cornish-Fisher expansion about the
    normal quantile z, z + g1(z)/nu + ... + g4(z)/nu^4 (Abramowitz & Stegun
    26.7.5), is off by about its last term. The one with the smaller error
    wins: Cornish-Fisher at large nu and moderate p, the corrected tail bound
    at small nu or small p. The normal quantile comes from the standard
    library's statistics module, imported here so that importing tailpath
    does not load it.
    """
    from statistics import NormalDist

    delta = nu * (nu + 1.0) / (2.0 * (nu + 2.0) * x0 * x0)
    z = NormalDist().inv_cdf(p)
    z2 = z * z
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    if abs(g4) / nu / nu / nu / nu < -delta * x0:
        g1 = (z2 + 1.0) * z / 4.0
        g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
        g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
        x = z + (g1 + (g2 + (g3 + g4 / nu) / nu) / nu) / nu
        if x0 < x < 0.0:
            return x
    return x0 * (1.0 - delta) if delta < 0.5 else x0


def _over_exp(g: float, ln_d: float) -> float:
    """g / exp(ln_d) for g != 0, formed in logs and capped at e^709 in size."""
    return math.copysign(math.exp(min(math.log(abs(g)) - ln_d, 709.0)), g)


def student_t_quantile(p: float, nu: float) -> float:
    """Inverse of student_t_cdf: Halley iteration with a bisection safeguard.

    Upper-half probabilities are mirrored, q(p) = -q(1 - p), which is exact
    because 1 - p is. A lower-half root is bracketed by [x0, 0], where
    x0 = -(K / p)^(1/nu) inverts the power-law tail bound T_nu(x) <= K |x|^-nu
    (_ln_t_tail_constant). The iteration starts at _t_quantile_start and
    takes Halley steps on f = T_nu - p: with r = f / t_nu(x) and
    f'' / f' = -(nu+1) / (x + nu/x), a form that does not square x, the
    step is r / (1 + r (nu+1) / (2 (x + nu/x))), or the Newton step r when
    that denominator is at most 1/2. r is formed from the log density, so
    it stays finite where the density underflows (|x| past 1e130 at
    nu = 1.5). It stops when a step moves x by at most 1e-14 relative. Over
    p log-uniform on [3.7e-6, 0.27] and nu log-uniform on [1, 50], half of
    them integers, it takes 2.4 student_t_cdf calls per quantile on average.

    Where the iterate lies far on the side where T_nu(x) >> p (large nu,
    tiny p), each step on T_nu moves by about one Mills ratio and shrinks
    T_nu - p only by a constant factor. So after _T_QUANTILE_STEPS steps the
    iteration takes Newton steps on ln T_nu - ln p instead, on that side.
    """
    if not nu >= _NU_MIN:
        raise DomainError(f"student_t_quantile requires nu >= {_NU_MIN}, got {nu}")
    if p <= 0.0 or p >= 1.0:
        raise DomainError(f"student_t_quantile requires p in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -student_t_quantile(1.0 - p, nu)
    ln_mag = (_ln_t_tail_constant(nu) - math.log(p)) / nu
    if ln_mag > 709.0:
        raise ConvergenceError(
            f"t quantile for p={p}, nu={nu} lies beyond floating-point range"
        )
    # exp rounds x0 = -e^ln_mag by up to ~1e-13 relative near ln_mag = 700,
    # which can put x0 on the wrong side of the root (p = 1e-300, nu = 1),
    # so the bracket end lo reaches 8 ulps of ln_mag further out; the start
    # stays at x0.
    x0 = -math.exp(ln_mag)
    lo, hi = -math.exp(ln_mag + 8.0 * math.ulp(ln_mag)), 0.0
    ln_norm = _student_t_ln_norm(nu)

    x = _t_quantile_start(p, nu, x0)
    for k in range(2 * _T_QUANTILE_STEPS):
        t = student_t_cdf(x, nu)
        f = t - p
        if f > 0.0:
            hi = x
        elif f < 0.0:
            lo = x
        else:
            return x
        ln_df = _student_t_ln_pdf(x, nu, ln_norm)
        if f > 0.0 and k >= _T_QUANTILE_STEPS:
            # Newton on ln T_nu - ln p, whose step is T_nu ln(T_nu / p) / t_nu.
            x_new = x - _over_exp(t * math.log(t / p), ln_df)
        else:
            r = _over_exp(f, ln_df)
            halley = 1.0 + 0.5 * r * (nu + 1.0) / (x + nu / x)
            x_new = x - (r / halley if halley > 0.5 else r)
        # A converged step is kept even where it leaves the bracket: below
        # half an ulp it rounds onto x, which may be an end of the bracket.
        converged = abs(x_new - x) <= 1e-14 * max(1.0, abs(x_new))
        if not (converged or lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
            converged = abs(x_new - x) <= 1e-14 * max(1.0, abs(x_new))
        if converged:
            return x_new
        x = x_new
    raise ConvergenceError(f"t quantile iteration stalled for p={p}, nu={nu}")


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel on [a, b]: (kronrod value, error estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    kronrod = _KRONROD_WEIGHTS[7] * fc
    gauss = _GAUSS_WEIGHTS[3] * fc
    for i in range(7):
        dx = half * _KRONROD_NODES[i]
        fsum = f(center - dx) + f(center + dx)
        kronrod += _KRONROD_WEIGHTS[i] * fsum
        if i % 2 == 1:
            gauss += _GAUSS_WEIGHTS[i // 2] * fsum
    kronrod *= half
    gauss *= half
    diff = abs(kronrod - gauss)
    # QUADPACK-style sharpening of the raw difference, floored near roundoff.
    err = diff if diff == 0.0 else min(diff, (200.0 * diff) ** 1.5)
    err = max(err, 50.0 * _EPS * abs(kronrod))
    return kronrod, err


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-8,
) -> float:
    """Adaptive Gauss-Kronrod integral of f over [a, b], b finite or +inf.

    Bisects the interval with the worst error estimate until the summed
    estimate meets max(abs_tol, rel_tol * |result|), in at most
    _MAX_SUBDIVISIONS = 400 bisections. [a, inf) is folded to [0, 1) through
    x = a + t/(1 - t). a == b gives 0; a > b, a = -inf and NaN are
    DomainError. Raises ConvergenceError when the budget runs out, or when
    bisection toward infinity puts a node on t = 1, rather than returning a
    silently inaccurate value.
    """
    if abs_tol <= 0.0 or rel_tol <= 0.0:
        raise DomainError("integration tolerances must be positive")
    if not -math.inf < a <= b:  # NaN fails it too
        raise DomainError(f"integrate_adaptive needs -inf < a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    if b == math.inf:

        def g(t: float) -> float:
            w = 1.0 - t
            if w == 0.0:
                # A node rounded onto t = 1, the image of the infinite endpoint.
                raise ConvergenceError(
                    "adaptive quadrature subdivided down to the mapped infinite endpoint"
                )
            return f(a + t / w) / (w * w)

        return integrate_adaptive(g, 0.0, 1.0, abs_tol=abs_tol, rel_tol=rel_tol)

    val, err = _gk15(f, a, b)
    panels = [(err, a, b, val)]
    total_val = val
    total_err = err
    for _ in range(_MAX_SUBDIVISIONS):
        if total_err <= max(abs_tol, rel_tol * abs(total_val)):
            return total_val
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        werr, wa, wb, wval = panels.pop(worst)
        mid = 0.5 * (wa + wb)
        if mid <= wa or mid >= wb:
            # Interval at floating-point resolution; keep its estimate as is.
            panels.append((0.0, wa, wb, wval))
            continue
        lval, lerr = _gk15(f, wa, mid)
        rval, rerr = _gk15(f, mid, wb)
        total_val += lval + rval - wval
        total_err += lerr + rerr - werr
        panels.append((lerr, wa, mid, lval))
        panels.append((rerr, mid, wb, rval))
    if total_err <= max(abs_tol, rel_tol * abs(total_val)):
        return total_val
    raise ConvergenceError(
        f"adaptive quadrature used {_MAX_SUBDIVISIONS} subdivisions, "
        f"error estimate {total_err:.3e} still above tolerance"
    )


def brent_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Brent's method for a root of f on [lo, hi] with a sign change.

    Stops once the bracket is at most 4 eps |x| + _BRENT_XTOL = 1e-15 wide.
    Raises BracketError when f(lo) and f(hi) have the same strict sign, and
    ConvergenceError after 200 iterations without convergence.
    """
    if not lo < hi:
        raise DomainError(f"brent_root needs lo < hi, got [{lo}, {hi}]")
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={fa:.6e}, f(hi)={fb:.6e}"
        )
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * _BRENT_XTOL
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise ConvergenceError("brent_root hit the 200 iteration limit")


class OptimResult1D(NamedTuple):
    """Outcome of a 1-d maximization: location, value, effort, convergence."""

    argmax: float
    max_value: float
    n_evals: int
    converged: bool


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from lo to hi, the same bits as numpy.linspace.

    Entry i is lo + i * step with step = (hi - lo) / (n - 1), as numpy forms
    it, and the last entry is hi itself.
    """
    step = (hi - lo) / (n - 1)
    xs = [lo + i * step for i in range(n - 1)]
    xs.append(float(hi))
    return xs


def maximize_1d(
    f: Callable[[float], float], lo: float, hi: float, *, n_grid: int = 512
) -> OptimResult1D:
    """Maximize f on [lo, hi]: coarse grid scan, then golden-section refinement.

    The grid scan makes the search robust to multiple local maxima and kinks;
    golden-section then shrinks the best grid cell's bracket below
    _GOLDEN_TOL = 1e-10, in at most 200 steps (converged reports whether it
    got there). The returned value never falls below the best grid sample
    (monotone improvement), and exact ties resolve toward the smaller
    abscissa. The grid is n_grid evenly spaced points from lo to hi, where
    non-finite values count as -inf.
    """
    if not lo < hi:
        raise DomainError(f"maximize_1d needs lo < hi, got [{lo}, {hi}]")
    if n_grid < 3:
        raise DomainError(f"maximize_1d needs n_grid >= 3, got {n_grid}")
    xs = _linspace(lo, hi, n_grid)
    fs = [v if math.isfinite(v) else -math.inf for v in map(f, xs)]
    # First index of the largest value, so ties go to the smaller abscissa.
    i_best = fs.index(max(fs))
    n_evals = n_grid
    best_x, best_f = xs[i_best], float(fs[i_best])
    if not math.isfinite(best_f):
        raise DomainError("objective returned no finite values on the grid")

    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, n_grid - 1)]
    converged = (b - a) <= _GOLDEN_TOL
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    n_evals += 2
    for _ in range(200):
        if (b - a) <= _GOLDEN_TOL:
            converged = True
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        n_evals += 1
    for cand_x, cand_f in ((x1, f1), (x2, f2)):
        if math.isfinite(cand_f) and (
            cand_f > best_f or (cand_f == best_f and cand_x < best_x)
        ):
            best_x, best_f = cand_x, cand_f
    return OptimResult1D(argmax=best_x, max_value=best_f, n_evals=n_evals, converged=converged)


def aitken_limit(seq: Sequence[float]) -> tuple[float, float]:
    """Accelerated limit of a convergent sequence via Aitken's delta-squared.

    The one rule by which tailpath turns a finite sequence into a limit and
    an error, for the path limits of trace_path and the numeric tail copula
    alike. Uses the last three terms; the returned error estimate is the
    spread between the accelerated value and the final raw term, which is
    |d2 q / (1 - q)| with first differences d1, d2 and ratio q = d2 / d1:
    the sum of the geometric corrections after the final term. Falls back to
    the final term when the second difference is too small to divide by
    (already converged, or not geometric), with the last first-difference
    as error. One or two terms give no ratio q to estimate, so they return
    the final term with an infinite error; an empty sequence raises
    DomainError.
    """
    if len(seq) == 0:
        raise DomainError("aitken_limit needs at least one term")
    if len(seq) < 3:
        return seq[-1], math.inf
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    d1 = x1 - x0
    d2 = x2 - x1
    dd = d2 - d1
    if abs(dd) <= 1e-14 * max(abs(x0), abs(x1), abs(x2), 1e-30):
        return x2, abs(d2)
    acc = x2 - d2 * d2 / dd
    return acc, abs(acc - x2)
