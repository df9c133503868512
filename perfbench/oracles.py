"""Independent reference values for the benchmark's correctness checks.

Nothing here imports tailpath. Every formula is written out again from the
model definitions, in numpy or scipy, so that a defect shared by two routes
inside the package cannot pass as agreement. All functions run outside the
timed section.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

# Edges of the 5x5 cell grid of the sampler deviation test.
CELL_EDGES = np.linspace(0.0, 1.0, 6)
# Family-wise false-alarm rate of the deviation test for one op, split over
# the tested cells (Bonferroni) and decided by exact binomial tails.
DEVIATION_ALPHA = 1e-6
# A cell is tested only when n p (1 - p) reaches this, the usual condition
# for the normal approximation to the binomial count.
MIN_CELL_VARIANCE = 10.0


def digits(err: float) -> float:
    """Correct decimal digits -log10|err|, with |err| floored at 1e-16."""
    return -math.log10(max(abs(err), 1e-16))


# -- Student-t tail copula ----------------------------------------------------


def t_tail_copula(nu: float, rho: float, x: float, y: float) -> float:
    """Lambda(x, y) of the Student-t copula through scipy's t cdf."""
    eta = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
    tx = stats.t.cdf(eta * (rho - (y / x) ** (-1.0 / nu)), nu + 1.0)
    ty = stats.t.cdf(eta * (rho - (x / y) ** (-1.0 / nu)), nu + 1.0)
    return float(x * tx + y * ty)


# -- asymmetric logistic Pickands function and the survival-AG profile -------


def pickands(alpha: float, beta: float, theta: float, w: np.ndarray) -> np.ndarray:
    """A(w) of the asymmetric logistic model, scaled so large theta cannot underflow.

    The mixture term ((b w)^t + (a (1-w))^t)^(1/t) is evaluated as
    m ((b w / m)^t + (a (1-w) / m)^t)^(1/t) with m the larger base.
    """
    w = np.asarray(w, dtype=float)
    p = beta * w
    q = alpha * (1.0 - w)
    m = np.maximum(p, q)
    safe = np.where(m > 0.0, m, 1.0)
    mix = m * ((p / safe) ** theta + (q / safe) ** theta) ** (1.0 / theta)
    return (1.0 - beta) * w + (1.0 - alpha) * (1.0 - w) + mix


def sag_profile(alpha: float, beta: float, theta: float, s: np.ndarray) -> np.ndarray:
    """Profile Lambda(e^s, e^-s) of the survival AG tail copula (x+y)(1 - A(y/(x+y)))."""
    s = np.asarray(s, dtype=float)
    x = np.exp(s)
    y = np.exp(-s)
    tot = x + y
    return tot * (1.0 - pickands(alpha, beta, theta, y / tot))


def sag_mtcm(alpha: float, beta: float, theta: float) -> tuple[float, float]:
    """(lambda_star, b_star) of survival AG: dense grid in s = ln b, then bounded Brent."""
    s_max = math.log(1e3)
    grid = np.linspace(-s_max, s_max, 20001)
    vals = sag_profile(alpha, beta, theta, grid)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = optimize.minimize_scalar(
        lambda s: -float(sag_profile(alpha, beta, theta, s)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    s_star, f_star = float(res.x), -float(res.fun)
    if vals[i] > f_star:
        s_star, f_star = float(grid[i]), float(vals[i])
    return f_star, math.exp(s_star)


# -- copula cdfs for the sampler deviation test -------------------------------


def _reflect(base_cdf):
    def cdf(u, v):
        return u + v - 1.0 + base_cdf(1.0 - u, 1.0 - v)

    return cdf


def _fgm(theta):
    return lambda u, v: u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))


def _mo(alpha, beta):
    def cdf(u, v):
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.minimum(u ** (1.0 - alpha) * v, u * v ** (1.0 - beta))
        return np.where((u == 0.0) | (v == 0.0), 0.0, val)

    return cdf


def _ag(alpha, beta, theta):
    def cdf(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        inner = (u > 0.0) & (v > 0.0) & (u < 1.0) & (v < 1.0)
        uu = np.where(inner, u, 0.5)
        vv = np.where(inner, v, 0.5)
        s = np.log(uu) + np.log(vv)
        val = np.exp(s * pickands(alpha, beta, theta, np.log(vv) / s))
        edge = np.where((u == 0.0) | (v == 0.0), 0.0, np.where(u == 1.0, v, u))
        return np.where(inner, val, edge)

    return cdf


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# Panels of the t cdf integral: halving toward p = 0 down to u * 2^-48, each split in four.
_T_LEVELS = 48
_T_SPLIT = 4


def t_copula_cdf_point(nu: float, rho: float, u: float, v: float) -> float:
    """Student-t copula cdf C(u, v) for 0 < u, v < 1, as an integral over the first margin's probability.

    C(u, v) = integral over p in (0, u) of T_{nu+1}(c (y - rho s) / sqrt(nu + s^2)),
    with s = T_nu^{-1}(p), y = T_nu^{-1}(v) and c = sqrt((nu+1)/(1-rho^2)). The
    integrand is bounded, but behaves like p^(1/nu) near p = 0, so the
    Gauss-Legendre panels halve in width toward 0. Against scipy's adaptive
    quad this agrees to 1e-9 relative for nu in [1, 50] and |rho| <= 0.95
    wherever C exceeds 1e-12, corners included; below that quad's own error
    dominates. scipy's multivariate_t, whose cdf is a
    randomized lattice rule, returns negative cell masses for nu < 1 and is
    off by up to 4e-4 at nu = 2.
    """
    c = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
    geo = u * 0.5 ** np.arange(_T_LEVELS, -1, -1.0)
    inner = np.linspace(geo[:-1], geo[1:], _T_SPLIT + 1)[:-1].T.ravel()
    edges = np.concatenate([[0.0], inner, [u]])
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    p = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    w = (half[:, None] * _GL_WEIGHTS).ravel()
    s = stats.t.ppf(p, nu)
    y = stats.t.ppf(v, nu)
    g = stats.t.cdf(c * (y - rho * s) / np.sqrt(nu + s * s), nu + 1.0)
    return float(np.dot(w, g))


def _t(nu, rho):
    def cdf(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        out = np.where((u == 0.0) | (v == 0.0), 0.0, np.where(u == 1.0, v, u))
        for k in np.flatnonzero((u > 0.0) & (v > 0.0) & (u < 1.0) & (v < 1.0)):
            out.flat[k] = t_copula_cdf_point(nu, rho, u.flat[k], v.flat[k])
        return out

    return cdf


def copula_cdf(family: str, params: dict):
    """Vectorized cdf of a CLI model family, from its textbook definition."""
    if family == "fgm":
        return _fgm(params["theta"])
    if family == "mo":
        return _mo(params["alpha"], params["beta"])
    if family == "smo":
        return _reflect(_mo(params["alpha"], params["beta"]))
    if family == "ag":
        return _ag(params["alpha"], params["beta"], params["theta"])
    if family == "sag":
        return _reflect(_ag(params["alpha"], params["beta"], params["theta"]))
    if family == "t":
        return _t(params["nu"], params["rho"])
    if family == "surv-t":
        return _reflect(_t(params["nu"], params["rho"]))
    raise ValueError(f"no oracle cdf for family {family!r}")


def deviation_test(sample: np.ndarray, cdf) -> tuple[bool, float]:
    """Cell-count test of a sample against a copula cdf on a 5x5 grid.

    Returns (passed, digits of the largest tested cell-share deviation).
    A cell enters the test only when n p (1 - p) is at least
    MIN_CELL_VARIANCE; its two-sided p-value comes from the exact binomial
    tails, and the op fails when any p-value falls below DEVIATION_ALPHA
    divided by the number of tested cells. That caps the false-alarm rate
    of one op at DEVIATION_ALPHA whatever the cell sizes.
    """
    n = sample.shape[0]
    uu, vv = np.meshgrid(CELL_EDGES, CELL_EDGES, indexing="ij")
    lattice = np.asarray(cdf(uu.ravel(), vv.ravel()), dtype=float).reshape(uu.shape)
    mass = lattice[1:, 1:] - lattice[:-1, 1:] - lattice[1:, :-1] + lattice[:-1, :-1]
    mass = np.clip(mass, 0.0, 1.0)
    counts, _, _ = np.histogram2d(sample[:, 0], sample[:, 1], bins=[CELL_EDGES, CELL_EDGES])
    tested = n * mass * (1.0 - mass) >= MIN_CELL_VARIANCE
    m = int(tested.sum())
    if m == 0:
        return True, digits(0.0)
    k = counts[tested]
    p = mass[tested]
    lower = stats.binom.cdf(k, n, p)
    upper = stats.binom.sf(k - 1, n, p)
    pvals = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    worst = float(np.max(np.abs(k / n - p)))
    return bool(np.all(pvals >= DEVIATION_ALPHA / m)), digits(worst)
