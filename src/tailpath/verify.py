"""Verification suites: every shipped claim re-checked numerically.

Each suite returns CheckResult records; a suite passes when every record
does. The suites pair independent routes wherever two exist (closed form vs
solver, quadrature vs algebra, path limit vs profile maximum, sampler vs
cdf), so a regression in either route trips the comparison. The CLI `verify`
command and the acceptance tests are thin wrappers over run_suite.
Suites that draw random inputs or build grids import numpy when they run, so
importing this module (which the CLI parser does) does not load it.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Callable, NamedTuple

from .copulas import (
    AsymGumbel,
    Comonotone,
    Copula,
    FGM,
    Independence,
    MarshallOlkin,
    PickandsFn,
    StudentT,
    _t_cdf_dunnett_sobel,
    _t_cdf_quadrature,
    rectangle_volume,
    survival,
)
from .errors import DegenerateTailError
from .maxpath import equivalence_report, maximize_slice
from .numerics import maximize_1d, student_t_cdf, student_t_pdf, student_t_quantile
from .singular import cardano_roots, log_gap, singular_root
from .spectral import (
    SpectralModel,
    endpoint_mass,
    h_density,
    interior_mass,
    interior_mass_weighted,
    profile_kernel,
    profile_kernel_decay_form,
    profile_kernel_log_slope,
    smoothed_profile,
    spectral_tail_copula,
)
from .tailcopula import (
    NumericTailCopula,
    mtcm,
    tail_copula_from_pickands,
    tail_copula_sag,
    tail_copula_smo,
    tail_copula_tev,
)

__all__ = ["CheckResult", "SUITES", "run_suite"]

_T_PAIRS = ((4.0, 0.5), (2.0, -0.3), (10.0, 0.8))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _leq(name: str, value: float, bound: float) -> CheckResult:
    return _check(name, value <= bound, f"{value:.3e} (bound {bound:.1e})")


def smo_mtcm_suite() -> list[CheckResult]:
    """MTCM solver against the survival-MO closed forms sqrt(b/a), sqrt(ab)."""
    import numpy as np

    start = time.perf_counter()
    out = []
    res = mtcm(partial(tail_copula_smo, 0.35, 0.7))
    out.append(_leq("smo(0.35,0.7) b_star", abs(res.b_star - math.sqrt(2.0)), 1e-6))
    out.append(
        _leq("smo(0.35,0.7) lambda_star", abs(res.lambda_star - math.sqrt(0.245)), 1e-8)
    )
    out.append(_check("smo(0.35,0.7) unique flag", res.unique, str(res.unique)))
    # b_star = sqrt(1e7) lies far out in the search domain |ln b| <= ln 1e7.
    res = mtcm(partial(tail_copula_smo, 1e-7, 1.0))
    out.append(_leq("smo(1e-7,1) b_star", abs(res.b_star - math.sqrt(1e7)), 1e-6))
    out.append(
        _leq("smo(1e-7,1) lambda_star", abs(res.lambda_star - math.sqrt(1e-7)), 1e-8)
    )
    rng = np.random.default_rng(20260819)
    worst_b, worst_lam = 0.0, 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.05, 1.0))
        beta = float(rng.uniform(0.05, 1.0))
        r = mtcm(partial(tail_copula_smo, alpha, beta))
        worst_b = max(worst_b, abs(r.b_star - math.sqrt(beta / alpha)))
        worst_lam = max(worst_lam, abs(r.lambda_star - math.sqrt(alpha * beta)))
    out.append(_leq("random pairs b_star worst error", worst_b, 1e-6))
    out.append(_leq("random pairs lambda_star worst error", worst_lam, 1e-8))
    out.append(_leq("runtime seconds", time.perf_counter() - start, 1.0))
    return out


def ag_mtcm_suite() -> list[CheckResult]:
    """MTCM of the survival asymmetric Gumbel model via its closed form and its Pickands form."""
    res = mtcm(partial(tail_copula_sag, 0.35, 0.7, 2.0))
    pick = mtcm(partial(tail_copula_from_pickands, PickandsFn(0.35, 0.7, 2.0)))
    return [
        _leq("sag(0.35,0.7,2) b_star", abs(res.b_star - math.sqrt(2.0)), 1e-4),
        _check("sag(0.35,0.7,2) unique flag", res.unique, str(res.unique)),
        _leq(
            "sag(0.35,0.7,2) lambda_star, closed form vs Pickands form",
            abs(res.lambda_star / pick.lambda_star - 1.0),
            1e-12,
        ),
    ]


def t_bstar_suite() -> list[CheckResult]:
    """b_star = 1 for Student-t models, via both the profile and the kernel route."""
    out = []
    for nu, rho in _T_PAIRS:
        res = mtcm(partial(tail_copula_tev, nu, rho))
        out.append(
            _leq(f"t(nu={nu:g},rho={rho:g}) b_star vs 1", abs(res.b_star - 1.0), 1e-4)
        )
        sm = SpectralModel(nu, rho)
        opt = maximize_1d(lambda s: smoothed_profile(sm, s), -5.0, 5.0, n_grid=201)
        out.append(
            _leq(f"t(nu={nu:g},rho={rho:g}) smoothed-profile argmax", abs(opt.argmax), 1e-3)
        )
    return out


def equivalence_suite() -> list[CheckResult]:
    """Path-limit route vs profile-maximum route on the three reference models."""
    start = time.perf_counter()
    out = []
    for label, model in (
        ("smo(0.35,0.7)", survival(MarshallOlkin(0.35, 0.7))),
        ("sag(0.35,0.7,2)", survival(AsymGumbel(0.35, 0.7, 2.0))),
        ("t(4,0.5)", StudentT(4.0, 0.5)),
    ):
        rep = equivalence_report(model)
        out.append(_leq(f"{label} |lambda_phi - lambda_star|", rep.lambda_diff, 0.01))
        out.append(_leq(f"{label} |b_limit - b_star|", rep.b_diff, 0.02))
    out.append(_leq("runtime seconds", time.perf_counter() - start, 60.0))
    return out


def t_cdf_suite() -> list[CheckResult]:
    """Dunnett-Sobel closed form against the quadrature route.

    On a 12x12 quantile grid over [0.02, 0.98], and at far-tail quantile
    pairs, where the grid never reaches.
    """
    import numpy as np

    grid = np.linspace(0.02, 0.98, 12)
    far = ((3.7e-6, 3.7e-6), (1e-10, 1e-10), (3.7e-6, 0.27))
    out = []
    for nu in (1, 2, 3, 4, 5, 10, 30):
        xs = [student_t_quantile(float(p), nu) for p in grid]
        pairs = {
            "": [(h, k) for h in xs for k in xs],
            " far tail": [(student_t_quantile(u, nu), student_t_quantile(v, nu)) for u, v in far],
        }
        for rho in (-0.9, -0.3, 0.5, 0.95):
            for where, hk in pairs.items():
                worst = max(
                    abs(_t_cdf_dunnett_sobel(nu, rho, h, k) - _t_cdf_quadrature(nu, rho, h, k))
                    for h, k in hk
                )
                name = f"t(nu={nu},rho={rho:g}){where} closed form vs quadrature"
                out.append(_leq(name, worst, 1e-11))
    return out


def singular_suite() -> list[CheckResult]:
    """Singular-curve root quality, Cardano agreement, small-u asymptotics."""
    import numpy as np

    alpha, beta = 0.35, 0.7
    worst = 0.0
    for u in np.linspace(0.02, 0.98, 50):
        pt = singular_root(alpha, beta, float(u))
        worst = max(worst, abs(log_gap(alpha, beta, float(u), pt.x_star)))
    out = [_leq("worst |log gap| on 50-point u grid", worst, 1e-10)]
    worst = 0.0
    for u in np.linspace(0.05, 1.0, 20):
        root = singular_root(alpha, 2.0 * alpha, float(u)).x_star
        worst = max(worst, abs(cardano_roots(float(u))[0] - root))
    out.append(_leq("Cardano k=0 vs Brent worst gap (beta=2alpha)", worst, 1e-10))
    u = 1e-4
    x0, _, x2 = cardano_roots(u)
    out.append(_leq("x0/u vs sqrt(2) at u=1e-4", abs(x0 / u - math.sqrt(2.0)), 1e-3))
    out.append(_leq("x2/u^2 vs 1/2 at u=1e-4", abs(x2 / (u * u) - 0.5), 1e-3))
    return out


def spectral_suite() -> list[CheckResult]:
    """Spectral density mass, symmetry, tail-copula equivalence, t identity."""
    import numpy as np

    start = time.perf_counter()
    out = []
    grid_xy = np.logspace(-1.0, 1.0, 10)
    for nu, rho in _T_PAIRS:
        sm = SpectralModel(nu, rho)
        label = f"(nu={nu:g},rho={rho:g})"
        target = 2.0 * student_t_cdf(sm.eta * rho, nu + 1.0)
        out.append(
            _leq(f"interior mass vs 2T {label}", abs(interior_mass(sm) - target), 1e-6)
        )
        worst = 0.0
        for k in range(4, 37):
            worst = max(
                worst, abs(h_density(sm, k / 40.0) - h_density(sm, (40 - k) / 40.0))
            )
        out.append(_leq(f"h symmetry {label}", worst, 1e-12))
        worst = 0.0
        for x in grid_xy:
            for y in grid_xy:
                worst = max(
                    worst,
                    abs(
                        spectral_tail_copula(sm, float(x), float(y))
                        - tail_copula_tev(nu, rho, float(x), float(y))
                    ),
                )
        out.append(_leq(f"spectral vs closed-form tail copula {label}", worst, 1e-6))
        worst = 0.0
        for q in np.logspace(-3.0, 3.0, 61):
            q = float(q)
            lhs = student_t_pdf(sm.eta * (rho - 1.0 / q), nu + 1.0)
            rhs = q ** (nu + 2.0) * student_t_pdf(sm.eta * (rho - q), nu + 1.0)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        out.append(_leq(f"t-density identity relative {label}", worst, 1e-12))
        moment = interior_mass_weighted(sm) + endpoint_mass(sm)
        out.append(_leq(f"moment constraint {label}", abs(moment - 1.0), 1e-6))
    sm0 = SpectralModel(4.0, 0.0)
    out.append(
        _leq("endpoint mass at rho=0 vs 1/2", abs(endpoint_mass(sm0) - 0.5), 1e-12)
    )
    out.append(_leq("runtime seconds", time.perf_counter() - start, 30.0))
    return out


def kernel_suite() -> list[CheckResult]:
    """Evenness, monotonicity, envelope, and derivative of the profile kernel."""
    import numpy as np

    out = []
    for nu, rho in _T_PAIRS:
        sm = SpectralModel(nu, rho)
        label = f"(nu={nu:g},rho={rho:g})"
        worst = 0.0
        for a in np.linspace(0.05, 6.0, 40):
            worst = max(worst, abs(profile_kernel(sm, float(a)) - profile_kernel(sm, -float(a))))
        out.append(_leq(f"kernel evenness {label}", worst, 1e-12))
        grid = np.linspace(0.02, 6.0, 200)
        vals = [profile_kernel(sm, float(a)) for a in grid]
        strict = all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        out.append(_check(f"kernel strictly decreasing at 200 points {label}", strict, ""))
        worst = 0.0
        for a in np.linspace(0.01, 8.0, 50):
            worst = max(
                worst,
                abs(profile_kernel(sm, float(a)) - profile_kernel_decay_form(sm, float(a))),
            )
        out.append(_leq(f"two kernel formulas agree {label}", worst, 1e-12))
        envelope = (2.0 * sm.eta / nu) * student_t_pdf(0.0, nu + 1.0)
        ok = all(
            profile_kernel(sm, float(a))
            <= envelope * math.exp(-(1.0 + 2.0 / nu) * float(a)) * (1.0 + 1e-12)
            for a in np.linspace(0.0, 10.0, 60)
        )
        out.append(_check(f"exponential envelope {label}", ok, ""))
        worst = 0.0
        for a in (0.3, 0.8, 1.5, 2.5, 4.0):
            h = 1e-5
            fd = (
                math.log(profile_kernel(sm, a + h)) - math.log(profile_kernel(sm, a - h))
            ) / (2.0 * h)
            worst = max(worst, abs(fd - profile_kernel_log_slope(sm, a)))
        out.append(_leq(f"log-slope vs finite differences {label}", worst, 1e-6))
    return out


def fgm_suite() -> list[CheckResult]:
    """FGM(theta=-1): boundary slice maximizers and the degeneracy diagnostic."""
    import numpy as np

    model = FGM(-1.0)
    out = []
    all_boundary = True
    for u in np.arange(0.1, 0.95, 0.1):
        point = maximize_slice(model, float(u))
        all_boundary = all_boundary and point.argmax_at_boundary
    out.append(
        _check(
            "slice maximizers at interval endpoints for u in 0.1..0.9",
            all_boundary,
            "",
        )
    )
    try:
        mtcm(NumericTailCopula(model))
        fired = False
    except DegenerateTailError:
        fired = True
    out.append(_check("degenerate-tail error fires", fired, ""))
    return out


def numeric_tail_suite() -> list[CheckResult]:
    """Numeric-limit tail copula against closed forms on a 5x5 grid."""
    grid = (0.5, 0.75, 1.0, 1.5, 2.0)
    out = []
    cases: list[tuple[str, Copula, Callable[[float, float], float], float]] = [
        (
            "smo(0.35,0.7)",
            survival(MarshallOlkin(0.35, 0.7)),
            partial(tail_copula_smo, 0.35, 0.7),
            1e-15,
        ),
        ("t(4,0.5)", StudentT(4.0, 0.5), partial(tail_copula_tev, 4.0, 0.5), 1e-8),
    ]
    for label, model, analytic, cdf_err in cases:
        numeric = NumericTailCopula(model, cdf_abs_error=cdf_err)
        worst_abs = 0.0
        within_reported = True
        for x in grid:
            for y in grid:
                got = numeric.value_and_error(x, y)
                gap = abs(got.value - analytic(x, y))
                worst_abs = max(worst_abs, gap)
                within_reported = within_reported and gap <= got.error
        out.append(
            _check(
                f"{label} within self-reported error on 25 points",
                within_reported,
                f"worst abs gap {worst_abs:.3e}",
            )
        )
        out.append(_leq(f"{label} worst absolute gap", worst_abs, 1e-3))
    return out


def _property_families() -> list[tuple[str, Copula, float]]:
    """(label, model, cdf slack) triples; slack covers quadrature-backed cdfs."""
    return [
        ("indep", Independence(), 1e-12),
        ("comono", Comonotone(), 1e-12),
        ("fgm(-1)", FGM(-1.0), 1e-12),
        ("fgm(0.6)", FGM(0.6), 1e-12),
        ("mo(0.35,0.7)", MarshallOlkin(0.35, 0.7), 1e-12),
        ("smo(0.35,0.7)", survival(MarshallOlkin(0.35, 0.7)), 1e-12),
        ("ag(0.35,0.7,2)", AsymGumbel(0.35, 0.7, 2.0), 1e-12),
        ("sag(0.35,0.7,2)", survival(AsymGumbel(0.35, 0.7, 2.0)), 1e-12),
        ("t(4,0.5)", StudentT(4.0, 0.5), 2e-8),
    ]


def properties_suite() -> list[CheckResult]:
    """Bound, monotonicity, and sampling invariants across every family."""
    import numpy as np

    out = []
    grid = np.linspace(0.0, 1.0, 50)
    for label, model, slack in _property_families():
        worst = 0.0
        for u in grid:
            for v in grid:
                c = model.cdf(float(u), float(v))
                lo = max(u + v - 1.0, 0.0)
                hi = min(u, v)
                worst = max(worst, lo - c, c - hi)
        out.append(_leq(f"Frechet-Hoeffding violation {label}", worst, slack))
    rng = np.random.default_rng(715)
    for label, model, slack in _property_families():
        worst = 0.0
        for _ in range(60):
            if slack > 1e-10:
                # Quadrature-backed cdf: keep rectangles away from degenerate
                # slivers so true volumes dominate the cdf error budget.
                u1, v1 = rng.uniform(0.02, 0.9, size=2)
                u2 = u1 + rng.uniform(0.05, 0.95 - u1 if u1 < 0.9 else 0.05)
                v2 = v1 + rng.uniform(0.05, 0.95 - v1 if v1 < 0.9 else 0.05)
                u2, v2 = min(u2, 1.0), min(v2, 1.0)
            else:
                u1, u2 = sorted(rng.uniform(0.0, 1.0, size=2))
                v1, v2 = sorted(rng.uniform(0.0, 1.0, size=2))
            vol = rectangle_volume(model, float(u1), float(u2), float(v1), float(v2))
            worst = max(worst, -vol)
        out.append(_leq(f"2-increasingness violation {label}", worst, max(slack, 1e-12)))
    tails = [
        ("min-tail(0.35,0.7)", partial(tail_copula_smo, 0.35, 0.7)),
        (
            "pickands-tail(0.35,0.7,2)",
            partial(tail_copula_from_pickands, PickandsFn(0.35, 0.7, 2.0)),
        ),
        ("tev-tail(4,0.5)", partial(tail_copula_tev, 4.0, 0.5)),
    ]
    rng = np.random.default_rng(716)
    for label, tail in tails:
        worst = 0.0
        for _ in range(50):
            x, y = rng.uniform(0.1, 3.0, size=2)
            c = float(rng.uniform(0.1, 3.0))
            worst = max(worst, abs(tail(c * x, c * y) - c * tail(x, y)))
        out.append(_leq(f"1-homogeneity violation {label}", worst, 1e-10))
    pick = PickandsFn(0.35, 0.7, 2.0)
    worst_low, worst_high = 0.0, 0.0
    ws = np.linspace(0.0, 1.0, 1000)
    vals = [pick(float(w)) for w in ws]
    for w, a in zip(ws, vals):
        worst_low = max(worst_low, max(w, 1.0 - w) - a)
        worst_high = max(worst_high, a - 1.0)
    out.append(_leq("Pickands lower-bound violation", worst_low, 1e-12))
    out.append(_leq("Pickands upper-bound violation", worst_high, 1e-12))
    worst = 0.0
    for i in range(0, 998, 7):
        mid = 0.5 * (vals[i] + vals[i + 2]) - pick(float(0.5 * (ws[i] + ws[i + 2])))
        worst = max(worst, -mid)
    out.append(_leq("Pickands midpoint-convexity violation", worst, 1e-12))
    eval_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    for label, model, _slack in _property_families():
        n = 20000 if isinstance(model, (FGM, AsymGumbel)) else 40000
        if isinstance(model, StudentT):
            n = 30000
        pts = model.sample(n, seed=99)
        worst_sigma = 0.0
        for uu in eval_grid:
            for vv in eval_grid:
                emp = float(np.mean((pts[:, 0] <= uu) & (pts[:, 1] <= vv)))
                p = model.cdf(uu, vv)
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
                worst_sigma = max(worst_sigma, abs(emp - p) / se)
        out.append(
            _leq(f"sampler vs cdf worst deviation (sigmas) {label}", worst_sigma, 4.0)
        )
    como = Comonotone().sample(5000, seed=7)
    out.append(
        _check(
            "comonotone pairs identical",
            bool(np.all(como[:, 0] == como[:, 1])),
            "",
        )
    )
    return out


SUITES: dict[str, tuple[str, Callable[[], list[CheckResult]]]] = {
    "smo-mtcm": ("survival-MO tail concordance closed forms", smo_mtcm_suite),
    "ag-mtcm": ("survival-AG maximizer at sqrt(beta/alpha)", ag_mtcm_suite),
    "t-bstar": ("Student-t profile peaks at b = 1 via two routes", t_bstar_suite),
    "equivalence": ("path limit matches profile maximum", equivalence_suite),
    "singular": ("singular curve roots and small-u asymptotics", singular_suite),
    "spectral": ("spectral measure consistency", spectral_suite),
    "kernel": ("profile kernel shape and decay", kernel_suite),
    "fgm": ("degenerate tail diagnostics for FGM", fgm_suite),
    "numeric-tail": ("numeric tail limit matches analytic forms", numeric_tail_suite),
    "properties": ("copula invariants and sampler agreement", properties_suite),
    "t-cdf": ("Student-t cdf closed form matches quadrature", t_cdf_suite),
}


def run_suite(key: str) -> list[CheckResult]:
    if key not in SUITES:
        raise KeyError(f"unknown suite {key!r}; choices: {', '.join(SUITES)}")
    return SUITES[key][1]()
