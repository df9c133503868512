import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

import tailpath.copulas
from tailpath.copulas import (
    AsymGumbel,
    Comonotone,
    Copula,
    FGM,
    Independence,
    MarshallOlkin,
    PickandsFn,
    StudentT,
    Survival,
    rectangle_volume,
    survival,
)
from tailpath.errors import DomainError, TailPathError
from tailpath.numerics import (
    integrate_adaptive,
    student_t_cdf,
    student_t_pdf,
    student_t_quantile,
)
from tailpath.tailcopula import analytic_tail_copula, mtcm, tail_copula_tev

ALL_MODELS = [
    Independence(),
    Comonotone(),
    FGM(-1.0),
    FGM(0.6),
    MarshallOlkin(0.35, 0.7),
    AsymGumbel(0.35, 0.7, 2.0),
    StudentT(4.0, 0.5),
    survival(MarshallOlkin(0.35, 0.7)),
    survival(AsymGumbel(0.35, 0.7, 2.0)),
    AsymGumbel(0.35, 0.7, 500.0),
    AsymGumbel(1.0, 0.05, 2.0),
]


def model_id(model):
    return model.spec()


def inversion_draws(n, seed):
    """The (u, p) pairs the FGM sampler draws: u first, then p, from one generator."""
    rng = np.random.default_rng(seed)
    return rng.random(n), rng.random(n)


def t_copula_reference(nu, rho, u, v):
    """Student-t copula cdf from scipy's t functions, by quad over a margin's probability.

    C(u, v) = integral over p in (0, u) of T_{nu+1}(c (y - rho s) / sqrt(nu + s^2)),
    with s = T_nu^-1(p), y = T_nu^-1(v) and c = sqrt((nu+1) / (1-rho^2)). The
    smaller argument is integrated over, and v > 1/2 is reflected through
    C(u, v) = u - C_{-rho}(u, 1 - v), so quad never hunts for a sliver of mass.
    scipy.special's stdtrit and stdtr are what scipy.stats.t.ppf and .cdf
    call, without their per-call argument handling.
    """
    if u > v:
        u, v = v, u
    if v > 0.5:
        return u - t_copula_reference(nu, -rho, u, 1.0 - v)
    c = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
    y = scipy.special.stdtrit(nu, v)

    def g(p):
        s = scipy.special.stdtrit(nu, p)
        return scipy.special.stdtr(nu + 1.0, c * (y - rho * s) / math.sqrt(nu + s * s))

    return scipy.integrate.quad(g, 0.0, u, epsabs=0.0, epsrel=1e-12, limit=200)[0]


class TestClosedFormValues:
    def test_independence(self):
        assert Independence().cdf(0.3, 0.5) == 0.15

    def test_comonotone(self):
        assert Comonotone().cdf(0.3, 0.5) == 0.3

    def test_fgm_theta_minus_one(self):
        # 0.2*0.2*(1 - 0.8*0.8) = 0.04 * 0.36
        assert FGM(-1.0).cdf(0.2, 0.2) == pytest.approx(0.0144, abs=1e-15)

    def test_marshall_olkin(self):
        want = min(0.5 ** 0.65 * 0.5, 0.5 * 0.5 ** 0.3)
        assert MarshallOlkin(0.35, 0.7).cdf(0.5, 0.5) == pytest.approx(want, rel=1e-15)

    def test_min_forms_match_builtin_min(self):
        # The cdfs spell min out; on ties and at the 0 and 1 edges they must
        # return what builtin min returns, bit for bit.
        rng = np.random.default_rng(7)
        grid = [0.0, 1.0, 0.5, 0.25, 1e-300, 1.0 - 2.0 ** -53, *rng.random(40).tolist()]
        mo_params = [(0.35, 0.7), (1.0, 1.0), (0.5, 0.5), (1.0, 0.2)]
        for u in grid:
            for v in [u, *grid]:
                assert Comonotone().cdf(u, v) == min(u, v)
                for a, b in mo_params:
                    want = 0.0 if u == 0.0 or v == 0.0 else min(u ** (1.0 - a) * v, u * v ** (1.0 - b))
                    assert MarshallOlkin(a, b).cdf(u, v) == want

    def test_survival_identity(self):
        base = MarshallOlkin(0.35, 0.7)
        s = survival(base)
        u = v = 0.9
        want = u + v - 1.0 + base.cdf(1.0 - u, 1.0 - v)
        assert s.cdf(u, v) == pytest.approx(want, rel=0)

    def test_ag_boundary_continuity(self):
        m = AsymGumbel(0.35, 0.7, 2.0)
        assert m.cdf(0.4, 1.0) == 0.4
        assert m.cdf(1.0, 0.8) == 0.8
        assert m.cdf(0.0, 0.7) == 0.0


def _smo_reference(alpha, beta, u, v):
    """Survival MO cdf u + v - 1 + C(1-u, 1-v) in 60-digit decimal arithmetic.

    Every input is a float, so it converts exactly; at u, v >= 1e-10 the
    formula cancels at most ~20 digits, which leaves about 40.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        one = Decimal(1)
        u, v, a, b = Decimal(u), Decimal(v), Decimal(alpha), Decimal(beta)
        base = min((one - u) ** (one - a) * (one - v), (one - u) * (one - v) ** (one - b))
        return u + v - one + base


def _sag_reference(alpha, beta, theta, u, v):
    """Survival asymmetric Gumbel cdf in 60-digit decimal arithmetic.

    C(1-u, 1-v) = (1-u)^(1-alpha) (1-v)^(1-beta) exp(-((alpha lu)^theta +
    (beta lv)^theta)^(1/theta)), lu = -ln(1-u) and lv = -ln(1-v): the
    Pickands form exp(ln(uv) A(w)) expanded.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        one = Decimal(1)
        u, v = Decimal(u), Decimal(v)
        a, b, t = Decimal(alpha), Decimal(beta), Decimal(theta)
        lu, lv = -(one - u).ln(), -(one - v).ln()
        norm = ((a * lu) ** t + (b * lv) ** t) ** (one / t)
        return u + v - one + (-(one - a) * lu - (one - b) * lv - norm).exp()


# u, v log-spaced over [1e-10, 0.99], plus the asymmetric corners.
_SURVIVAL_GRID = [
    (float(u), float(v))
    for u in np.geomspace(1e-10, 0.99, 11)
    for v in np.geomspace(1e-10, 0.99, 11)
] + [(1e-10, 0.08), (0.08, 1e-10)]

_SMO_PARAMS = [(0.35, 0.7), (0.05, 1.0), (1.0, 0.05), (1.0, 1.0), (1e-7, 1.0)]
_SAG_PARAMS = [
    (0.35, 0.7, 2.0),
    (0.05, 1.0, 1.05),
    (1.0, 0.05, 50.0),
    (0.5, 0.5, 500.0),
    (0.35, 0.7, 200.0),
    (0.9, 0.3, 1.5),
]


class TestSurvivalKernels:
    @pytest.mark.parametrize("alpha, beta", _SMO_PARAMS)
    def test_smo_against_decimal_reference(self, alpha, beta):
        # u + v - 1 + C(1-u, 1-v) in floats was off by up to 1.2 relative here
        # (at alpha = 1e-7).
        model = survival(MarshallOlkin(alpha, beta))
        for u, v in _SURVIVAL_GRID:
            want = _smo_reference(alpha, beta, u, v)
            assert abs(Decimal(model.cdf(u, v)) - want) <= Decimal("1e-13") * want

    @pytest.mark.parametrize("alpha, beta, theta", _SAG_PARAMS)
    def test_sag_against_decimal_reference(self, alpha, beta, theta):
        # u + v - 1 + C(1-u, 1-v) in floats was off by up to 5.1e-5 relative here.
        model = survival(AsymGumbel(alpha, beta, theta))
        for u, v in _SURVIVAL_GRID:
            want = _sag_reference(alpha, beta, theta, u, v)
            assert abs(Decimal(model.cdf(u, v)) - want) <= Decimal("1e-13") * want

    @pytest.mark.parametrize(
        "model",
        [survival(MarshallOlkin(a, b)) for a, b in _SMO_PARAMS]
        + [survival(AsymGumbel(a, b, t)) for a, b, t in _SAG_PARAMS],
        ids=model_id,
    )
    def test_frechet_bounds_and_edges(self, model):
        grid = [0.0, 1e-300, 1e-10, 0.08, 0.5, 0.99, 1.0 - 2.0 ** -53, 1.0]
        for u in grid:
            for v in grid:
                c = model.cdf(u, v)
                assert max(u + v - 1.0, 0.0) - 1e-16 <= c <= min(u, v)
            # The margins are exact at the edges of the square.
            assert model.cdf(u, 0.0) == 0.0
            assert model.cdf(0.0, u) == 0.0
            assert model.cdf(u, 1.0) == u
            assert model.cdf(1.0, u) == u

    def test_generic_default_for_other_families(self):
        class _Clayton(Copula):
            def __init__(self, theta):
                self.theta = theta

            def cdf(self, u, v):
                if u == 0.0 or v == 0.0:
                    return 0.0
                return (u ** -self.theta + v ** -self.theta - 1.0) ** (-1.0 / self.theta)

            def spec(self):
                return f"clayton:theta={self.theta:g}"

        base = _Clayton(2.0)
        model = survival(base)
        assert isinstance(model, Survival) and model.base is base
        for u, v in ((0.9, 0.9), (0.2, 0.7), (0.0, 0.4), (1.0, 0.3)):
            assert model.cdf(u, v) == u + v - 1.0 + base.cdf(1.0 - u, 1.0 - v)
        with pytest.raises(DomainError):
            model.cdf(1.5, 0.5)

    @pytest.mark.parametrize(
        "model", [Independence(), Comonotone(), FGM(-1.0), FGM(0.6)], ids=model_id
    )
    def test_radially_symmetric_families_are_their_own_survival(self, model):
        assert survival(model) is model

    def test_fgm_keeps_its_far_lower_tail(self):
        # Through u + v - 1 + C(1-u, 1-v) this read 0.0.
        c = survival(FGM(0.6)).cdf(1e-8, 1e-8)
        assert c == pytest.approx(1e-16 * (1.0 + 0.6 * (1.0 - 1e-8) ** 2), rel=1e-15)

    @pytest.mark.parametrize(
        "model, u, want",
        [
            (Independence(), 1e-9, 1e-18),
            (Comonotone(), 1e-9, 1e-9),
            (FGM(0.6), 1e-8, 1e-16 * (1.0 + 0.6 * (1.0 - 1e-8) ** 2)),
            (StudentT(4.0, 0.5), 1e-9, StudentT(4.0, 0.5).cdf(1e-9, 1e-9)),
        ],
        ids=["indep", "comono", "fgm", "t"],
    )
    def test_explicit_survival_keeps_relative_accuracy(self, model, u, want):
        # An explicitly built Survival evaluates the family's own cdf; through
        # u + v - 1 + C(1-u, 1-v) FGM(0.6) read 0.0, independence 1.1e-16 and
        # the t copula 7e-9 relative off.
        assert Survival(model).cdf(u, u) == pytest.approx(want, rel=1e-13)


class TestParameterValidation:
    def test_fgm_range(self):
        with pytest.raises(DomainError):
            FGM(1.5)

    def test_mo_range(self):
        with pytest.raises(DomainError):
            MarshallOlkin(0.0, 0.5)

    def test_ag_theta(self):
        with pytest.raises(DomainError):
            AsymGumbel(0.5, 0.5, 1.0)

    def test_t_params(self):
        with pytest.raises(DomainError):
            StudentT(0.0, 0.5)
        with pytest.raises(DomainError):
            StudentT(4.0, 1.0)

    def test_cdf_domain(self):
        with pytest.raises(DomainError):
            Independence().cdf(-0.1, 0.5)

    @pytest.mark.parametrize(
        "model",
        [Comonotone(), MarshallOlkin(0.35, 0.7), survival(MarshallOlkin(0.35, 0.7))],
        ids=lambda m: m.spec(),
    )
    @pytest.mark.parametrize(
        "u, v", [(math.nan, 0.5), (0.5, math.nan), (-0.1, 0.5), (0.5, 1.5), (-1e-17, 0.5)]
    )
    def test_min_form_cdf_domain(self, model, u, v):
        with pytest.raises(DomainError):
            model.cdf(u, v)

    def test_survival_rejects_double_wrap(self):
        with pytest.raises(DomainError):
            Survival(Survival(Independence()))

    def test_survival_helper_unwraps(self):
        base = MarshallOlkin(0.35, 0.7)
        assert survival(survival(base)) is base


@pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
class TestSharedInvariants:
    def test_frechet_hoeffding(self, model):
        slack = 2e-8 if isinstance(model, StudentT) else 1e-15
        for u in np.linspace(0.0, 1.0, 21):
            for v in np.linspace(0.0, 1.0, 21):
                c = model.cdf(float(u), float(v))
                assert c >= max(u + v - 1.0, 0.0) - slack
                assert c <= min(u, v) + slack

    def test_uniform_margins(self, model):
        slack = 2e-8 if isinstance(model, StudentT) else 1e-12
        for w in (0.0, 0.21, 0.5, 0.83, 1.0):
            assert model.cdf(w, 1.0) == pytest.approx(w, abs=slack)
            assert model.cdf(1.0, w) == pytest.approx(w, abs=slack)

    def test_two_increasing(self, model):
        rng = np.random.default_rng(42)
        slack = 5e-8 if isinstance(model, StudentT) else 1e-12
        for _ in range(40):
            if isinstance(model, StudentT):
                # quadrature-backed cdf: use rectangles with sides >= 0.05
                # so true volumes dominate the error budget
                u1 = float(rng.uniform(0.0, 0.9))
                v1 = float(rng.uniform(0.0, 0.9))
                u2 = float(min(1.0, u1 + rng.uniform(0.05, 1.0 - u1 + 0.05)))
                v2 = float(min(1.0, v1 + rng.uniform(0.05, 1.0 - v1 + 0.05)))
            else:
                u1, u2 = sorted(map(float, rng.uniform(0.0, 1.0, 2)))
                v1, v2 = sorted(map(float, rng.uniform(0.0, 1.0, 2)))
            assert rectangle_volume(model, u1, u2, v1, v2) >= -slack

    def test_spec_round_trips_information(self, model):
        text = model.spec()
        assert text
        assert text == model.spec()


class TestStudentTCopula:
    def test_rho_zero_cross_median(self):
        # conditioning split: C(u, 1/2) = u/2 exactly when the correlation
        # vanishes, and symmetrically in the other argument
        m = StudentT(4.0, 0.0)
        for w in (0.1, 0.37, 0.5, 0.9):
            assert m.cdf(w, 0.5) == pytest.approx(w / 2.0, abs=1e-10)
            assert m.cdf(0.5, w) == pytest.approx(w / 2.0, abs=1e-10)

    def test_orthant_probability(self):
        # P(X<=0, Y<=0) = 1/4 + arcsin(rho) / (2 pi) for elliptical pairs
        m = StudentT(4.0, 0.5)
        want = 0.25 + math.asin(0.5) / (2.0 * math.pi)
        assert m.cdf(0.5, 0.5) == pytest.approx(want, abs=1e-10)

    def test_exchangeability(self):
        m = StudentT(3.0, -0.4)
        for u, v in ((0.2, 0.7), (0.05, 0.4), (0.66, 0.91)):
            assert m.cdf(u, v) == pytest.approx(m.cdf(v, u), abs=1e-8)

    def test_against_monte_carlo(self):
        m = StudentT(4.0, 0.5)
        pts = m.sample(10 ** 6, seed=1234)
        for u, v in ((0.1, 0.1), (0.3, 0.6), (0.8, 0.5)):
            emp = float(np.mean((pts[:, 0] <= u) & (pts[:, 1] <= v)))
            p = m.cdf(u, v)
            se = math.sqrt(p * (1.0 - p) / 10 ** 6)
            assert abs(emp - p) <= 4.0 * se

    def test_survival_t_equals_t(self):
        # elliptical symmetry: the survival copula coincides with the copula
        m = StudentT(4.0, 0.5)
        sm = Survival(m)
        for u, v in ((0.2, 0.3), (0.5, 0.8), (0.05, 0.95)):
            assert sm.cdf(u, v) == pytest.approx(m.cdf(u, v), abs=5e-8)

    def test_survival_helper_returns_t(self):
        # The reflection u + v - 1 + C(1-u, 1-v) cancels to -1.4e-11 here,
        # below the cdf's range; the t copula is its own survival copula.
        m = StudentT(2.69, 0.15)
        assert survival(m) is m
        assert survival(m).cdf(8.8e-10, 5.5e-12) >= 0.0


def _dunnett_sobel_reference(nu, rho, h, k):
    """The Dunnett-Sobel sum as it was written with int counters.

    copulas._t_cdf_dunnett_sobel does the same IEEE operations in the same
    order with float counters, so the two must agree bit for bit.
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
    if nu % 2 == 0:
        bvt = math.atan2(math.sqrt(ors), -rho) / (2.0 * math.pi)
        gmph, gmpk = h / (4.0 * rh), k / (4.0 * rk)
        btnckh = 2.0 * math.atan2(sin_kh, cos_kh) / math.pi
        btpdkh = 2.0 * sin_kh * cos_kh / math.pi
        btnchk = 2.0 * math.atan2(sin_hk, cos_hk) / math.pi
        btpdhk = 2.0 * sin_hk * cos_hk / math.pi
        for j in range(1, nu // 2 + 1):
            bvt += gmph * (1.0 + ks * btnckh)
            bvt += gmpk * (1.0 + hs * btnchk)
            btnckh += btpdkh
            btpdkh *= 2 * j * xnkh_c / (2 * j + 1)
            btnchk += btpdhk
            btpdhk *= 2 * j * xnhk_c / (2 * j + 1)
            gmph *= (2 * j - 1) * qh / (2 * j)
            gmpk *= (2 * j - 1) * qk / (2 * j)
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
        for j in range(1, (nu - 1) // 2 + 1):
            bvt += gmph * (1.0 + ks * btnckh)
            bvt += gmpk * (1.0 + hs * btnchk)
            btpdkh *= (2 * j - 1) * xnkh_c / (2 * j)
            btnckh += btpdkh
            btpdhk *= (2 * j - 1) * xnhk_c / (2 * j)
            btnchk += btpdhk
            gmph *= 2 * j * qh / (2 * j + 1)
            gmpk *= 2 * j * qk / (2 * j + 1)
    return bvt


class TestStudentTRoutes:
    def test_dunnett_sobel_matches_the_loop_reference_bit_for_bit(self):
        # nu = 1 .. 60 of both parities, rho out to 1 - 1e-12 either way, and
        # quantiles from the centre out to p = 1e-300 on either side.
        rng = np.random.default_rng(15)
        rhos = [-(1.0 - 1e-12), -0.99, -0.5, 0.0, 0.5, 0.99, 1.0 - 1e-12]
        ps = [1e-300, 1e-100, 1e-20, 3.7e-6, 0.3, 0.5, 0.9, 1.0 - 1e-16]
        for nu in range(1, 61):
            for rho in [*rhos, *rng.uniform(-1.0, 1.0, 3).tolist()]:
                far = (10.0 ** rng.uniform(-300.0, 0.0, (4, 2))).tolist()
                for p, q in [*zip(ps, ps[::-1]), *far]:
                    h, k = student_t_quantile(p, nu), student_t_quantile(q, nu)
                    want = _dunnett_sobel_reference(nu, rho, h, k)
                    got = tailpath.copulas._t_cdf_dunnett_sobel(nu, rho, h, k)
                    assert got == want, (nu, rho, h, k)

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.95])
    def test_closed_form_against_scipy(self, nu, rho):
        m = StudentT(float(nu), rho)
        corners = (
            (3.7e-6, 3.7e-6),
            (3.7e-6, 0.3),
            (0.3, 0.7),
            (0.999, 0.01),
            (1.0 - 3.7e-6, 1.0 - 3.7e-6),
        )
        for u, v in corners:
            want = t_copula_reference(float(nu), rho, u, v)
            assert abs(m.cdf(u, v) - want) <= 1e-15 + 1e-10 * want

    @pytest.mark.parametrize("nu", [1.5, 2.5, 4.5, 11.5, 30.5])
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.95])
    def test_quadrature_against_reference(self, nu, rho):
        # The quadrature route's documented tolerance: 1e-12 absolute or
        # 1e-10 relative. Integrating at unit scale missed it in the far lower
        # tail (nu = 1.5, rho = -0.9, u = v = 3.7e-6 was 2.5e-12 off).
        m = StudentT(nu, rho)
        corners = (
            (3.7e-6, 3.7e-6),
            (3.7e-6, 0.3),
            (0.3, 0.7),
            (0.999, 0.01),
            (1.0 - 3.7e-6, 1.0 - 3.7e-6),
            (1e-10, 1e-10),
        )
        for u, v in corners:
            want = t_copula_reference(nu, rho, u, v)
            assert abs(m.cdf(u, v) - want) <= 1e-12 + 1e-10 * want

    @pytest.mark.parametrize("nu, rho", [(1.5, 0.5), (4.5, 0.9)])
    @pytest.mark.parametrize("u", [1e-30, 1e-100])
    def test_deep_tail_follows_tail_dependence(self, nu, rho, u):
        # C(u, u) ~ lambda u as u -> 0, with lambda the tail dependence
        # coefficient. These values lie far below the route's 1e-12 absolute
        # tolerance, so the 1e-3 bound claims no relative accuracy; it only
        # catches the collapse of the unit-scale integral, which read at most
        # 2e-4 of lambda u here.
        lam = tail_copula_tev(nu, rho, 1.0, 1.0)
        assert StudentT(nu, rho).cdf(u, u) / (u * lam) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("nu, rho", [(1.5, 0.5), (4.5, 0.9)])
    @pytest.mark.parametrize("u", [1e-200, 1e-300])
    def test_deeper_tail_keeps_the_density_in_logs(self, nu, rho, u):
        # Here the density at the first quantile underflows while sigma times
        # it, about u, does not. A front formed from the density read 0.0.
        lam = tail_copula_tev(nu, rho, 1.0, 1.0)
        assert StudentT(nu, rho).cdf(u, u) / (u * lam) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "nu, route",
        [
            (4.0, "_t_cdf_dunnett_sobel"),
            (1000.0, "_t_cdf_dunnett_sobel"),
            (4.5, "_t_cdf_quadrature"),
            (1001.0, "_t_cdf_quadrature"),
            (0.5, "_t_cdf_quadrature"),
        ],
    )
    def test_route_dispatch(self, nu, route, monkeypatch):
        calls = []
        for name in ("_t_cdf_dunnett_sobel", "_t_cdf_quadrature"):
            real = getattr(tailpath.copulas, name)

            def spy(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(tailpath.copulas, name, spy)
        StudentT(nu, 0.5).cdf(0.2, 0.3)
        assert calls[0] == route

    @pytest.mark.parametrize(
        "nu, rho, u, v", [(7.5, -0.99, 0.5, 0.9999999), (4.5, 0.5, 0.5, 1.0 - 1e-16)]
    )
    def test_quadrature_route_stays_in_frechet_bounds(self, nu, rho, u, v):
        # The quadrature's absolute error put these 1.4e-15 below the lower
        # bound and 2.4e-13 above the upper one.
        assert max(u + v - 1.0, 0.0) <= StudentT(nu, rho).cdf(u, v) <= min(u, v)

    @pytest.mark.parametrize(
        "nu, rho, u, v",
        [
            (0.5, 0.99, 1e-3, 2e-3),  # raised ZeroDivisionError
            (0.3, 0.5, 1e-4, 1e-4),  # returned 9.8e-15
            (0.3, -0.5, 0.2, 0.4),
            (0.7, 0.5, 0.9, 0.3),
            (0.02, 0.5, 1e-3, 1e-3),  # s = x0 w^(-1/nu) overflows in floats
        ],
    )
    def test_heavy_tails_below_nu_one(self, nu, rho, u, v):
        want = t_copula_reference(nu, rho, u, v)
        assert StudentT(nu, rho).cdf(u, v) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 4.0, 5.0, 30.0, 1.5, 4.5])
    @pytest.mark.parametrize("rho", [-0.9, 0.5, 0.9999999])
    def test_far_tails_stay_in_frechet_bounds(self, nu, rho):
        m = StudentT(nu, rho)
        for u, v in ((1e-300, 0.5), (1e-150, 1e-150), (1e-20, 1e-20), (0.5, 1.0 - 1e-16)):
            try:
                c = m.cdf(u, v)
            except TailPathError:
                continue
            assert max(u + v - 1.0, 0.0) <= c <= min(u, v)

    def test_positive_first_quantile_is_reflected_for_nu_above_one(self):
        # h = T_nu^-1(1 - 1e-6) is far in the upper tail; the integral over
        # (-inf, h] lost 1.3e-8 relative there. 40-digit mpmath reference.
        want = 0.19999997533544811982
        assert StudentT(1.01, 0.95).cdf(1.0 - 1e-6, 0.2) == pytest.approx(want, rel=1e-9)

    def test_degenerate_correlation(self):
        for nu in (3.0, 4.0):
            assert StudentT(nu, 1.0 - 1e-16).cdf(0.2, 0.3) == pytest.approx(0.2, abs=1e-15)
            assert StudentT(nu, -1.0 + 1e-16).cdf(0.8, 0.3) == pytest.approx(0.1, abs=1e-15)


class TestPickands:
    def test_endpoints_and_symmetry_point(self):
        a = PickandsFn(0.35, 0.7, 2.0)
        assert a(0.0) == pytest.approx(1.0, abs=1e-15)
        assert a(1.0) == pytest.approx(1.0, abs=1e-15)
        mid = 0.5 * (1.0 - 0.7) + 0.5 * (1.0 - 0.35) + math.hypot(0.35, 0.7) / 2.0
        assert a(0.5) == pytest.approx(mid, rel=1e-15)

    def test_bounds_and_convexity(self):
        a = PickandsFn(0.35, 0.7, 2.0)
        ws = np.linspace(0.0, 1.0, 101)
        vals = [a(float(w)) for w in ws]
        for w, val in zip(ws, vals):
            assert max(w, 1.0 - w) - 1e-15 <= val <= 1.0 + 1e-15
        for i in range(1, 100):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            PickandsFn(0.35, 0.7, 2.0)(1.2)

    def test_large_theta_does_not_underflow(self):
        # A(1/2) = 1 - (alpha+beta)/2 + ((beta/2)^theta + (alpha/2)^theta)^(1/theta);
        # at alpha = beta = 0.1 both powers are below 1e-650.
        assert PickandsFn(0.1, 0.1, 500.0)(0.5) == pytest.approx(
            0.9 + 0.05 * 2.0 ** (1.0 / 500.0), rel=1e-15
        )

    @pytest.mark.parametrize("theta", [260.0, 500.0])
    def test_large_theta_mtcm(self, theta):
        # Symmetric parameters put the profile maximum at b = 1, where
        # Lambda(1, 1) = 2 (1 - A(1/2)) = 0.2 - 0.1 * 2^(1/theta).
        res = mtcm(analytic_tail_copula(survival(AsymGumbel(0.1, 0.1, theta))))
        assert abs(res.lambda_star - (0.2 - 0.1 * 2.0 ** (1.0 / theta))) <= 1e-9


class TestSamplers:
    def test_comonotone_diagonal(self):
        pts = Comonotone().sample(1000, seed=11)
        assert np.all(pts[:, 0] == pts[:, 1])

    def test_seed_determinism(self):
        for model in ALL_MODELS:
            a = model.sample(64, seed=5)
            b = model.sample(64, seed=5)
            assert np.array_equal(a, b), model.spec()

    def test_output_shape_and_range(self):
        for model in ALL_MODELS:
            pts = model.sample(257, seed=2)
            assert pts.shape == (257, 2)
            assert np.all(pts >= 0.0) and np.all(pts <= 1.0), model.spec()

    @pytest.mark.parametrize(
        "model,n",
        [
            (Independence(), 40000),
            (MarshallOlkin(0.35, 0.7), 40000),
            (survival(MarshallOlkin(0.35, 0.7)), 40000),
            (FGM(-1.0), 20000),
            (AsymGumbel(0.35, 0.7, 2.0), 20000),
            *(
                (AsymGumbel(alpha, beta, theta), 20000)
                for theta in (1.05, 50.0, 500.0)
                for alpha, beta in ((0.1, 0.1), (1.0, 0.05), (0.05, 1.0))
            ),
            (survival(AsymGumbel(1.0, 0.05, 50.0)), 20000),
            # theta = inf: the Gumbel factor is comonotone.
            (AsymGumbel(0.35, 0.7, math.inf), 20000),
            (StudentT(4.0, 0.5), 30000),
        ],
        ids=lambda m: m.spec() if hasattr(m, "spec") else str(m),
    )
    def test_empirical_cdf_matches(self, model, n):
        pts = model.sample(n, seed=99)
        for u in (0.1, 0.5, 0.9):
            for v in (0.3, 0.7):
                p = model.cdf(u, v)
                emp = float(np.mean((pts[:, 0] <= u) & (pts[:, 1] <= v)))
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
                assert abs(emp - p) <= 4.0 * se, (model.spec(), u, v)

    @pytest.mark.parametrize("theta", [-1.0, -0.3, 0.5, 1.0])
    def test_fgm_draws_solve_conditional_equation(self, theta):
        pts = FGM(theta).sample(2000, seed=13)
        u, p = inversion_draws(2000, 13)
        assert np.array_equal(pts[:, 0], u)
        v = pts[:, 1]
        dc_du = v * (1.0 + theta * (1.0 - v) * (1.0 - 2.0 * u))
        assert np.max(np.abs(dc_du - p)) <= 1e-12

    @pytest.mark.parametrize("theta", [-1.0, 1.0])
    def test_fgm_quantile_edges(self, theta):
        # a = theta (1 - 2u) = -1 with p = 0 makes the root's denominator 0.
        u = np.array([0.0, 1.0, 0.0, 1.0, 0.5])
        p = np.array([0.0, 0.0, 0.36, 0.36, 0.0])
        v = FGM(theta)._conditional_quantile(u, p)
        # At a = 1 the root is p / (1 + sqrt(1 - p)) = 0.2, at a = -1 it is sqrt(p) = 0.6.
        at_zero, at_one = (0.2, 0.6) if theta > 0 else (0.6, 0.2)
        assert v.tolist() == pytest.approx([0.0, 0.0, at_zero, at_one, 0.0], abs=1e-15)

    def test_independence_kendall_tau(self):
        pts = Independence().sample(100_000, seed=17)
        tau = scipy.stats.kendalltau(pts[:, 0], pts[:, 1]).statistic
        assert abs(tau) <= 0.01

    def test_mo_kendall_tau(self):
        # Marshall-Olkin closed form: tau = ab / (a + b - ab)
        alpha, beta = 0.35, 0.7
        want = alpha * beta / (alpha + beta - alpha * beta)
        pts = MarshallOlkin(alpha, beta).sample(100_000, seed=23)
        tau = scipy.stats.kendalltau(pts[:, 0], pts[:, 1]).statistic
        assert tau == pytest.approx(want, abs=0.01)


class TestRectangleVolume:
    def test_full_square_is_one(self):
        for model in ALL_MODELS:
            vol = rectangle_volume(model, 0.0, 1.0, 0.0, 1.0)
            assert vol == pytest.approx(1.0, abs=5e-8), model.spec()

    def test_degenerate_rectangle_is_zero(self):
        assert rectangle_volume(Independence(), 0.3, 0.3, 0.1, 0.9) == 0.0
