import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats

from tailpath import numerics
from tailpath.copulas import StudentT
from tailpath.errors import BracketError, ConvergenceError, DomainError, TailPathError
from tailpath.numerics import (
    aitken_limit,
    betainc_regularized,
    brent_root,
    integrate_adaptive,
    maximize_1d,
    student_t_cdf,
    student_t_pdf,
    student_t_quantile,
    _T_FAR,
    _linspace,
    _student_t_cdf_array,
)
from tailpath.singular import log_gap
from tailpath.spectral import SpectralModel, spectral_tail_copula
from tailpath.tailcopula import tail_copula_tev


# (nu, x): (T_nu(x), t_nu(x)) from mpmath at 40 digits, the cdf through
# betainc(nu/2, 1/2, 0, nu / (nu + x^2)) / 2 and the pdf through loggamma.
LARGE_NU_REFERENCE = {
    (1000.0, -5.0): (3.3836281823243153e-07, 1.7120122333122448e-06),
    (1000.0, -1.0): (0.15877620904233616, 0.24184978955233824),
    (1000.0, -0.01): (0.4960116409660936, 0.3988225957444051),
    (1000.0, 0.3): (0.617880247916378, 0.38127609547338126),
    (1000.0, 2.0): (0.9771148267533741, 0.05408517400975593),
    (100000.0, -5.0): (2.8713508393208365e-07, 1.4888541243250869e-06),
    (100000.0, -1.0): (0.158656463782055, 0.2419695146705618),
    (100000.0, -0.01): (0.4960106536594116, 0.3989213362820436),
    (100000.0, 0.3): (0.6179111104048312, 0.3813866980912812),
    (100000.0, 2.0): (0.9772485182712468, 0.05399191132737599),
    (10000000.0, -5.0): (2.8665640375042696e-07, 1.4867408492760154e-06),
    (10000000.0, -1.0): (0.15865526602999297, 0.24197071242060764),
    (10000000.0, -0.01): (0.49601064378510895, 0.39892232381102943),
    (10000000.0, 0.3): (0.6179114190711072, 0.38138780428681474),
    (10000000.0, 2.0): (0.9772498545540785, 0.05399097596160442),
    (10000000000.0, -5.0): (2.8665157671103237e-07, 1.4867195360687228e-06),
    (10000000000.0, -1.0): (0.1586552539435556, 0.24197072450704482),
    (10000000000.0, -0.01): (0.49601064368546816, 0.3989223337761071),
    (10000000000.0, 0.3): (0.6179114221858348, 0.38138781544935035),
    (10000000000.0, 2.0): (0.977249868038323, 0.05399096652263647),
}


class TestStudentT:
    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 11.0, 25.0])
    def test_cdf_against_scipy(self, nu):
        for x in np.linspace(-8.0, 8.0, 33):
            assert student_t_cdf(float(x), nu) == pytest.approx(
                scipy.stats.t.cdf(x, df=nu), abs=1e-13
            )

    def test_pdf_against_scipy(self):
        for nu in (2.0, 4.0, 7.5):
            for x in np.linspace(-6.0, 6.0, 25):
                assert student_t_pdf(float(x), nu) == pytest.approx(
                    scipy.stats.t.pdf(x, df=nu), rel=1e-13
                )

    def test_cdf_against_quadrature_of_pdf(self):
        # independent in-repo oracle: integrate the density
        for nu in (3.0, 5.0):
            for x in (-2.5, -0.7, 0.4, 1.9):
                # The density is even, so the mass between 0 and x is that over [0, |x|].
                half = integrate_adaptive(
                    lambda s: student_t_pdf(s, nu), 0.0, abs(x), abs_tol=1e-12
                )
                assert student_t_cdf(x, nu) == pytest.approx(0.5 + math.copysign(half, x), abs=1e-10)

    def test_reflection_identity(self):
        for nu in (1.5, 4.0, 9.0):
            for x in (0.0, 0.3, 1.7, 6.0, 40.0):
                total = student_t_cdf(x, nu) + student_t_cdf(-x, nu)
                assert abs(total - 1.0) <= 1e-12

    def test_pdf_even_and_normalized(self):
        for nu in (2.0, 6.0):
            assert student_t_pdf(1.3, nu) == pytest.approx(student_t_pdf(-1.3, nu), rel=0)
            # The density is even: twice its integral over [0, inf).
            mass = 2.0 * integrate_adaptive(
                lambda s: student_t_pdf(s, nu), 0.0, math.inf, abs_tol=0.5e-11
            )
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_quantile_roundtrip(self):
        for nu in (2.0, 5.0, 30.0):
            for p in (1e-6, 0.01, 0.3, 0.5, 0.77, 0.999):
                x = student_t_quantile(p, nu)
                assert student_t_cdf(x, nu) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.3, 1.0, 2.0, 3.0, 4.5, 10.0, 30.0, 50.0])
    def test_quantile_against_scipy(self, nu):
        ps = np.concatenate(
            [np.logspace(-12.0, -0.31, 25), 1.0 - np.logspace(-12.0, -1.0, 12)]
        )
        for p in ps:
            assert student_t_quantile(float(p), nu) == pytest.approx(
                scipy.stats.t.ppf(p, nu), rel=1e-13
            )

    def test_quantile_upper_half_mirrors_lower_half(self):
        for nu in (0.5, 4.0, 17.0):
            for p in (0.5000001, 0.6, 0.9, 1.0 - 1e-9):
                assert student_t_quantile(p, nu) == -student_t_quantile(1.0 - p, nu)

    @pytest.mark.parametrize("nu", [30.0, 200.0, 1000.0])
    @pytest.mark.parametrize("p", [1e-150, 1e-300])
    def test_far_quantiles_converge(self, nu, p):
        # From the side where T >> p, plain Newton creeps by a Mills ratio per
        # step; at nu = 1000, p = 1e-150 that takes more than 120 steps.
        q = student_t_quantile(p, nu)
        assert abs(student_t_cdf(q, nu) / p - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "x, nu, want",
        [
            (-1e200, 1.0, 3.1830988618379068e-201),  # 1 / (pi 1e200), 30-digit mpmath
            (-1e300, 0.5, 3.2070097541422289e-151),
        ],
    )
    def test_cdf_past_squaring_overflow(self, x, nu, want):
        assert student_t_cdf(x, nu) == pytest.approx(want, rel=2e-15, abs=0.0)
        assert student_t_cdf(-x, nu) == 1.0 - student_t_cdf(x, nu)

    @pytest.mark.parametrize(
        "x, nu, want",
        [  # 30-digit mpmath
            (-1e200, 0.3, 1.0485021701515731e-261),
            (2e151, 0.5, 1.7927729536917279e-228),
            (1e155, 0.9, 8.9172014116959552e-296),
        ],
    )
    def test_pdf_past_squaring_overflow(self, x, nu, want):
        # The relative error grows with |ln pdf|, here near 600, as below _T_FAR.
        assert student_t_pdf(x, nu) == pytest.approx(want, rel=2e-13, abs=0.0)
        assert student_t_pdf(-x, nu) == student_t_pdf(x, nu)

    def test_pdf_continuous_across_far_branch(self):
        for nu in (0.3, 1.0, 4.0):
            below = student_t_pdf(_T_FAR, nu)
            above = student_t_pdf(math.nextafter(_T_FAR, math.inf), nu)
            assert above == pytest.approx(below, rel=1e-13)

    def test_far_tail_quantile_keeps_newton(self, monkeypatch):
        # Past |x| = 1.3e154 the density used to read 0, so every step bisected.
        calls = []
        monkeypatch.setattr(
            numerics, "student_t_cdf", lambda x, nu: calls.append(x) or student_t_cdf(x, nu)
        )
        q = student_t_quantile(1e-61, 0.3)
        assert q < -1e200
        assert len(calls) <= 4
        assert student_t_cdf(q, 0.3) == pytest.approx(1e-61, rel=1e-13)

    # student_t_cdf calls per nu over the 15 levels of test_quantile_cdf_calls,
    # as the Newton iteration from the tail bound took them before the Halley
    # iteration replaced it.
    NEWTON_CDF_CALLS = {
        1.0: 48, 1.5: 56, 2.0: 62, 3.0: 76, 4.0: 146, 4.5: 84,
        7.0: 145, 10.0: 191, 15.5: 237, 20.0: 143, 30.0: 180, 50.0: 209,
    }

    def test_quantile_cdf_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            numerics, "student_t_cdf", lambda x, nu: calls.append(x) or student_t_cdf(x, nu)
        )
        ps = np.logspace(np.log10(3.7e-6), np.log10(0.27), 15)
        for nu, newton_calls in self.NEWTON_CDF_CALLS.items():
            before = len(calls)
            for p in ps:
                student_t_quantile(float(p), nu)
            assert len(calls) - before <= newton_calls, nu
        assert len(calls) <= 3 * len(ps) * len(self.NEWTON_CDF_CALLS)

    def test_quantile_steps_where_the_density_underflows(self, monkeypatch):
        # t_nu(q) underflows at q = -1.1e133; before the steps were formed from
        # the log density, every step there bisected (47 cdf calls).
        calls = []
        monkeypatch.setattr(
            numerics, "student_t_cdf", lambda x, nu: calls.append(x) or student_t_cdf(x, nu)
        )
        q = student_t_quantile(1e-200, 1.5)
        assert len(calls) <= 4
        assert student_t_cdf(q, 1.5) == pytest.approx(1e-200, rel=1e-13)

    def test_halley_denominator_guard(self, monkeypatch):
        # The Cauchy quantile is -1 / tan(pi p).
        want = -1.0 / math.tan(math.pi * 1e-300)
        assert student_t_quantile(1e-300, 1.0) == pytest.approx(want, rel=1e-13)
        # Started at x0 / 4, right of the root in the Cauchy tail, the Halley
        # denominator is 1/4, at or below the 1/2 where Newton's step is taken.
        monkeypatch.setattr(numerics, "_t_quantile_start", lambda p, nu, x0: 0.25 * x0)
        assert student_t_quantile(1e-300, 1.0) == pytest.approx(want, rel=1e-13)

    def test_lower_bracket_end_crosses_the_rounding_of_exp(self):
        # At p = 1e-300, nu = 1, exp rounds the tail-bound end x0 to the side
        # of the root where T_1 - p > 0; the bracket once closed on x0, 3.9e-14
        # off. The Cauchy quantile -1 / tan(pi p) is -1 / (pi p) to far below
        # an ulp here, taken with a 40-digit pi.
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 40
            pi = Decimal("3.141592653589793238462643383279502884197")
            want = -1 / (pi * Decimal(1e-300))
            got = Decimal(student_t_quantile(1e-300, 1.0))
            assert abs(got - want) <= Decimal("1e-15") * abs(want)

    @pytest.mark.parametrize(
        "x, nu, want",
        [  # 40-digit mpmath
            (-1e-3, 200.0, 0.49960155615056941532),
            (-2.5e-4, 200.0, 0.49990038902200031981),
            (1e-8, 200.0, 0.5000000039844391617),
            (-1e-3, 871.5, 0.49960117221098197286),
            (-2.5e-4, 871.5, 0.49990029303714840628),
            (1e-8, 871.5, 0.50000000398827855566),
            (-1e-3, 1000.0, 0.49960115750922636514),
            (-2.5e-4, 1000.0, 0.49990028936171122659),
            (1e-8, 1000.0, 0.50000000398842557314),
        ],
    )
    def test_cdf_keeps_digits_near_centre(self, x, nu, want):
        # The swapped incomplete beta gets 1 - z as x^2 / (nu + x^2); formed
        # from z = nu / (nu + x^2) it cancelled, to 3e-11 relative at
        # nu = 871.5, x = -2.5e-4 and 8e-9 at x = 1e-8.
        assert student_t_cdf(x, nu) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert _student_t_cdf_array(np.array([x]), nu)[0] == student_t_cdf(x, nu)

    @pytest.mark.parametrize("nu", [1e17, 1e20])
    def test_cdf_where_the_crossover_rounds_to_one(self, nu):
        # (a + 1) / (a + 2.5) rounds to 1 at a = nu / 2, so z = 1 has to take
        # the swapped branch; the continued fraction cannot take x = 1.
        value = student_t_cdf(0.3, nu)
        assert 0.5 <= value <= 1.0
        assert _student_t_cdf_array(np.array([0.3]), nu)[0] == value

    def test_quantile_beyond_float_range_raises(self):
        with pytest.raises(ConvergenceError):
            student_t_quantile(1e-300, 0.3)

    def test_extreme_tails_dont_cancel(self):
        # half-tail evaluation keeps small probabilities meaningful
        p = student_t_cdf(-50.0, 4.0)
        assert 0.0 < p < 1e-6
        assert p == pytest.approx(scipy.stats.t.cdf(-50.0, df=4), rel=1e-10)

    @pytest.mark.parametrize("nu", [0.3, 1.0, 3.7, 50.0, 1000.0])
    def test_array_cdf_matches_scalar(self, nu):
        # The array routine repeats the scalar arithmetic, so it must agree to
        # the last bit, well inside 1e-14 relative.
        edges = [0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf]
        draws = np.random.default_rng(3).standard_t(nu, 400)
        xs = np.concatenate(
            [edges, np.logspace(-3.0, 8.0, 45), -np.logspace(-3.0, 8.0, 45), draws]
        )
        got = _student_t_cdf_array(xs, nu)
        for x, value in zip(xs, got):
            assert value == student_t_cdf(float(x), nu), x

    def test_array_cdf_domain_errors(self):
        with pytest.raises(DomainError):
            _student_t_cdf_array(np.array([0.5, math.nan]), 4.0)
        with pytest.raises(DomainError):
            _student_t_cdf_array(np.array([0.5]), 0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda nu: SpectralModel(nu, 0.5),
            lambda nu: student_t_pdf(0.0, nu),
            lambda nu: student_t_cdf(1.0, nu),
            lambda nu: student_t_quantile(0.1, nu),
            lambda nu: _student_t_cdf_array(np.array([0.5]), nu),
            lambda nu: tail_copula_tev(nu, 0.5, 1.0, 1.0),
        ],
        ids=["SpectralModel", "pdf", "cdf", "quantile", "cdf_array", "tail_copula_tev"],
    )
    def test_nan_nu_raises(self, call):
        # NaN fails every comparison, so a `nu <= 0` guard would let it through.
        with pytest.raises(DomainError):
            call(math.nan)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: student_t_pdf(0.3, 1e306),
            lambda: student_t_quantile(0.3, 1e306),
            lambda: StudentT(1e306, 0.5).cdf(0.3, 0.4),
            lambda: StudentT(1e306, 0.5).sample(10, seed=1),
            lambda: spectral_tail_copula(SpectralModel(1e306, 0.5), 1.0, 1.0),
            lambda: tail_copula_tev(1e306, 0.5, 1.0, 1.0),
        ],
        ids=["pdf", "quantile", "copula_cdf", "sample", "spectral", "tail_copula_tev"],
    )
    def test_huge_nu_raises_tailpath_error(self, call):
        # lgamma overflows past nu = 5.1e305; that raised a bare OverflowError.
        with pytest.raises(TailPathError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda nu: student_t_pdf(0.3, nu),
            lambda nu: student_t_cdf(0.3, nu),
            lambda nu: student_t_cdf(-1e200, nu),
            lambda nu: student_t_quantile(0.3, nu),
            lambda nu: _student_t_cdf_array(np.array([0.5, -1e200]), nu),
            lambda nu: StudentT(nu, 0.5),
            lambda nu: SpectralModel(nu, 0.5),
        ],
        ids=["pdf", "cdf", "cdf_far", "quantile", "cdf_array", "StudentT", "SpectralModel"],
    )
    def test_subnormal_nu_is_domain_error(self, call):
        # nu / 2 underflows to 0 at nu = 5e-324, and lgamma(0) raised a bare ValueError.
        with pytest.raises(DomainError, match="1e-323"):
            call(5e-324)

    def test_smallest_nu_gives_values_in_range(self):
        assert 0.0 <= student_t_cdf(0.3, 1e-323) <= 1.0
        assert 0.0 <= student_t_cdf(-1e200, 1e-323) <= 1.0
        assert student_t_pdf(0.3, 1e-323) >= 0.0

    @pytest.mark.parametrize("nu", [0.5, 4.0, 4.5, 300.0, 1e10])
    def test_cdf_array_equals_scalar_across_blocks(self, nu, monkeypatch):
        # Blocks of 7 entries: 50 entries span 8 blocks, with the specials
        # (0, +-inf, +-1e200) at and around block boundaries.
        monkeypatch.setattr(numerics, "_T_CDF_BLOCK", 7)
        xs = np.random.default_rng(19).standard_normal(50) * 4.0
        xs[[0, 6, 7, 13, 14, 20, 49]] = [0.0, np.inf, -np.inf, 1e200, -1e200, -0.0, 1e-300]
        got = _student_t_cdf_array(xs, nu)
        want = [student_t_cdf(float(t), nu) for t in xs]
        assert got.tolist() == want

    @pytest.mark.parametrize("nu, x, cdf, pdf", [
        (nu, x, *values) for (nu, x), values in LARGE_NU_REFERENCE.items()
    ])
    def test_large_nu_against_mpmath(self, nu, x, cdf, pdf):
        # lgamma(a + 1/2) - lgamma(a) and a ln z cancelled here: at nu = 1e10
        # the cdf was 1.5e-5 off and the pdf 1.5e-5.
        assert student_t_cdf(x, nu) == pytest.approx(cdf, rel=1e-13)
        assert _student_t_cdf_array(np.array([x]), nu)[0] == student_t_cdf(x, nu)
        assert student_t_pdf(x, nu) == pytest.approx(pdf, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            student_t_cdf(0.0, -1.0)
        with pytest.raises(DomainError):
            student_t_quantile(0.0, 4.0)


def _betainc_fraction_reference(a, b, x):
    """The modified-Lentz loop as it was written with an int counter and abs guards.

    numerics._betainc_fraction does the same IEEE operations in the same
    order with a float counter and chained comparisons, so the two must agree
    bit for bit. Called without its front, the routine forms the lgamma
    difference as here; the large-shape front that _betainc_large passes in
    is checked against mpmath in TestBetainc.
    """
    try:
        ln_front = (
            math.lgamma(a + b)
            - math.lgamma(a)
            - math.lgamma(b)
            + a * math.log(x)
            + b * math.log1p(-x)
        )
    except OverflowError:  # lgamma overflows past 2.6e305
        raise ConvergenceError(
            f"incomplete beta for a={a}, b={b} lies beyond floating-point range"
        ) from None
    front = math.exp(ln_front)

    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # even step
        num = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return front * h / a
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled for a={a}, b={b}, x={x}"
    )


# (a, b): (lgamma(a + b) - lgamma(a), lgamma(a + b) - lgamma(a) - lgamma(b))
# from mpmath at 40 digits, for the large-shape series at b != 1/2.
LGAMMA_SHIFT_REFERENCE = {
    (100.0, 0.05): (0.23002065324149126, -2.7388585478102394),
    (100.0, 0.3): (1.3805003594827323, 0.28470236466465687),
    (100.0, 0.77): (3.5450963427622573, 3.3630311741017205),
    (100.0, 1.0): (4.605170185988092, 4.605170185988092),
    (1234.5, 0.05): (0.3559018245436278, -2.612977376508103),
    (1234.5, 0.3): (2.1354413333663116, 1.039643338548236),
    (1234.5, 0.77): (5.481112683550264, 5.299047514889727),
    (98765.4321, 0.05): (0.5750249067800934, -2.3938542942716374),
    (98765.4321, 0.3): (3.4501498203695338, 2.354351825551458),
    (33000000.0, 0.77): (13.330253949278347, 13.148188780617811),
    (10000000000.0, 0.05): (1.151292546494648, -1.817586654557083),
    (10000000000.0, 0.3): (6.907755278971637, 5.811957284153562),
    (10000000000.0, 1.0): (23.025850929940457, 23.025850929940457),
}

# (a, b, x): I_x(a, b) from mpmath at 40 digits, on the large-shape path.
LARGE_SHAPE_BETAINC_REFERENCE = [
    (300.0, 0.3, 0.97002997002997, 7.292821726607636e-06),
    (300.0, 0.3, 0.997002997002997, 0.09783503418195771),
    (300.0, 0.3, 0.9997002997002997, 0.47018793975003376),
    (300.0, 0.3, 0.999999000999001, 0.9023203928370388),
    (0.77, 2500.0, 0.009237154956273468, 0.9999999999663103),
    (0.77, 2500.0, 0.0003079051652091156, 0.6496565253529546),
    (0.77, 2500.0, 3.0790516520911565e-07, 0.0043328485550133316),
    (1000000.0, 0.05, 0.999998500000075, 0.005335591247767409),
    (1000000.0, 0.05, 0.9999999850000008, 0.16793441338636067),
    (0.9, 450000000.0, 5.999999988000001e-09, 0.9446442429334698),
    (0.9, 450000000.0, 1.9999999960000005e-12, 0.001886095948253),
    # The smaller shape in (1, 100), from mpmath at 60 digits: the plain
    # lgamma difference was 3.0e-8, 1.3e-10 and 5.9e-11 relative off.
    (8379290.458822351, 3.0620666121479467, 0.9999988512656264, 0.004111917651854456),
    (2.5, 3000000.0, 1.5e-06, 0.8909362010297271),
    (400000.0, 7.0, 0.999985, 0.6062883262253095),
]


def _betainc_fraction_grid():
    """Seeded (a, b, x) triples: each (a, b) pair also swapped, x up to the crossover."""
    rng = np.random.default_rng(15)
    pairs = [(1.0, 3.0, 0.5)]  # d = 1 - (a + b) x / (a + 1) is exactly 0: the first guard
    for _ in range(250):
        nu = float(rng.choice([rng.integers(1, 61), rng.uniform(0.3, 1000.0)]))
        a, b = (10.0 ** rng.uniform(-1.3, math.log10(500.0), 2)).tolist()
        for p, q in ((a, b), (b, a), (0.5 * nu, 0.5), (0.5, 0.5 * nu)):
            cross = (p + 1.0) / (p + q + 2.0)
            x_small = cross * 10.0 ** float(rng.uniform(-300.0, 0.0))
            pairs += [(p, q, cross), (p, q, x_small)]
    return pairs


class TestBetainc:
    def test_against_scipy(self):
        for a, b in ((0.5, 0.5), (2.0, 3.0), (5.5, 0.7), (10.0, 10.0)):
            for x in (0.0, 0.01, 0.2, 0.5, 0.9, 0.999, 1.0):
                assert betainc_regularized(a, b, x) == pytest.approx(
                    scipy.special.betainc(a, b, x), abs=1e-13
                )

    def test_fraction_matches_the_loop_reference_bit_for_bit(self):
        grid = _betainc_fraction_grid()
        assert len(grid) > 2000
        for a, b, x in grid:
            want = _betainc_fraction_reference(a, b, x)
            assert numerics._betainc_fraction(a, b, x) == want, (a, b, x)

    @pytest.mark.parametrize("a, b", list(LGAMMA_SHIFT_REFERENCE))
    def test_large_shape_series_against_mpmath(self, a, b):
        shift, ln_inv_beta = LGAMMA_SHIFT_REFERENCE[a, b]
        assert numerics._lgamma_shift(a, b) == pytest.approx(shift, rel=2e-15)
        assert numerics._ln_inv_beta(a, b) == pytest.approx(ln_inv_beta, rel=1e-14)
        assert numerics._ln_inv_beta(b, a) == numerics._ln_inv_beta(a, b)

    @pytest.mark.parametrize("a, b, x, want", LARGE_SHAPE_BETAINC_REFERENCE)
    def test_large_shapes_against_mpmath(self, a, b, x, want):
        assert betainc_regularized(a, b, x) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "a, b, x",
        [(1e200, math.inf, 1.0), (math.inf, 1e200, 1.0), (1.0, math.inf, 0.5), (math.inf, 2.0, 0.5)],
    )
    def test_infinite_shape_is_domain_error(self, a, b, x):
        # The crossover (a + 1) / (a + b + 2) is NaN there, and x = 1 reached
        # log1p(-1), a bare ValueError.
        with pytest.raises(DomainError):
            betainc_regularized(a, b, x)


class TestIntegrateAdaptive:
    def test_polynomial_exact(self):
        assert integrate_adaptive(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert integrate_adaptive(lambda x: x * x, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)

    def test_semi_infinite_exponential(self):
        got = integrate_adaptive(lambda x: math.exp(-x), 0.0, math.inf, abs_tol=1e-12)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_singularity(self):
        got = integrate_adaptive(
            lambda x: x ** -0.5 if x > 0 else 0.0, 0.0, 1.0, rel_tol=1e-9
        )
        assert got == pytest.approx(2.0, abs=1e-8)

    def test_doubly_infinite_gaussianish(self):
        # Only [a, inf) is supported: the even integrand's line integral is 2 x [0, inf).
        got = 2.0 * integrate_adaptive(lambda x: math.exp(-x * x), 0.0, math.inf, abs_tol=0.5e-12)
        assert got == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    @pytest.mark.parametrize(
        "a,b",
        [(2.0, 0.0), (-math.inf, 0.0), (-math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan)],
    )
    def test_unsupported_ranges_raise_domain_error(self, a, b):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, a, b)

    def test_empty_range_is_zero(self):
        assert integrate_adaptive(lambda x: x, 2.0, 2.0) == 0.0

    def test_budget_exhaustion_raises(self):
        # rapidly oscillating integrand; the 400-bisection budget runs out
        with pytest.raises(ConvergenceError, match="400 subdivisions"):
            integrate_adaptive(
                lambda x: math.sin(1.0 / (x + 1e-9)),
                0.0,
                1.0,
                abs_tol=1e-15,
                rel_tol=1e-15,
            )


    def test_node_on_mapped_endpoint_raises_convergence_error(self):
        # the rational map turns |x|^-1.5 decay into a (1-t)^-0.5 endpoint
        # singularity; bisection toward it rounds a node onto t = 1
        with pytest.raises(ConvergenceError):
            integrate_adaptive(
                lambda x: (1.0 + x) ** -1.5, 0.0, math.inf, abs_tol=1e-14, rel_tol=1e-14
            )


class TestBrent:
    def test_sqrt2(self):
        root = brent_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-13)

    def test_against_scipy_brentq_on_curve_gap(self):
        f = lambda x: log_gap(0.35, 0.7, 0.5, x)
        lo, hi = 0.25 * (1 + 1e-14), 1 - 1e-14
        ours = brent_root(f, lo, hi)
        ref = scipy.optimize.brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_exact_endpoint_root(self):
        assert brent_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            brent_root(lambda x: 1.0 + x * x, -1.0, 1.0)


class TestMaximize1d:
    def test_smooth_parabola(self):
        res = maximize_1d(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)
        assert res.argmax == pytest.approx(0.3, abs=1e-9)
        assert res.max_value == pytest.approx(0.0, abs=1e-15)

    def test_constant_plateau_breaks_to_left(self):
        res = maximize_1d(lambda x: 5.0, 0.0, 1.0, n_grid=17)
        assert res.argmax == 0.0

    def test_kinked_profile(self):
        # min(0.35 b, 0.7 / b) peaks at sqrt(2); kink is not smooth
        res = maximize_1d(lambda b: min(0.35 * b, 0.7 / b), 0.5, 3.0)
        assert res.argmax == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert res.max_value == pytest.approx(math.sqrt(0.245), abs=1e-8)

    def test_improves_on_grid(self):
        f = lambda x: -((x - 0.123456) ** 2)
        coarse = max(f(g) for g in np.linspace(0.0, 1.0, 8))
        res = maximize_1d(f, 0.0, 1.0, n_grid=8)
        assert res.max_value >= coarse

    def test_nan_treated_as_dead_zone(self):
        f = lambda x: float("nan") if x < 0.5 else -((x - 0.7) ** 2)
        res = maximize_1d(f, 0.0, 1.0)
        assert res.argmax == pytest.approx(0.7, abs=1e-8)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            maximize_1d(lambda x: x, 1.0, 0.0)


def _same_bits(xs, lo, hi, n):
    return np.array(xs).tobytes() == np.linspace(lo, hi, n).tobytes()


class TestLinspace:
    # numpy.linspace is the reference: grids must not move by a bit.
    @pytest.mark.parametrize(
        "lo, hi, n",
        [(-6.0, 6.0, 241), (-5.0, 5.0, 201), (0.0, 1.0, 17)]
        # mtcm: the initial bracket and each tenfold widening
        + [(-math.log(1e3) - k * math.log(10.0), math.log(1e3) + k * math.log(10.0), 512)
           for k in range(7)]
        # maximize_slice at each default level
        + [(2.0 * math.log(10.0 ** (-1.0 - 0.5 * k)), 0.0, 512) for k in range(7)],
    )
    def test_grids_in_use(self, lo, hi, n):
        assert _same_bits(_linspace(lo, hi, n), lo, hi, n)

    @pytest.mark.parametrize("n", [3, 12, 512])
    def test_random_intervals(self, n):
        rng = np.random.default_rng(20261018 + n)
        for _ in range(2000):
            lo = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6.0, 6.0))
            hi = lo + float(10.0 ** rng.uniform(-6.0, 6.0))
            assert _same_bits(_linspace(lo, hi, n), lo, hi, n), (lo, hi)


class TestAitken:
    def test_geometric_sequence(self):
        # x_k = L - c r^k is accelerated exactly
        seq = [1.0 - 0.5 * 0.3 ** k for k in range(3)]
        limit, err = aitken_limit(seq)
        assert limit == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_differences_fall_back(self):
        limit, err = aitken_limit([2.0, 2.0, 2.0])
        assert limit == 2.0
        assert err == 0.0

    def test_short_sequence_rule(self):
        with pytest.raises(DomainError):
            aitken_limit([])
        assert aitken_limit([0.3]) == (0.3, math.inf)
        assert aitken_limit([1.0, 0.7]) == (0.7, math.inf)
