import math

import numpy as np
import pytest

from tailpath.errors import DomainError
from tailpath.numerics import integrate_adaptive, student_t_cdf, student_t_pdf
from tailpath.spectral import (
    SpectralModel,
    endpoint_mass,
    h_density,
    interior_mass,
    profile_kernel,
    profile_kernel_decay_form,
    profile_kernel_log_slope,
    smoothed_profile,
    spectral_tail_copula,
)
from tailpath.tailcopula import tail_copula_tev

PAIRS = [(4.0, 0.5), (2.0, -0.3), (10.0, 0.8)]


class TestSpectralModel:
    def test_eta(self):
        sm = SpectralModel(4.0, 0.5)
        assert sm.eta == pytest.approx(math.sqrt(5.0 / 0.75), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            SpectralModel(0.0, 0.5)
        with pytest.raises(DomainError):
            SpectralModel(4.0, -1.0)


class TestDensity:
    @pytest.mark.parametrize("nu,rho", PAIRS)
    def test_symmetry(self, nu, rho):
        sm = SpectralModel(nu, rho)
        for w in np.linspace(0.1, 0.9, 17):
            assert h_density(sm, float(w)) == pytest.approx(
                h_density(sm, float(1.0 - w)), abs=1e-12
            )

    @pytest.mark.parametrize("nu,rho", PAIRS)
    def test_positive(self, nu, rho):
        sm = SpectralModel(nu, rho)
        assert all(h_density(sm, w) > 0.0 for w in (1e-6, 0.01, 0.5, 0.99, 1 - 1e-6))

    def test_raw_quadrature_agrees_with_substituted_on_interior(self):
        # away from the w^-(nu-1)/nu endpoint singularities both integration
        # routes are feasible and must agree: raw h(w) dw on [0.2, 0.8]
        # versus the substituted q variable on the matching interval
        nu, rho = 4.0, 0.5
        sm = SpectralModel(nu, rho)
        raw = integrate_adaptive(
            lambda w: h_density(sm, w), 0.2, 0.8, abs_tol=1e-11
        )
        q_hi = ((1.0 - 0.2) / 0.2) ** (1.0 / nu)
        q_lo = ((1.0 - 0.8) / 0.8) ** (1.0 / nu)
        sub = integrate_adaptive(
            lambda q: sm.eta * (1.0 + q ** nu) * student_t_pdf(sm.eta * (q - rho), nu + 1.0),
            q_lo,
            q_hi,
            abs_tol=1e-11,
        )
        assert raw == pytest.approx(sub, abs=1e-9)

    def test_truncated_raw_mass_is_a_lower_bound(self):
        # the endpoint singularity carries mass ~ eps^(1/nu): truncating the
        # raw integral must undershoot, and less so as eps shrinks
        sm = SpectralModel(4.0, 0.5)
        total = interior_mass(sm)
        gaps = []
        for eps in (1e-3, 1e-6, 1e-9):
            raw = integrate_adaptive(lambda w: h_density(sm, w), eps, 1.0 - eps, abs_tol=1e-9)
            assert raw < total
            gaps.append(total - raw)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    @pytest.mark.parametrize("nu,rho", PAIRS)
    def test_interior_mass_closed_form(self, nu, rho):
        sm = SpectralModel(nu, rho)
        want = 2.0 * student_t_cdf(sm.eta * rho, nu + 1.0)
        assert interior_mass(sm) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("nu,rho", PAIRS)
    def test_total_first_moment(self, nu, rho):
        # endpoint atom at 1 plus integral of w h(w) recovers a unit margin
        sm = SpectralModel(nu, rho)
        moment = integrate_adaptive(
            lambda q: sm.eta * student_t_pdf(sm.eta * (q - rho), nu + 1.0),
            0.0,
            math.inf,
            abs_tol=1e-9,
        )
        assert moment + endpoint_mass(sm) == pytest.approx(1.0, abs=1e-7)

    def test_endpoint_mass_rho_zero(self):
        sm = SpectralModel(4.0, 0.0)
        assert endpoint_mass(sm) == pytest.approx(0.5, abs=1e-12)

    def test_density_domain(self):
        sm = SpectralModel(4.0, 0.5)
        with pytest.raises(DomainError):
            h_density(sm, 0.0)
        with pytest.raises(DomainError):
            h_density(sm, 1.0)


class TestSpectralTailCopula:
    @pytest.mark.parametrize("nu,rho", PAIRS)
    def test_matches_closed_form(self, nu, rho):
        sm = SpectralModel(nu, rho)
        for x in (0.1, 1.0, 3.0):
            for y in (0.2, 1.0, 2.5):
                got = spectral_tail_copula(sm, x, y)
                want = tail_copula_tev(nu, rho, x, y)
                assert got == pytest.approx(want, abs=1e-6)

    def test_homogeneous(self):
        sm = SpectralModel(4.0, 0.5)
        base = spectral_tail_copula(sm, 1.0, 2.0)
        assert spectral_tail_copula(sm, 2.5, 5.0) == pytest.approx(
            2.5 * base, abs=1e-8
        )

    def test_axes_vanish(self):
        sm = SpectralModel(4.0, 0.5)
        assert spectral_tail_copula(sm, 0.0, 1.0) == 0.0
        assert spectral_tail_copula(sm, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("nu", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("ratio", [1e-30, 1e30])
    def test_extreme_ratio_matches_closed_form(self, nu, ratio):
        # The low part once spanned [0, ratio^(1/nu)] and missed the mass near q = rho
        # (2.7e-18 against 0.626 at nu = 0.5, x/y = 1e10).
        sm = SpectralModel(nu, 0.3)
        x, y = (ratio, 1.0) if ratio > 1.0 else (1.0, 1.0 / ratio)
        assert spectral_tail_copula(sm, x, y) == pytest.approx(
            tail_copula_tev(nu, 0.3, x, y), abs=1e-6
        )

    @pytest.mark.parametrize("nu,rho", [(2.5, 0.9), (4.5, 0.95)])
    def test_relative_accuracy_at_tiny_scale(self, nu, rho):
        # The integrals are taken in units of min(x, y), so tiny values keep
        # their digits; with absolute tolerances they were off by 2-23%, and
        # Lambda(5, 1e-300) came out as 0.
        sm = SpectralModel(nu, rho)
        for x, y in ((1e-20, 1.0), (4e-17, 2e6), (1e-200, 3e-200), (5.0, 1e-300)):
            assert spectral_tail_copula(sm, x, y) == pytest.approx(
                tail_copula_tev(nu, rho, x, y), rel=1e-9, abs=0.0
            )


class TestProfileKernel:
    @pytest.mark.parametrize("nu,rho", PAIRS)
    def test_even(self, nu, rho):
        sm = SpectralModel(nu, rho)
        for a in np.linspace(0.1, 6.0, 13):
            assert profile_kernel(sm, float(a)) == pytest.approx(
                profile_kernel(sm, float(-a)), abs=1e-12
            )

    @pytest.mark.parametrize("nu,rho", PAIRS)
    def test_two_formulas_agree(self, nu, rho):
        sm = SpectralModel(nu, rho)
        for a in np.linspace(0.01, 8.0, 25):
            assert profile_kernel(sm, float(a)) == pytest.approx(
                profile_kernel_decay_form(sm, float(a)), abs=1e-12
            )

    @pytest.mark.parametrize("nu,rho", PAIRS)
    def test_strictly_decreasing_on_positive_axis(self, nu, rho):
        sm = SpectralModel(nu, rho)
        grid = np.linspace(0.02, 6.0, 100)
        vals = [profile_kernel(sm, float(a)) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_log_slope_matches_finite_differences(self):
        sm = SpectralModel(4.0, 0.5)
        for a in (0.3, 1.0, 2.5, 4.0):
            h = 1e-5
            fd = (
                math.log(profile_kernel(sm, a + h))
                - math.log(profile_kernel(sm, a - h))
            ) / (2.0 * h)
            assert profile_kernel_log_slope(sm, a) == pytest.approx(fd, abs=1e-6)

    def test_far_tail_is_zero(self):
        sm = SpectralModel(4.0, 0.5)
        assert profile_kernel(sm, 400.0) == 0.0

    @pytest.mark.parametrize("nu", [0.3, 0.9])
    def test_density_power_law_below_nu_one(self, nu):
        # For nu < 1, ((1-w)/w)^(1/nu) overflows as w -> 0 while h stays finite:
        # there ln h(w) = ((1 - nu)/nu) ln w + const. The points straddle the
        # switch to the shifted power law at ln((1-w)/w)^(1/nu) = 600.
        sm = SpectralModel(nu, 0.3)
        ln_ws = [-nu * 590.0, -nu * 599.0, -nu * 601.0, -nu * 700.0]
        ln_hs = [math.log(h_density(sm, math.exp(lw))) for lw in ln_ws]
        for (lw0, lh0), (lw1, lh1) in zip(zip(ln_ws, ln_hs), zip(ln_ws[1:], ln_hs[1:])):
            assert (lh1 - lh0) / (lw1 - lw0) == pytest.approx((1.0 - nu) / nu, rel=1e-9)

    def test_t_density_scaling_identity(self):
        # the reflection that makes the kernel even, checked in raw form
        nu, rho = 4.0, 0.5
        eta = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
        for q in np.logspace(-2, 2, 21):
            q = float(q)
            lhs = student_t_pdf(eta * (rho - 1.0 / q), nu + 1.0)
            rhs = q ** (nu + 2.0) * student_t_pdf(eta * (rho - q), nu + 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSmoothedProfile:
    def test_even(self):
        sm = SpectralModel(4.0, 0.5)
        for s in (0.3, 1.0, 2.2):
            assert smoothed_profile(sm, s) == pytest.approx(
                smoothed_profile(sm, -s), abs=1e-9
            )

    def test_peak_at_zero(self):
        for nu, rho in PAIRS:
            sm = SpectralModel(nu, rho)
            mid = smoothed_profile(sm, 0.0)
            assert mid > smoothed_profile(sm, 0.5)
            assert mid > smoothed_profile(sm, -0.5)

    def test_value_at_zero_matches_direct_quadrature(self):
        sm = SpectralModel(4.0, 0.5)
        direct = integrate_adaptive(
            lambda a: math.exp(-abs(a)) * profile_kernel(sm, a),
            -40.0,
            40.0,
            abs_tol=1e-10,
        )
        assert smoothed_profile(sm, 0.0) == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("s", [-30.0, 25.0])
    def test_far_values_keep_relative_accuracy(self, s):
        # Below the 5e-11 quadrature tolerance the value once carried no digits:
        # 1.3e-13 at s = -30 for nu = 0.3, above its bound e^-30 = 9.4e-14.
        for nu, rho in ((0.3, 0.3), (4.0, 0.5)):
            want = tail_copula_tev(nu, rho, math.exp(s), math.exp(-s))
            assert smoothed_profile(SpectralModel(nu, rho), s) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_matches_profile_tail_copula_value(self):
        # L(s) is the profile seen through the spectral representation:
        # at s the unit-area rectangle is (e^s, e^-s)
        sm = SpectralModel(4.0, 0.5)
        for s in (0.0, 0.4, -1.1):
            want = tail_copula_tev(4.0, 0.5, math.exp(s), math.exp(-s))
            assert smoothed_profile(sm, s) == pytest.approx(want, abs=1e-8)
