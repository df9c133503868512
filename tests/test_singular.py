import math

import numpy as np
import pytest

from tailpath.copulas import MarshallOlkin, survival
from tailpath.errors import DomainError, ScheduleError
from tailpath.maxpath import trace_path
from tailpath.singular import (
    asymptotic_report,
    cardano_roots,
    cubic_value,
    curve_residual,
    log_gap,
    singular_root,
)


class TestSingularRoot:
    def test_defining_equation(self):
        for u in np.linspace(0.02, 0.98, 25):
            pt = singular_root(0.35, 0.7, float(u))
            assert abs(log_gap(0.35, 0.7, float(u), pt.x_star)) <= 1e-10
            assert abs(curve_residual(0.35, 0.7, float(u), pt.x_star)) <= 1e-12

    @pytest.mark.parametrize(
        "call",
        [
            lambda: log_gap(0.5, 0.5, 0.5, 2.0),
            lambda: log_gap(0.5, 0.5, 0.5, 1.0),
            lambda: log_gap(0.5, 0.5, 0.5, 0.25),
            lambda: log_gap(0.5, 0.5, 0.5, math.nan),
            lambda: curve_residual(0.5, 0.5, 0.5, 0.1),
            lambda: curve_residual(0.5, 0.5, 0.5, 1.5),
            lambda: curve_residual(0.5, 0.5, 0.0, 0.0),
        ],
    )
    def test_helpers_reject_x_off_the_slice(self, call):
        # log_gap is defined on (u^2, 1), curve_residual on [u^2, 1]; outside
        # them math.log1p would raise a bare ValueError.
        with pytest.raises(DomainError):
            call()

    def test_residual_at_slice_ends(self):
        # Each end zeroes one side of (1-x)^alpha - (1-u^2/x)^beta exactly.
        assert curve_residual(0.5, 0.5, 0.5, 1.0) == pytest.approx(-math.sqrt(0.75), abs=1e-15)
        assert curve_residual(0.5, 0.5, 0.5, 0.25) == pytest.approx(math.sqrt(0.75), abs=1e-15)

    def test_bracket(self):
        for u in (0.05, 0.4, 0.95):
            pt = singular_root(0.35, 0.7, u)
            assert u * u < pt.x_star < 1.0

    def test_u_equals_one(self):
        pt = singular_root(0.35, 0.7, 1.0)
        assert pt.x_star == 1.0
        assert pt.residual == 0.0

    def test_monotone_gap_endpoints(self):
        # the defining gap runs from +inf to -inf across the bracket
        u = 0.3
        lo = u * u * (1 + 1e-12)
        hi = 1 - 1e-12
        assert log_gap(0.35, 0.7, u, lo) > 0.0
        assert log_gap(0.35, 0.7, u, hi) < 0.0

    def test_ratio_identity(self):
        # (x*/u)^2 equals the ratio of the two secant slopes g_p
        alpha, beta = 0.35, 0.7
        g = lambda p, z: (1.0 - (1.0 - z) ** p) / z
        for u in (0.5, 0.1, 0.01):
            x = singular_root(alpha, beta, u).x_star
            lhs = (x / u) ** 2
            rhs = g(beta, u * u / x) / g(alpha, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            singular_root(0.0, 0.7, 0.5)
        with pytest.raises(DomainError):
            singular_root(0.35, 0.7, 0.0)


class TestCardano:
    def test_polynomial_residuals(self):
        for u in (0.1, 0.5, 1.0):
            for x in cardano_roots(u):
                assert abs(cubic_value(u, x)) <= 1e-12 * max(u ** 3, abs(x) ** 3)

    def test_root_ordering(self):
        for u in (0.05, 0.3, 0.9):
            x0, x1, x2 = cardano_roots(u)
            assert x1 < 0.0 < x2 < x0 <= 1.0

    def test_matches_brent_at_beta_two_alpha(self):
        for u in np.linspace(0.05, 1.0, 20):
            x0 = cardano_roots(float(u))[0]
            xb = singular_root(0.35, 0.7, float(u)).x_star
            assert x0 == pytest.approx(xb, abs=1e-10)

    def test_small_u_asymptotics(self):
        for u in (1e-2, 1e-3, 1e-4):
            x0, x1, x2 = cardano_roots(u)
            assert x0 / u == pytest.approx(math.sqrt(2.0), abs=u)
            assert x1 / u == pytest.approx(-math.sqrt(2.0), abs=u)
            assert x2 / (u * u) == pytest.approx(0.5, abs=u)

    def test_discriminant_always_negative(self):
        # three distinct real roots for every u in (0, 1]
        for u in np.linspace(0.01, 1.0, 50):
            disc = u ** 6 * (u * u / 4.0 - 8.0 / 27.0)
            assert disc < 0.0

    def test_cubic_sign_brackets_unit_interval(self):
        for u in np.linspace(0.01, 1.0, 50):
            assert cubic_value(float(u), float(u) ** 2) <= 0.0
            assert cubic_value(float(u), 1.0) >= 0.0


class TestAsymptoticReport:
    def test_columns_converge_together(self):
        schedule = [1e-1, 1e-2, 1e-3, 1e-4]
        model = survival(MarshallOlkin(0.35, 0.7))
        path = trace_path(model, schedule)
        report = asymptotic_report(0.35, 0.7, schedule, path)
        assert report.phi_ratio_converges
        assert report.x_ratio_converges
        last = report.rows[-1]
        assert report.target == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert last.phi_ratio == pytest.approx(report.target, abs=0.02)
        assert last.x_ratio == pytest.approx(report.target, abs=0.02)
        assert abs(last.phi_ratio - last.x_ratio) <= 0.02
        assert last.gap <= 1e-6

    def test_gap_grows_toward_u_one(self):
        # the singular curve and the max path agree in the limit, not at
        # moderate u where phi rides the curve but the ratio targets differ
        schedule = [0.9, 0.5, 0.1, 0.01]
        model = survival(MarshallOlkin(0.5, 0.6))
        path = trace_path(model, schedule)
        report = asymptotic_report(0.5, 0.6, schedule, path)
        gaps = [abs(r.phi_ratio - math.sqrt(0.6 / 0.5)) for r in report.rows]
        assert gaps[0] > gaps[-1]

    def test_schedule_mismatch_raises(self):
        schedule = [1e-1, 1e-2]
        path = trace_path(survival(MarshallOlkin(0.35, 0.7)), schedule)
        with pytest.raises(ScheduleError):
            asymptotic_report(0.35, 0.7, [1e-1, 5e-3], path)
