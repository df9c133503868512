import math

import numpy as np
import pytest

from tailpath.copulas import (
    Comonotone,
    Copula,
    FGM,
    Independence,
    MarshallOlkin,
    AsymGumbel,
    StudentT,
    survival,
)
from tailpath.errors import DegenerateTailError, DomainError, ScheduleError
from tailpath.maxpath import (
    default_u_schedule,
    equivalence_report,
    maximize_slice,
    trace_path,
)
from tailpath.numerics import aitken_limit, maximize_1d
from tailpath.tailcopula import analytic_tail_copula


class _Clayton(Copula):
    """Clayton copula C = (u^-theta + v^-theta - 1)^(-1/theta), theta > 0."""

    def __init__(self, theta):
        self.theta = theta

    def cdf(self, u, v):
        if u == 0.0 or v == 0.0:
            return 0.0
        th = self.theta
        return (u**-th + v**-th - 1.0) ** (-1.0 / th)

    def spec(self):
        return f"clayton:theta={self.theta}"


def _slice_with_builtin_clamps(model, u, n_grid=512):
    """maximize_slice's search with the clamps written as builtin min/max, on n_grid points."""
    u_sq = u * u

    def slice_value(s):
        x = min(1.0, max(u_sq, math.exp(s)))
        return model.cdf(x, min(1.0, u_sq / x))

    result = maximize_1d(slice_value, 2.0 * math.log(u), 0.0, n_grid=n_grid)
    return min(1.0, max(u_sq, math.exp(result.argmax))), result.max_value


class TestMaximizeSlice:
    def test_comonotone_slice(self):
        # C(x, u^2/x) = min(x, u^2/x) is maximal at x = u, value u
        point = maximize_slice(Comonotone(), 0.1)
        assert point.phi_star == pytest.approx(0.1, abs=1e-9)
        assert point.pi_value == pytest.approx(0.1, abs=1e-10)
        assert point.ratio_b == pytest.approx(1.0, abs=1e-8)
        assert not point.argmax_at_boundary

    def test_independence_slice_is_flat(self):
        # C(x, u^2/x) = u^2 for every admissible x: a plateau at the floor,
        # so the maximum value is pinned even though the argmax is arbitrary
        point = maximize_slice(Independence(), 0.2)
        assert point.pi_value == pytest.approx(0.04, abs=1e-14)
        model = Independence()
        assert point.pi_value == pytest.approx(model.cdf(0.04, 1.0), abs=1e-14)

    def test_fgm_negative_theta_boundary(self):
        point = maximize_slice(FGM(-1.0), 0.3)
        assert point.argmax_at_boundary

    def test_smo_maximizer_rides_singular_curve(self):
        from tailpath.singular import singular_root

        model = survival(MarshallOlkin(0.35, 0.7))
        for u in (0.3, 0.1, 0.01, 0.001):
            point = maximize_slice(model, u)
            x_sing = singular_root(0.35, 0.7, u).x_star
            assert point.phi_star == pytest.approx(x_sing, abs=1e-9)
            assert not point.argmax_at_boundary

    def test_smo_ratio_approaches_attainer(self):
        # finite-u deviation from sqrt(2) shrinks like u/4
        model = survival(MarshallOlkin(0.35, 0.7))
        ratios = [maximize_slice(model, u).ratio_b for u in (0.1, 0.01, 0.001)]
        gaps = [abs(r - math.sqrt(2.0)) for r in ratios]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-3

    def test_slice_value_dominates_corners_and_diagonal(self):
        model = survival(AsymGumbel(0.35, 0.7, 2.0))
        for u in (0.3, 0.05, 0.003):
            point = maximize_slice(model, u)
            assert point.pi_value >= model.cdf(u, u) - 1e-12
            for b in (0.5, 1.0, 2.0):
                x = b * u
                if u * u <= x <= 1.0:
                    assert point.pi_value >= model.cdf(x, u * u / x) - 1e-10

    def test_admissibility_bounds(self):
        model = survival(MarshallOlkin(0.35, 0.7))
        for u in (0.5, 0.08, 0.004):
            point = maximize_slice(model, u)
            assert u * u <= point.phi_star <= 1.0
            assert point.pi_value <= min(point.phi_star, u * u / point.phi_star) + 1e-12
            assert point.pi_value <= u + 1e-12
            assert u <= point.ratio_b * u <= 1.0 / u

    def test_u_equal_one(self):
        point = maximize_slice(Comonotone(), 1.0)
        assert point.phi_star == 1.0
        assert point.pi_value == 1.0
        assert point.converged

    def test_slice_search_convergence_is_reported(self):
        point = maximize_slice(survival(MarshallOlkin(0.35, 0.7)), 0.01)
        assert point.converged is True

    def test_grid_doubling_stability(self):
        # maximize_slice's grid is fixed at 512 points; the same search on 1024.
        model = survival(AsymGumbel(0.35, 0.7, 2.0))
        a = maximize_slice(model, 0.01)
        _, b_value = _slice_with_builtin_clamps(model, 0.01, n_grid=1024)
        assert abs(a.pi_value - b_value) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            maximize_slice(Comonotone(), 0.0)

    @pytest.mark.parametrize(
        "model",
        [
            survival(MarshallOlkin(0.35, 0.7)),
            survival(AsymGumbel(0.35, 0.7, 2.0)),
            Comonotone(),
            MarshallOlkin(0.35, 0.7),
            FGM(0.6),
        ],
        ids=lambda m: m.spec(),
    )
    def test_same_bits_as_builtin_clamps(self, model):
        for u in default_u_schedule():
            point = maximize_slice(model, u)
            assert (point.phi_star, point.pi_value) == _slice_with_builtin_clamps(model, u)


class TestTracePath:
    def test_default_schedule_shape(self):
        sched = default_u_schedule()
        assert sched[0] == pytest.approx(0.1)
        assert sched[-1] == pytest.approx(1e-4)
        assert len(sched) == 7

    def test_smo_limits(self):
        path = trace_path(survival(MarshallOlkin(0.35, 0.7)))
        assert path.lambda_phi_star == pytest.approx(math.sqrt(0.245), abs=1e-4)
        assert path.b_limit == pytest.approx(math.sqrt(2.0), abs=1e-4)
        assert not path.failures
        assert len(path.points) == 7

    def test_t_copula_reduced_schedule(self):
        path = trace_path(StudentT(4.0, 0.5), [1e-1, 1e-2, 1e-3])
        assert path.b_limit == pytest.approx(1.0, abs=0.02)

    def test_independence_floor(self):
        # pi/u = u -> 0: the path detects an evaporating ratio
        path = trace_path(Independence(), [0.1, 0.05, 0.025])
        assert path.lambda_phi_star == pytest.approx(0.0, abs=0.05)

    def test_points_align_with_schedule(self):
        sched = [0.1, 0.03, 0.009]
        path = trace_path(survival(MarshallOlkin(0.35, 0.7)), sched)
        assert [p.u for p in path.points] == sched

    def test_schedule_validation(self):
        model = Comonotone()
        with pytest.raises(ScheduleError):
            trace_path(model, [])
        with pytest.raises(ScheduleError):
            trace_path(model, [0.1, 0.2])
        with pytest.raises(ScheduleError):
            trace_path(model, [0.5, 1e-7])
        with pytest.raises(ScheduleError):
            trace_path(model, [1.5, 0.1])

    @pytest.mark.parametrize(
        "model",
        [FGM(-1.0), FGM(0.5), FGM(1.0), MarshallOlkin(0.4, 0.7)],
        ids=["fgm-1", "fgm0.5", "fgm1", "mo"],
    )
    def test_lambda_phi_star_clamped_to_unit_interval(self, model):
        # Tail-independent models extrapolate to a rounding error around 0,
        # which lands below 0 for these; the error estimate stays as computed.
        path = trace_path(model)
        lam, lam_err = aitken_limit([p.pi_over_u for p in path.points])
        assert lam < 0.0
        assert path.lambda_phi_star == 0.0
        assert path.lambda_err == lam_err

    @pytest.mark.parametrize(
        "model, schedule",
        [(AsymGumbel(0.0019, 0.028, 463.0), None), (MarshallOlkin(0.73, 0.68), [1e-1, 1e-2, 1e-3])],
        ids=["ag", "mo"],
    )
    def test_b_limit_stays_positive(self, model, schedule):
        # Aitken's value on the ratios phi*/u read -4.1e-11 and -3.8e-9 here.
        path = trace_path(model, schedule)
        last = path.points[-1].ratio_b
        b_lim, _ = aitken_limit([p.ratio_b for p in path.points])
        assert b_lim < 0.0
        assert path.b_limit == last > 0.0
        assert path.b_err >= abs(b_lim - last)

    def test_short_schedule_reports_infinite_error(self):
        path = trace_path(Comonotone(), [0.1, 0.05])
        assert math.isinf(path.lambda_err)
        assert path.lambda_phi_star == pytest.approx(1.0, abs=1e-8)


class TestEquivalenceReport:
    def test_smo(self):
        rep = equivalence_report(survival(MarshallOlkin(0.35, 0.7)))
        assert rep.ok
        assert rep.lambda_diff <= 0.01
        assert rep.b_diff <= 0.02
        assert rep.b_star == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_sag(self):
        rep = equivalence_report(survival(AsymGumbel(0.35, 0.7, 2.0)))
        assert rep.ok

    def test_degenerate_model_raises(self):
        with pytest.raises(DegenerateTailError):
            equivalence_report(FGM(-1.0))

    def test_numeric_tail_fallback(self):
        # No closed form is registered for Clayton, so the report falls back
        # to NumericTailCopula: Lambda = (x^-theta + y^-theta)^(-1/theta),
        # with lambda* = 2^(-1/theta) at b* = 1.
        with pytest.raises(DomainError):
            analytic_tail_copula(_Clayton(2.0))
        rep = equivalence_report(_Clayton(2.0))
        assert rep.ok
        assert rep.lambda_star == pytest.approx(2.0**-0.5, abs=1e-14)
        assert rep.b_star == pytest.approx(1.0, abs=1e-8)
        assert rep.lambda_phi_star == pytest.approx(2.0**-0.5, abs=1e-14)
