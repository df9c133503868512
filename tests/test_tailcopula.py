import math
from functools import partial

import numpy as np
import pytest

from tailpath import tailcopula
from tailpath.cli import parse_model
from tailpath.copulas import (
    AsymGumbel,
    Comonotone,
    FGM,
    Independence,
    MarshallOlkin,
    PickandsFn,
    StudentT,
    survival,
)
from tailpath.errors import DegenerateTailError, DomainError
from tailpath.numerics import student_t_cdf
from tailpath.spectral import SpectralModel, spectral_tail_copula
from tailpath.tailcopula import (
    NumericTailCopula,
    analytic_tail_copula,
    default_t_sequence,
    mtcm,
    tail_copula_from_pickands,
    tail_copula_numeric,
    tail_copula_sag,
    tail_copula_smo,
    tail_copula_tev,
    tail_copula_zero,
)

SMO = partial(tail_copula_smo, 0.35, 0.7)

# ((alpha, beta, theta), x, y, Lambda) for the survival asymmetric Gumbel,
# from mpmath at 1200 digits as alpha x + beta y - ||(alpha x, beta y)||_theta;
# x/y runs over 1, 1e16, 1e100 and 1e300 and their inverses.
SAG_REFERENCE = [
    ((0.618, 0.934, 2.71), 1.0, 1.0, 0.5153519115260243),
    ((0.618, 0.934, 2.71), 100000000.0, 1e-08, 9.340000000000001e-09),
    ((0.618, 0.934, 2.71), 1e-08, 100000000.0, 6.18e-09),
    ((0.618, 0.934, 2.71), 1e+50, 1e-50, 9.34e-51),
    ((0.618, 0.934, 2.71), 1e-50, 1e+50, 6.18e-51),
    ((0.618, 0.934, 2.71), 1e+150, 1e-150, 9.340000000000001e-151),
    ((0.618, 0.934, 2.71), 1e-150, 1e+150, 6.18e-151),
    ((0.35, 0.7, 2.0), 1.0, 1.0, 0.2673762078750736),
    ((0.35, 0.7, 2.0), 100000000.0, 1e-08, 6.999999999999999e-09),
    ((0.35, 0.7, 2.0), 1e-08, 100000000.0, 3.5e-09),
    ((0.35, 0.7, 2.0), 1e+50, 1e-50, 7e-51),
    ((0.35, 0.7, 2.0), 1e-50, 1e+50, 3.5e-51),
    ((0.35, 0.7, 2.0), 1e+150, 1e-150, 7e-151),
    ((0.35, 0.7, 2.0), 1e-150, 1e+150, 3.5e-151),
    ((0.5, 0.9, 1.05), 1.0, 1.0, 0.04265528687087115),
    ((0.5, 0.9, 1.05), 100000000.0, 1e-08, 7.601002831106834e-09),
    ((0.5, 0.9, 1.05), 1e-08, 100000000.0, 4.267146645640293e-09),
    ((0.5, 0.9, 1.05), 1e+50, 1e-50, 8.999911729246139e-51),
    ((0.5, 0.9, 1.05), 1e-50, 1e+50, 4.999953760079364e-51),
    ((0.5, 0.9, 1.05), 1e+150, 1e-150, 8.999999999999991e-151),
    ((0.5, 0.9, 1.05), 1e-150, 1e+150, 4.999999999999995e-151),
]


class TestClosedForms:
    def test_smo_values(self):
        assert tail_copula_smo(0.35, 0.7, 1.0, 1.0) == 0.35
        assert tail_copula_smo(0.35, 0.7, 2.0, 0.5) == pytest.approx(0.35, rel=0)
        # kink height at the crossing alpha*x = beta*y on the unit-area curve
        b = math.sqrt(2.0)
        assert tail_copula_smo(0.35, 0.7, b, 1.0 / b) == pytest.approx(
            math.sqrt(0.245), rel=1e-15
        )

    def test_pickands_comonotone_bound(self):
        # A = max(w, 1-w) turns the EV tail into min(x, y)
        amax = lambda w: max(w, 1.0 - w)
        for x, y in ((1.0, 1.0), (2.0, 0.5), (0.3, 3.0)):
            assert tail_copula_from_pickands(amax, x, y) == pytest.approx(
                min(x, y), rel=1e-14
            )

    def test_pickands_independent_bound(self):
        aone = lambda w: 1.0
        assert tail_copula_from_pickands(aone, 1.5, 2.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("params, x, y, want", SAG_REFERENCE)
    def test_sag_against_mpmath(self, params, x, y, want):
        assert tail_copula_sag(*params, x, y) == pytest.approx(want, rel=1e-13)

    def test_sag_matches_pickands_form_where_it_does_not_cancel(self):
        pick = PickandsFn(0.35, 0.7, 2.0)
        for x, y in ((1.0, 1.0), (2.0, 0.5), (0.3, 3.0), (1e-200, 3e-200)):
            want = tail_copula_from_pickands(pick, x, y)
            assert tail_copula_sag(0.35, 0.7, 2.0, x, y) == pytest.approx(want, rel=1e-14)

    def test_sag_rejects_bad_parameters(self):
        for params in ((0.0, 0.5, 2.0), (0.5, 1.5, 2.0), (0.5, 0.5, 1.0), (0.5, 0.5, math.nan)):
            with pytest.raises(DomainError):
                tail_copula_sag(*params, 1.0, 1.0)

    def test_pickands_forms_stay_in_range(self):
        # s (1 - A(y/s)) cancels past x/y ~ 1e16: PickandsFn(0.618, 0.934, 2.71)
        # at (2.55e298, 3.02e282) read 1.87 min(x, y), and 25 of these 20000
        # draws left [0, min(x, y)].
        rng = np.random.default_rng(20)
        xs, ys = np.exp(rng.uniform(math.log(1e-300), math.log(1.6e308), (2, 20000)))
        alphas, betas = rng.uniform(0.01, 1.0, (2, 20000))
        thetas = 1.0 + rng.exponential(3.0, 20000)
        for x, y, a, b, t in zip(xs.tolist(), ys.tolist(), alphas.tolist(), betas.tolist(), thetas.tolist()):
            lo = min(x, y)
            assert 0.0 <= tail_copula_from_pickands(PickandsFn(a, b, t), x, y) <= lo
            assert 0.0 <= tail_copula_sag(a, b, t, x, y) <= lo
        assert 0.0 <= tail_copula_from_pickands(PickandsFn(0.618, 0.934, 2.71), 2.55e298, 3.02e282) <= 3.02e282

    def test_tev_diagonal(self):
        nu, rho = 4.0, 0.5
        eta = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
        want = 2.0 * student_t_cdf(eta * (rho - 1.0), nu + 1.0)
        assert tail_copula_tev(nu, rho, 1.0, 1.0) == pytest.approx(want, rel=1e-13)

    def test_tev_far_apart_arguments(self):
        # x / y = 1e-400 underflows to 0, where (y/x)^(-1/nu) divided by zero;
        # 50-digit mpmath reference.
        value = tail_copula_tev(30.0, 0.5, 1e-200, 1e200)
        assert value == pytest.approx(9.9847634551290696e-201, rel=1e-14)

    def test_tev_exchangeable(self):
        for x, y in ((1.0, 2.0), (0.25, 1.7)):
            assert tail_copula_tev(4.0, 0.5, x, y) == pytest.approx(
                tail_copula_tev(4.0, 0.5, y, x), rel=1e-13
            )

    @pytest.mark.parametrize(
        "tail",
        [
            SMO,
            partial(tail_copula_from_pickands, PickandsFn(0.35, 0.7, 2.0)),
            partial(tail_copula_tev, 4.0, 0.5),
        ],
        ids=["smo", "pickands", "tev"],
    )
    def test_homogeneity_and_upper_bound(self, tail):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x, y = map(float, rng.uniform(0.05, 4.0, 2))
            c = 3.0
            assert tail(c * x, c * y) == pytest.approx(c * tail(x, y), abs=1e-10)
            assert tail(x, y) <= min(x, y) + 1e-12

    def test_smo_matches_builtin_min(self):
        # tail_copula_smo spells min out; ties and the axes must give what
        # builtin min gives, bit for bit.
        rng = np.random.default_rng(7)
        grid = [0.0, 1.0, 0.5, 2.0, 1e-300, 1e300, *(10.0 ** rng.uniform(-3.0, 3.0, 30)).tolist()]
        for alpha, beta in [(0.35, 0.7), (1.0, 1.0), (0.5, 0.5), (1.0, 0.2)]:
            for x in grid:
                for y in [x, *grid]:
                    want = min(alpha * x, beta * y)
                    assert tail_copula_smo(alpha, beta, x, y) == want

    def test_smo_domain(self):
        for alpha, beta in [(0.0, 0.7), (0.35, 1.5), (math.nan, 0.7), (0.35, math.nan)]:
            with pytest.raises(DomainError):
                tail_copula_smo(alpha, beta, 1.0, 1.0)

    def test_quadrant_domain(self):
        with pytest.raises(DomainError):
            tail_copula_smo(0.35, 0.7, -1.0, 1.0)
        with pytest.raises(DomainError):
            tail_copula_tev(4.0, 0.5, 1.0, -0.2)
        with pytest.raises(DomainError):
            tail_copula_zero(-1.0, 1.0)
        # the axes are the continuous extension, not a domain error
        assert tail_copula_tev(4.0, 0.5, 1.0, 0.0) == 0.0
        assert tail_copula_smo(0.35, 0.7, 0.0, 2.0) == 0.0

    @pytest.mark.parametrize(
        "tail",
        [
            SMO,
            partial(tail_copula_from_pickands, PickandsFn(0.35, 0.7, 2.0)),
            partial(tail_copula_tev, 4.0, 0.5),
            tail_copula_zero,
            lambda x, y: tail_copula_numeric(StudentT(4.0, 0.5), x, y),
            partial(spectral_tail_copula, SpectralModel(4.0, 0.5)),
            default_t_sequence,
            partial(tail_copula_sag, 0.35, 0.7, 2.0),
        ],
        ids=["smo", "pickands", "tev", "zero", "numeric", "spectral", "t_sequence", "sag"],
    )
    def test_nan_argument_raises(self, tail):
        for x, y in (
            (math.nan, 1.0),
            (1.0, math.nan),
            (math.nan, math.nan),
            (math.nan, 0.0),
            (0.0, math.nan),
            (math.inf, 1.0),
            (1.0, math.inf),
            (math.inf, math.inf),
        ):
            with pytest.raises(DomainError):
                tail(x, y)


class TestNumericLimit:
    def test_smo_fixed_sequence(self):
        # The ratios run along the fixed sequence 0.1 * 2^-k, k = 0..13.
        model = survival(MarshallOlkin(0.35, 0.7))
        got = tail_copula_numeric(model, 1.0, 1.0)
        assert got.value == pytest.approx(0.35, abs=1e-4)
        assert len(got.ratios) == len(default_t_sequence(1.0, 1.0)) == 14

    def test_smo_default_sequence(self):
        model = survival(MarshallOlkin(0.35, 0.7))
        tail = NumericTailCopula(model, cdf_abs_error=1e-15)
        got = tail.value_and_error(1.3, 0.8)
        want = tail_copula_smo(0.35, 0.7, 1.3, 0.8)
        assert abs(got.value - want) <= max(got.error, 1e-10)

    def test_t_copula_within_tolerance(self):
        tail = NumericTailCopula(StudentT(4.0, 0.5))
        got = tail.value_and_error(1.0, 1.0)
        want = tail_copula_tev(4.0, 0.5, 1.0, 1.0)
        assert abs(got.value - want) <= 1e-3
        assert abs(got.value - want) <= got.error

    def test_error_claim_holds_at_large_nu(self):
        # At large nu the ratios shrink by a factor q near 1 per halving of t,
        # so the spread of the last two understates the error by |q / (1 - q)|;
        # the reported error must still cover the closed form.
        rng = np.random.default_rng(7)
        for i in range(16):
            nu = float(rng.uniform(10.0, 50.0))
            if i % 2 == 0:
                nu = float(round(nu))  # the Dunnett-Sobel route
            rho = float(rng.uniform(-0.95, 0.95))
            x, y = (float(t) for t in np.exp(rng.uniform(-1.0, 1.0, 2)))
            got = NumericTailCopula(StudentT(nu, rho)).value_and_error(x, y)
            assert abs(got.value - tail_copula_tev(nu, rho, x, y)) <= got.error, (nu, rho, x, y)

    def test_comonotone_is_exact(self):
        got = tail_copula_numeric(Comonotone(), 2.0, 3.0)
        assert got.value == pytest.approx(2.0, abs=1e-12)

    def test_independence_vanishes(self):
        got = tail_copula_numeric(Independence(), 1.0, 1.0)
        assert abs(got.value) <= 1e-4

    def test_short_sequence_reports_infinite_error(self):
        # Far out, t * x <= 1 caps the sequence at 1/x, just above its 1e-5
        # floor; with fewer than three ratios aitken_limit has no ratio q.
        got = tail_copula_numeric(Comonotone(), 5e4, 1.0)
        assert got.value == 1.0
        assert got.error == math.inf
        assert len(got.ratios) == 2
        got = tail_copula_numeric(Comonotone(), 1e5, 1.0)
        assert got.value == 1.0
        assert got.error == math.inf
        assert len(got.ratios) == 1

    def test_default_sequence_respects_bounds(self):
        ts = default_t_sequence(4.0, 1.0)
        assert all(t <= 1.0 / 4.0 for t in ts)
        assert all(t >= 1e-5 for t in ts)
        assert all(a > b for a, b in zip(ts, ts[1:]))


class TestAnalyticDispatch:
    def test_known_families(self):
        def bound(model):
            t = analytic_tail_copula(model)
            return t.func, t.args

        assert bound(survival(MarshallOlkin(0.35, 0.7))) == (tail_copula_smo, (0.35, 0.7))
        assert bound(survival(AsymGumbel(0.35, 0.7, 2.0))) == (tail_copula_sag, (0.35, 0.7, 2.0))
        assert bound(StudentT(4.0, 0.5)) == (tail_copula_tev, (4.0, 0.5))
        assert bound(survival(StudentT(4.0, 0.5))) == (tail_copula_tev, (4.0, 0.5))
        assert bound(Comonotone()) == (tail_copula_smo, (1.0, 1.0))
        assert bound(MarshallOlkin(1.0, 1.0)) == (tail_copula_smo, (1.0, 1.0))

    def test_tail_independent_families_are_degenerate(self):
        for model in (
            Independence(),
            FGM(-1.0),
            MarshallOlkin(0.35, 0.7),
            AsymGumbel(0.35, 0.7, 2.0),
            survival(FGM(0.6)),
        ):
            tail = analytic_tail_copula(model)
            assert tail is tail_copula_zero
            assert tail(1.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "spec, want",
        [
            ("indep", tail_copula_zero),
            ("comono", partial(tail_copula_smo, 1.0, 1.0)),
            ("fgm:theta=0.6", tail_copula_zero),
            ("mo:alpha=0.35,beta=0.7", tail_copula_zero),
            ("mo:alpha=1,beta=1", partial(tail_copula_smo, 1.0, 1.0)),
            ("smo:alpha=0.35,beta=0.7", SMO),
            ("ag:alpha=0.35,beta=0.7,theta=2", tail_copula_zero),
            ("sag:alpha=0.35,beta=0.7,theta=2", partial(tail_copula_sag, 0.35, 0.7, 2.0)),
            ("t:nu=4,rho=0.5", partial(tail_copula_tev, 4.0, 0.5)),
            ("surv-indep", tail_copula_zero),
            ("surv-comono", partial(tail_copula_smo, 1.0, 1.0)),
            ("surv-fgm:theta=0.6", tail_copula_zero),
            ("surv-mo:alpha=0.35,beta=0.7", SMO),
            ("surv-smo:alpha=0.35,beta=0.7", tail_copula_zero),
            ("surv-ag:alpha=0.35,beta=0.7,theta=2", partial(tail_copula_sag, 0.35, 0.7, 2.0)),
            ("surv-sag:alpha=0.35,beta=0.7,theta=2", tail_copula_zero),
            ("surv-t:nu=4,rho=0.5", partial(tail_copula_tev, 4.0, 0.5)),
            ("surv-mo:alpha=1,beta=1", partial(tail_copula_smo, 1.0, 1.0)),
        ],
    )
    def test_every_cli_spec_has_a_closed_form(self, spec, want):
        # The CLI calls analytic_tail_copula with no numeric fallback, so it
        # must give a closed form for every spec parse_model accepts.
        tail = analytic_tail_copula(parse_model(spec))
        for x, y in ((1.0, 1.0), (2.0, 0.5), (0.3, 3.0), (0.0, 1.0)):
            assert tail(x, y) == want(x, y)

    def test_survival_tail_consistency(self):
        # analytic tail of the survival model equals the numeric limit
        model = survival(AsymGumbel(0.35, 0.7, 2.0))
        analytic = analytic_tail_copula(model)
        numeric = NumericTailCopula(model)
        for x, y in ((1.0, 1.0), (2.0, 0.5), (0.7, 1.3)):
            got = numeric.value_and_error(x, y)
            assert abs(got.value - analytic(x, y)) <= max(got.error, 1e-6)


class TestMtcm:
    def test_smo_closed_form(self):
        res = mtcm(SMO)
        assert res.b_star == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert res.lambda_star == pytest.approx(math.sqrt(0.245), abs=1e-8)
        assert res.unique
        assert res.n_evals > 0

    def test_random_smo_parameters(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            alpha, beta = map(float, rng.uniform(0.05, 1.0, 2))
            res = mtcm(partial(tail_copula_smo, alpha, beta))
            assert res.b_star == pytest.approx(math.sqrt(beta / alpha), abs=1e-6)
            assert res.lambda_star == pytest.approx(
                math.sqrt(alpha * beta), abs=1e-8
            )

    def test_survival_ag(self):
        res = mtcm(partial(tail_copula_from_pickands, PickandsFn(0.35, 0.7, 2.0)))
        assert res.b_star == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_t_copula_unit_maximizer(self):
        res = mtcm(partial(tail_copula_tev, 4.0, 0.5))
        assert res.b_star == pytest.approx(1.0, abs=1e-4)
        assert res.lambda_star == pytest.approx(
            tail_copula_tev(4.0, 0.5, 1.0, 1.0), abs=1e-9
        )

    def test_finer_gap_stability(self, monkeypatch):
        tail = partial(tail_copula_from_pickands, PickandsFn(0.2, 0.9, 3.0))
        coarse = mtcm(tail)
        monkeypatch.setattr(tailcopula, "MTCM_GAP", 1e-5)
        fine = mtcm(tail)
        assert fine.converged and fine.gap <= 1e-5 < coarse.gap <= 1e-3
        assert fine.n_evals > coarse.n_evals
        assert abs(coarse.b_star - fine.b_star) <= 1e-6
        assert fine.lambda_star == pytest.approx(coarse.lambda_star, rel=1e-12)

    def test_exchangeable_profile_is_symmetric(self):
        tail = partial(tail_copula_tev, 4.0, 0.5)
        for b in (1.5, 2.0, 7.0):
            assert tail(b, 1.0 / b) == pytest.approx(tail(1.0 / b, b), rel=1e-12)

    def test_plateau_clears_unique_flag(self):
        # min(x, y, 0.55 sqrt(xy)) profiles to min(b, 1/b, 0.55): flat top
        tail = lambda x, y: min(x, y, 0.55 * math.sqrt(x * y))
        res = mtcm(tail)
        assert res.lambda_star == pytest.approx(0.55, abs=1e-9)
        assert not res.unique

    def test_degenerate_tail_raises(self):
        with pytest.raises(DegenerateTailError):
            mtcm(tail_copula_zero)

    def test_nan_profile_values_cannot_win(self):
        # A NaN window near b = 0.5 must not hijack the scan; the true peak of
        # min(0.3 b, 0.6 / b) is 0.3 sqrt(2) at b = sqrt(2).
        def tail(x, y):
            return math.nan if abs(x - 0.5) < 0.01 else min(0.3 * x, 0.6 * y)

        res = mtcm(tail)
        assert abs(res.lambda_star - 0.3 * math.sqrt(2.0)) <= 1e-8
        assert res.b_star == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_all_nonfinite_profile_raises(self):
        with pytest.raises(DomainError):
            mtcm(lambda x, y: math.nan)

    def test_degenerate_numeric_fgm(self):
        with pytest.raises(DegenerateTailError):
            mtcm(NumericTailCopula(FGM(-1.0)))

    def test_nonfinite_value_at_unit_b_raises(self):
        # Only f(0) = Lambda(1, 1) decides degeneracy, so only it must be finite.
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                mtcm(lambda x, y: bad if x == 1.0 else min(x, y))

    @pytest.mark.parametrize("alpha", [1e-7, 1e-12])
    def test_rescan_finds_maximizer_beyond_first_bracket(self, alpha):
        # b_star = sqrt(1 / alpha) lies far out in the domain |ln b| <= -ln alpha.
        res = mtcm(partial(tail_copula_smo, alpha, 1.0))
        assert res.b_star == pytest.approx(math.sqrt(1.0 / alpha), rel=1e-9)
        assert res.lambda_star == pytest.approx(math.sqrt(alpha), abs=1e-12)

    def test_rescan_finds_outer_peak(self):
        # Two peaks: 5e-4 at b = 1, where the search starts, and the global
        # maximum sqrt(4e-7) at b = sqrt(2.5e6).
        def tail(x, y):
            return max(min(5e-4 * x, 5e-4 * y), min(4e-7 * x, y))

        res = mtcm(tail)
        assert res.lambda_star == pytest.approx(math.sqrt(4e-7), abs=1e-12)
        assert res.b_star == pytest.approx(math.sqrt(2.5e6), rel=1e-9)

    def test_random_smo_gap_certifies(self):
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            alpha, beta = map(float, rng.uniform(0.05, 1.0, 2))
            res = mtcm(partial(tail_copula_smo, alpha, beta))
            exact = math.sqrt(alpha * beta)
            assert res.converged and res.unique
            assert res.lambda_star == pytest.approx(exact, rel=1e-10)
            # The gap bounds the error up to the rounding of the profile values.
            assert (exact - res.lambda_star) / res.lambda_star <= res.gap + 4e-16

    def test_random_sag_matches_dense_maximum(self):
        from scipy.optimize import minimize_scalar

        def profile(alpha, beta, theta, s):
            # Lambda(e^s, e^-s) = ax + by - ((ax)^theta + (by)^theta)^(1/theta),
            # ax = alpha e^s, by = beta e^-s, written without cancellation.
            ax, by = alpha * np.exp(s), beta * np.exp(-s)
            lo, hi = np.minimum(ax, by), np.maximum(ax, by)
            return lo - hi * np.expm1(np.log1p((lo / hi) ** theta) / theta)

        rng = np.random.default_rng(20261020)
        n_evals = []
        for _ in range(300):
            alpha, beta = map(float, rng.uniform(0.05, 1.0, 2))
            theta = float(np.exp(rng.uniform(math.log(1.05), math.log(500.0))))
            res = mtcm(partial(tail_copula_from_pickands, PickandsFn(alpha, beta, theta)))
            n_evals.append(res.n_evals)
            s_max = -math.log(float(profile(alpha, beta, theta, 0.0)))
            grid = np.linspace(-s_max, s_max, 4001)
            i = int(np.argmax(profile(alpha, beta, theta, grid)))
            opt = minimize_scalar(
                lambda s: -float(profile(alpha, beta, theta, s)),
                bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
                method="bounded",
                options={"xatol": 1e-12},
            )
            dense = max(-opt.fun, float(profile(alpha, beta, theta, grid[i])))
            assert res.converged
            assert res.lambda_star == pytest.approx(dense, rel=1e-10)
            assert (dense - res.lambda_star) / res.lambda_star <= res.gap + 4e-16
        # The search's cost, pinned: the 512-point grid of the earlier solver
        # took 556 evaluations on every one of these tails.
        assert np.median(n_evals) == 71

    def test_tiny_tail_is_not_degenerate(self):
        # Lambda(1, 1) = 9.9e-22 > 0, so the t(30, -0.9) tail is maximized at b = 1.
        tail = partial(tail_copula_tev, 30.0, -0.9)
        res = mtcm(tail)
        assert res.lambda_star == pytest.approx(tail(1.0, 1.0), rel=1e-10)
        assert 9.9e-22 < res.lambda_star < 1e-21
        assert res.b_star == pytest.approx(1.0, abs=1e-4)

    def test_comonotone_is_exact(self):
        res = mtcm(partial(tail_copula_smo, 1.0, 1.0))
        assert (res.b_star, res.lambda_star, res.gap) == (1.0, 1.0, 0.0)
        assert res.converged and res.unique

    def test_evaluation_cap_reports_unconverged_gap(self, monkeypatch):
        tail = partial(tail_copula_tev, 4.0, 0.5)
        monkeypatch.setattr(tailcopula, "_MTCM_MAX_EVALS", 10)
        res = mtcm(tail)
        assert not res.converged
        assert res.gap > tailcopula.MTCM_GAP
        assert tail(1.0, 1.0) <= res.lambda_star * (1.0 + res.gap)

    def test_numeric_tail_gap_includes_its_errors(self):
        tail = NumericTailCopula(StudentT(4.0, 0.5))
        res = mtcm(tail)
        exact = tail_copula_tev(4.0, 0.5, 1.0, 1.0)
        err = tail.value_and_error(1.0, 1.0).error
        assert res.gap >= err / res.lambda_star
        assert exact <= res.lambda_star * (1.0 + res.gap)
        assert res.b_star == pytest.approx(1.0, abs=1e-3)
