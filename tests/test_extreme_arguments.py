"""Public entry points at extreme arguments: a finite value in range, or a TailPathError.

Each call below once returned NaN, a value far off, or raised a bare Python
exception. Every one now gives a finite value inside its mathematical range
or raises a TailPathError subclass; nothing else may escape. The seeded sweep
repeats the check on random arguments spread over the float range.
"""

import math

import numpy as np
import pytest

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
from tailpath.errors import TailPathError
from tailpath.numerics import integrate_adaptive
from tailpath.spectral import (
    SpectralModel,
    h_density,
    profile_kernel,
    smoothed_profile,
    spectral_tail_copula,
)
from tailpath.tailcopula import tail_copula_from_pickands, tail_copula_tev

FAMILIES = [
    Independence(),
    Comonotone(),
    FGM(0.6),
    MarshallOlkin(0.35, 0.7),
    survival(MarshallOlkin(0.35, 0.7)),
    AsymGumbel(0.35, 0.7, 2.0),
    survival(AsymGumbel(0.35, 0.7, 2.0)),
    StudentT(4.0, 0.5),
    StudentT(4.5, 0.5),
]


def _in_range_or_error(label, call, lo, hi):
    """The problem with call(), or None when it is a finite value in [lo, hi] or a TailPathError."""
    try:
        value = call()
    except TailPathError:
        return None
    except Exception as exc:  # noqa: BLE001 - any other exception is the failure under test
        return f"{label}: bare {type(exc).__name__}: {exc}"
    if not (math.isfinite(value) and lo <= value <= hi):
        return f"{label}: {value!r} outside [{lo}, {hi}]"
    return None


def test_named_and_seeded_extreme_calls():
    cases = []

    def case(label, call, lo, hi):
        cases.append((label, call, lo, hi))

    for nu, ratio in ((0.5, 1e10), (2.0, 1e30), (4.0, 1e100), (0.5, 1e200)):
        sm = SpectralModel(nu, 0.3)
        for x, y in ((ratio, 1.0), (1.0, ratio)):
            case(f"spectral({nu}, {x:g}, {y:g})",
                 lambda sm=sm, x=x, y=y: spectral_tail_copula(sm, x, y), 0.0, min(x, y))
    sm = SpectralModel(0.3, 0.3)
    pickands = PickandsFn(0.3, 0.6, 2.0)
    case("h_density(0.3, 1e-300)", lambda: h_density(sm, 1e-300), 0.0, math.inf)
    case("profile_kernel(0.3, -100)", lambda: profile_kernel(sm, -100.0), 0.0, math.inf)
    case("smoothed_profile(0.3, -30)", lambda: smoothed_profile(sm, -30.0), 0.0, math.exp(-30.0))
    case("pickands(1e308, 1e308)",
         lambda: tail_copula_from_pickands(pickands, 1e308, 1e308), 0.0, 1e308)
    case("StudentT(inf)", lambda: StudentT(math.inf, 0.5).cdf(0.1, 0.1), 0.0, 0.1)
    case("SpectralModel(inf)", lambda: SpectralModel(math.inf, 0.5).eta, 0.0, math.inf)
    case("tev(inf)", lambda: tail_copula_tev(math.inf, 0.5, 1.0, 1.0), 0.0, 1.0)
    case("integrate reversed", lambda: integrate_adaptive(math.exp, 1.0, 0.0), -math.inf, math.inf)
    case("integrate from -inf",
         lambda: integrate_adaptive(math.exp, -math.inf, 0.0), -math.inf, math.inf)
    for model in FAMILIES:
        for n in (-1, 1.5, "2", None):
            case(f"{model.spec()}.sample({n!r})",
                 lambda m=model, n=n: m.sample(n, seed=1).sum(), -math.inf, math.inf)

    rng = np.random.default_rng(20261019)
    for _ in range(12):
        nu = float(10.0 ** rng.uniform(-0.5, 0.7))
        rho = float(rng.uniform(-0.9, 0.9))
        x, y = (float(v) for v in 10.0 ** rng.uniform(-300.0, 300.0, 2))
        sm = SpectralModel(nu, rho)
        w = float(10.0 ** rng.uniform(-320.0, -1.0))
        a, s = float(rng.uniform(-400.0, 400.0)), float(rng.uniform(-40.0, 40.0))
        big_x, big_y = (float(v) for v in 10.0 ** rng.uniform(300.0, 308.0, 2))
        alpha, beta = (float(v) for v in rng.uniform(0.05, 1.0, 2))
        pickands = PickandsFn(alpha, beta, 1.0 + float(rng.exponential(2.0)))
        label = f"nu={nu:.4g}, rho={rho:.4g}"
        case(f"spectral({label}, {x:.3g}, {y:.3g})",
             lambda sm=sm, x=x, y=y: spectral_tail_copula(sm, x, y), 0.0, min(x, y))
        case(f"tev({label}, {x:.3g}, {y:.3g})",
             lambda nu=nu, rho=rho, x=x, y=y: tail_copula_tev(nu, rho, x, y), 0.0, min(x, y))
        case(f"h_density({label}, {w:.3g})", lambda sm=sm, w=w: h_density(sm, w), 0.0, math.inf)
        case(f"profile_kernel({label}, {a:.4g})",
             lambda sm=sm, a=a: profile_kernel(sm, a), 0.0, math.inf)
        case(f"smoothed_profile({label}, {s:.4g})",
             lambda sm=sm, s=s: smoothed_profile(sm, s), 0.0, math.exp(-abs(s)))
        case(f"pickands({big_x:.3g}, {big_y:.3g})",
             lambda p=pickands, x=big_x, y=big_y: tail_copula_from_pickands(p, x, y),
             0.0, min(big_x, big_y))

    problems = [p for p in (_in_range_or_error(*c) for c in cases) if p]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.spec())
def test_zero_draws_is_an_empty_table(model):
    assert model.sample(0, seed=1).shape == (0, 2)
