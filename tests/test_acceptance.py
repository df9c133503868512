"""End-to-end acceptance gate.

Each test runs one named verification suite from tailpath.verify and prints a
single PASS/FAIL summary line (visible under pytest -s; the per-test verdict
under -v carries the same information). A failing check lists its name and
detail in the pytest failure message. Tolerances live in the suites
themselves; nothing here loosens them.
"""

import pytest

from tailpath.verify import SUITES, run_suite

EXPECTED_KEYS = (
    "smo-mtcm",
    "ag-mtcm",
    "t-bstar",
    "equivalence",
    "singular",
    "spectral",
    "kernel",
    "fgm",
    "numeric-tail",
    "properties",
    "t-cdf",
)


def run(key: str) -> None:
    title = SUITES[key][0]
    results = run_suite(key)
    failed = [r for r in results if not r.passed]
    status = "FAIL" if failed else "PASS"
    print(f"{status} {title} [{key}] ({len(results) - len(failed)}/{len(results)} checks)")
    if failed:
        detail = "\n".join(f"  {r.name}: {r.detail}" for r in failed)
        pytest.fail(f"{len(failed)} checks failed in {title}:\n{detail}")


def test_registry_is_complete():
    assert tuple(SUITES) == EXPECTED_KEYS


def test_survival_mo_closed_forms():
    """b_star = sqrt(beta/alpha) and lambda_star = sqrt(alpha beta), fast."""
    run("smo-mtcm")


def test_survival_ag_maximizer():
    """Asymmetric Gumbel survival model peaks at the same b_star as MO."""
    run("ag-mtcm")


def test_student_t_unit_maximizer():
    """Student-t profile peaks at b = 1, by direct search and by symmetry."""
    run("t-bstar")


def test_path_limit_matches_profile_maximum():
    """Traced path of maximal dependence converges to the profile optimum."""
    run("equivalence")


def test_singular_curve():
    """Singular curve roots solve their equation and ride the max path."""
    run("singular")


def test_spectral_consistency():
    """Spectral density integrates, symmetrizes, and rebuilds the t tail."""
    run("spectral")


def test_profile_kernel():
    """Profile kernel is even, unimodal, and decays at its stated rate."""
    run("kernel")


def test_fgm_degeneracy():
    """Zero-tail model is flagged degenerate instead of returning noise."""
    run("fgm")


def test_numeric_tail_accuracy():
    """Numeric small-t limit reproduces analytic tails within its own error."""
    run("numeric-tail")


def test_family_properties():
    """Bounds, monotonicity, margins, and samplers across all nine families."""
    run("properties")


def test_student_t_cdf_routes():
    """Dunnett-Sobel closed form agrees with the quadrature route."""
    run("t-cdf")
