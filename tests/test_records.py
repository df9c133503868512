"""The package's result and parameter records: immutable named tuples.

Every record is a typing.NamedTuple, so importing the package loads neither
dataclasses nor inspect; these tests pin what the records promise.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import tailpath
from tailpath.copulas import MarshallOlkin, PickandsFn, StudentT, survival
from tailpath.errors import DomainError
from tailpath.maxpath import equivalence_report, trace_path
from tailpath.numerics import maximize_1d
from tailpath.singular import asymptotic_report, singular_root
from tailpath.spectral import SpectralModel
from tailpath.tailcopula import analytic_tail_copula, mtcm, tail_copula_numeric
from tailpath.verify import CheckResult

SMO = survival(MarshallOlkin(0.35, 0.7))


@pytest.fixture(scope="module")
def records():
    report = equivalence_report(SMO)
    schedule = [p.u for p in report.path_result.points]
    asym = asymptotic_report(0.35, 0.7, schedule, report.path_result)
    return {
        "PathPoint": report.path_result.points[0],
        "PathResult": report.path_result,
        "EquivalenceReport": report,
        "OptimResult1D": maximize_1d(lambda x: -x * x, -1.0, 1.0),
        "NumericTailValue": tail_copula_numeric(SMO, 1.0, 1.0),
        "MtcmResult": report.mtcm_result,
        "SingularCurvePoint": singular_root(0.35, 0.7, 0.1),
        "AsymptoticRow": asym.rows[0],
        "SingularAsymptotics": asym,
        "CheckResult": CheckResult("name", True, "detail"),
        "PickandsFn": PickandsFn(0.35, 0.7, 2.0),
        "SpectralModel": SpectralModel(4.0, 0.5),
    }


def test_import_loads_neither_dataclasses_nor_inspect():
    # Creating the records used to import dataclasses, which imports inspect:
    # about 15 ms of every command's start. -W error also fails on any
    # warning raised at import, such as a deprecated NamedTuple form.
    code = (
        "import sys, tailpath, tailpath.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tailpath.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert proc.stderr == ""


def test_every_record_is_a_named_tuple(records):
    assert len(records) == 12
    for name, rec in records.items():
        assert type(rec).__name__ == name
        assert isinstance(rec, tuple) and hasattr(rec, "_fields"), name


def test_fields_cannot_be_set(records):
    for name, rec in records.items():
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], 0.5)
        with pytest.raises(AttributeError):
            rec.not_a_field = 0.5


@pytest.mark.parametrize(
    "args",
    [(0.0, 0.7, 2.0), (0.35, 1.5, 2.0), (0.35, 0.7, 1.0), (math.nan, 0.7, 2.0),
     (0.35, math.nan, 2.0), (0.35, 0.7, math.nan)],
)
def test_pickands_rejects_bad_parameters(args):
    with pytest.raises(DomainError, match="PickandsFn"):
        PickandsFn(*args)


@pytest.mark.parametrize(
    "args", [(0.0, 0.5), (math.inf, 0.5), (math.nan, 0.5), (4.0, 1.0), (4.0, -1.0), (4.0, math.nan)]
)
def test_spectral_model_rejects_bad_parameters(args):
    with pytest.raises(DomainError, match="SpectralModel"):
        SpectralModel(*args)


def test_replace_checks_parameters_as_the_constructor_does():
    with pytest.raises(DomainError, match="PickandsFn"):
        PickandsFn(0.35, 0.7, 2.0)._replace(theta=0.5)
    with pytest.raises(DomainError, match="SpectralModel"):
        SpectralModel(4.0, 0.5)._replace(nu=-1.0)
    assert SpectralModel(4.0, 0.5)._replace(rho=0.3) == SpectralModel(4.0, 0.3)


def test_validated_records_take_keywords_and_keep_methods():
    pick = PickandsFn(alpha=0.35, beta=0.7, theta=2.0)
    assert pick == PickandsFn(0.35, 0.7, 2.0)
    assert pick(0.0) == 1.0 and pick(1.0) == 1.0
    sm = SpectralModel(rho=0.5, nu=4.0)
    assert (sm.nu, sm.rho) == (4.0, 0.5)
    assert sm.eta == math.sqrt(5.0 / 0.75)


def test_mtcm_json_dict_keeps_its_keys_and_values():
    res = mtcm(analytic_tail_copula(SMO))
    got = res.to_json_dict()
    keys = ["b_star", "lambda_star", "unique", "gap", "converged", "n_evals"]
    assert type(got) is dict and list(got) == keys
    assert got == {key: getattr(res, key) for key in keys}
    assert json.loads(json.dumps(got)) == got


def test_path_results_compare_equal_and_hash_equal():
    # Reruns on one model give equal records that hash alike, so reruns can
    # be compared with `==` and collected in sets.
    model = StudentT(4.0, 0.5)
    first, second = trace_path(model), trace_path(model)
    assert first == second
    assert hash(first) == hash(second)
    assert first.failures == () and len(first.points) == 7
