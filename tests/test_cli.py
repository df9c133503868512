import json
import math
import os
import re
import subprocess
import sys

import pytest

import tailpath
from tailpath.cli import ConfigError, main, parse_model, parse_schedule
from tailpath.copulas import (
    AsymGumbel,
    Independence,
    MarshallOlkin,
    StudentT,
    Survival,
)


def read(path):
    return path.read_text()


class TestParseModel:
    def test_plain_families(self):
        assert isinstance(parse_model("indep"), Independence)
        t = parse_model("t:nu=4,rho=0.5")
        assert isinstance(t, StudentT)
        assert (t.nu, t.rho) == (4.0, 0.5)

    def test_smo_is_survival_wrapped(self):
        model = parse_model("smo:alpha=0.35,beta=0.7")
        assert isinstance(model, Survival)
        assert isinstance(model.base, MarshallOlkin)
        assert (model.base.alpha, model.base.beta) == (0.35, 0.7)

    def test_surv_prefix(self):
        model = parse_model("surv-ag:alpha=0.35,beta=0.7,theta=2")
        assert isinstance(model, Survival)
        assert isinstance(model.base, AsymGumbel)

    @pytest.mark.parametrize(
        "spec, want",
        [
            ("surv-indep", "indep"),
            ("surv-comono", "comono"),
            ("surv-fgm:theta=-1", "fgm:theta=-1"),
            ("surv-t:nu=4,rho=0.5", "t:nu=4,rho=0.5"),
        ],
    )
    def test_surv_of_radially_symmetric_family_is_the_family(self, spec, want):
        model = parse_model(spec)
        assert not isinstance(model, Survival)
        assert model.spec() == want

    def test_surv_smo_unwraps_to_plain_mo(self):
        # survival of survival is the identity, so surv-smo is just mo
        model = parse_model("surv-smo:alpha=0.35,beta=0.7")
        assert isinstance(model, MarshallOlkin)

    def test_whitespace_tolerated(self):
        model = parse_model("  smo: alpha=0.35, beta=0.7 ")
        assert isinstance(model, Survival)

    @pytest.mark.parametrize(
        "spec",
        [
            "nosuch",
            "smo:alpha=0.35",  # missing beta
            "smo:alpha=0.35,beta=0.7,gamma=1",  # extra key
            "smo:alpha=0.35,beta",  # not key=value
            "smo:alpha=x,beta=0.7",  # not a number
            "smo:alpha=1.5,beta=0.7",  # out of range
            "indep:theta=1",  # family takes no parameters
        ],
    )
    def test_rejects(self, spec):
        with pytest.raises(ConfigError):
            parse_model(spec)


class TestParseSchedule:
    def test_default_is_none(self):
        assert parse_schedule("default") is None

    def test_comma_list(self):
        assert parse_schedule("0.1,0.01,0.001") == [0.1, 0.01, 0.001]

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_schedule("0.1,zebra")
        with pytest.raises(ConfigError):
            parse_schedule(",")

    @pytest.mark.parametrize("text", ["1.5", "0", "nan", "-0.1", "inf", "0.1,2"])
    def test_rejects_levels_outside_unit_interval(self, text):
        with pytest.raises(ConfigError):
            parse_schedule(text)


class TestExitCodes:
    def test_unknown_model_is_config_error(self, tmp_path, capsys):
        code = main(["mtcm", "--model", "nosuch", "--out", str(tmp_path)])
        assert code == 2
        assert "unknown model" in capsys.readouterr().err

    def test_bad_parameter_is_config_error(self, tmp_path):
        code = main(["mtcm", "--model", "smo:alpha=1.5,beta=0.7", "--out", str(tmp_path)])
        assert code == 2

    def test_removed_tol_cdf_flag_is_rejected(self, tmp_path, capsys):
        # Every CLI model has a closed-form tail, so no cdf tolerance applies.
        argv = ["mtcm", "--model", "smo:alpha=0.35,beta=0.7", "--out", str(tmp_path)]
        assert main([*argv, "--tol-cdf", "1e-8"]) == 2
        assert "--tol-cdf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("path", "--seed", "1"),
            ("mtcm", "--tol-opt", "1e-8"),
            ("spectral", "--seed", "1"),
            ("singular", "--tol-opt", "1e-8"),
            ("sample", "--tol-opt", "1e-8"),
        ],
    )
    def test_removed_flags_are_rejected(self, tmp_path, capsys, command, flag, value):
        # --seed lives on sample and figure only; no command takes --tol-opt.
        argv = [command, "--model", "smo:alpha=0.35,beta=0.7", "--out", str(tmp_path)]
        assert main([*argv, flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_increasing_schedule_is_config_error(self, tmp_path, capsys):
        code = main(
            [
                "path",
                "--model",
                "smo:alpha=0.35,beta=0.7",
                "--schedule",
                "0.01,0.1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "schedule" in capsys.readouterr().err

    def test_degenerate_tail_is_numerical_failure(self, tmp_path, capsys):
        for model in ("fgm:theta=-1", "mo:alpha=0.35,beta=0.7", "indep"):
            assert main(["mtcm", "--model", model, "--out", str(tmp_path)]) == 3, model
            assert "mtcm solve" in capsys.readouterr().err

    def test_nonpositive_sample_size_is_config_error(self, tmp_path):
        code = main(
            ["sample", "--model", "indep", "--n", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--model", "indep", "--seed", "-1"],
            ["figure", "--seed", "-3"],
            ["figure", "--n", "-5"],
            ["figure", "--n", "0"],
            ["figure", "--n", "0", "--format", "svg"],
        ],
        ids=["sample-seed-1", "figure-seed-3", "figure-n-5", "figure-n0", "figure-n0-svg"],
    )
    def test_bad_sample_size_or_seed_is_config_error(self, argv, tmp_path, capsys):
        # sample and figure share one check, made before any file is written.
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "tailpath: --" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["path", "sample", "spectral", "mtcm"])
    def test_huge_nu_is_an_error_not_a_traceback(self, command, tmp_path):
        # lgamma overflows past nu = 5.1e305; path, sample and spectral ended
        # in a bare OverflowError there.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tailpath.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "tailpath.cli", command, "--model", "t:nu=1e306,rho=0.5",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in (2, 3), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["path", "sample", "spectral", "mtcm"])
    def test_subnormal_nu_is_an_error_not_a_traceback(self, command, tmp_path):
        # nu / 2 underflows to 0 at nu = 5e-324; path and sample ended in a
        # bare ValueError from lgamma(0).
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tailpath.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "tailpath.cli", command, "--model", "t:nu=5e-324,rho=0.5",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in (2, 3), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("schedule", ["1.5", "0", "nan"])
    def test_singular_schedule_outside_unit_interval_is_config_error(self, schedule, tmp_path, capsys):
        # singular_root rejected these with a DomainError, which exited 3.
        argv = ["singular", "--model", "smo:alpha=0.35,beta=0.7", "--schedule", schedule]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["path", "sample", "spectral", "mtcm"])
    def test_infinite_nu_is_config_error(self, command, tmp_path):
        # nu = inf passed the nu > 0 check: path exited 3 on a NaN t argument
        # and sample printed a numpy RuntimeWarning.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tailpath.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "tailpath.cli", command, "--model", "t:nu=inf,rho=0.5",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestMtcmCommand:
    def test_json_payload(self, tmp_path, capsys):
        code = main(["mtcm", "--model", "smo:alpha=0.35,beta=0.7", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b_star"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert payload["lambda_star"] == pytest.approx(math.sqrt(0.245), abs=1e-9)
        assert payload["unique"] is True
        on_disk = json.loads(read(tmp_path / "mtcm.json"))
        assert on_disk == payload

    def test_payload_carries_the_certificate(self, tmp_path, capsys):
        assert main(["mtcm", "--model", "sag:alpha=0.35,beta=0.7,theta=2", "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"b_star", "lambda_star", "unique", "gap", "converged", "n_evals"}
        assert payload["converged"] is True
        assert 0.0 < payload["gap"] <= 1e-3

    def test_tiny_tail_is_maximized(self, tmp_path, capsys):
        # Lambda(1, 1) = 9.9e-22: small, but not zero, so not degenerate.
        assert main(["mtcm", "--model", "t:nu=30,rho=-0.9", "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 9.9e-22 < payload["lambda_star"] < 1e-21


class TestPathCommand:
    def test_csv_columns_and_schedule(self, tmp_path):
        code = main(
            [
                "path",
                "--model",
                "smo:alpha=0.35,beta=0.7",
                "--schedule",
                "0.1,0.01",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = read(tmp_path / "path.csv").splitlines()
        assert lines[0] == "u,phi_star,v_star,pi,pi_over_u,ratio_b,boundary_flag"
        assert len(lines) == 3
        us = [float(line.split(",")[0]) for line in lines[1:]]
        assert us == [0.1, 0.01]
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert set(flags) <= {"0", "1"}

    def test_heavy_tailed_t_below_nu_one(self, tmp_path):
        code = main(
            [
                "path",
                "--model",
                "t:nu=0.5,rho=0.99",
                "--schedule",
                "0.1,0.01,0.001",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert len(read(tmp_path / "path.csv").splitlines()) == 4

    def test_json_tier_adds_summary(self, tmp_path):
        code = main(
            [
                "path",
                "--model",
                "smo:alpha=0.35,beta=0.7",
                "--schedule",
                "0.1,0.01,0.001",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads(read(tmp_path / "path.json"))
        assert payload["b_limit"] == pytest.approx(math.sqrt(2.0), abs=0.01)

    def test_json_tier_reports_slice_convergence(self, tmp_path):
        argv = ["path", "--model", "smo:alpha=0.35,beta=0.7", "--schedule", "0.1,0.01,0.001"]
        assert main(argv + ["--format", "json", "--out", str(tmp_path)]) == 0
        payload = json.loads(read(tmp_path / "path.json"))
        assert payload["slice_converged"] == [True, True, True]
        # The CSV columns stay as they were.
        header = read(tmp_path / "path.csv").splitlines()[0]
        assert header == "u,phi_star,v_star,pi,pi_over_u,ratio_b,boundary_flag"


class TestDeterminism:
    def test_profile_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = main(
                ["profile", "--model", "smo:alpha=0.35,beta=0.7", "--out", str(out)]
            )
            assert code == 0
        assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
        assert (a / "mtcm.json").read_bytes() == (b / "mtcm.json").read_bytes()

    def test_sample_seed_controls_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        for out, seed in ((a, "7"), (b, "7"), (c, "8")):
            code = main(
                [
                    "sample",
                    "--model",
                    "t:nu=4,rho=0.5",
                    "--n",
                    "200",
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        same = (a / "sample.csv").read_bytes()
        assert same == (b / "sample.csv").read_bytes()
        assert same != (c / "sample.csv").read_bytes()

    def test_repeated_main_calls_match_fresh_processes(self, tmp_path):
        # main() reuses one parser across calls; no call may see state left by another.
        runs = [
            ("sample", ["sample", "--model", "sag:alpha=0.35,beta=0.7,theta=2", "--n", "300", "--seed", "4"]),
            ("path", ["path", "--model", "smo:alpha=0.35,beta=0.7", "--schedule", "0.1,0.01,0.001"]),
            ("sample", ["sample", "--model", "t:nu=3.5,rho=-0.4", "--n", "300", "--seed", "9"]),
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tailpath.__file__)))
        for i, (command, argv) in enumerate(runs):
            here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
            assert main(argv + ["--out", str(here)]) == 0
            subprocess.run(
                [sys.executable, "-m", "tailpath.cli", *argv, "--out", str(fresh)],
                env=env, check=True, capture_output=True,
            )
            name = f"{command}.csv"
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), argv


class TestColdStart:
    def test_path_tools_do_not_load_numpy(self, tmp_path):
        # Only commands that build arrays may import numpy; sample still works after.
        script = """
import sys
import tailpath, tailpath.cli
from tailpath.cli import main

out = sys.argv[1]
runs = [
    ["path", "--model", "smo:alpha=0.35,beta=0.7"],
    ["path", "--model", "sag:alpha=0.35,beta=0.7,theta=2"],
    ["mtcm", "--model", "sag:alpha=0.35,beta=0.7,theta=2"],
    ["spectral", "--model", "t:nu=4,rho=0.5"],
    ["singular", "--model", "smo:alpha=0.35,beta=0.7", "--schedule", "0.1,0.01,0.001"],
    ["profile", "--model", "smo:alpha=0.35,beta=0.7", "--format", "svg"],
    ["singular", "--model", "smo:alpha=0.35,beta=0.7"],
]
for i, argv in enumerate(runs):
    assert main(argv + ["--out", f"{out}/{i}"]) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
assert main(["sample", "--model", "fgm:theta=0.6", "--n", "100", "--out", f"{out}/s"]) == 0
assert "numpy" in sys.modules
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tailpath.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert len(read(tmp_path / "s" / "sample.csv").splitlines()) == 101


class TestSingularCommand:
    def test_table(self, tmp_path):
        code = main(
            [
                "singular",
                "--model",
                "smo:alpha=0.35,beta=0.7",
                "--schedule",
                "0.5,0.1,0.01",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = read(tmp_path / "singular.csv").splitlines()
        assert lines[0] == "u,x_star,v_star,ratio,residual"
        assert len(lines) == 4
        for line in lines[1:]:
            u, x, v, ratio, residual = (float(c) for c in line.split(","))
            assert x == pytest.approx(u * ratio, rel=1e-12)
            assert v == pytest.approx(u * u / x, rel=1e-12)
            assert abs(residual) < 1e-10

    def test_needs_marshall_olkin(self, tmp_path):
        code = main(
            ["singular", "--model", "t:nu=4,rho=0.5", "--out", str(tmp_path)]
        )
        assert code == 2


class TestSpectralCommand:
    def test_tables(self, tmp_path):
        code = main(
            ["spectral", "--model", "t:nu=4,rho=0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        for name, ncols in (("spectral-h", 199), ("spectral-m", 241), ("spectral-L", 201)):
            lines = read(tmp_path / f"{name}.csv").splitlines()
            assert len(lines) == ncols + 1

    def test_needs_student_t(self, tmp_path):
        code = main(
            ["spectral", "--model", "smo:alpha=0.35,beta=0.7", "--out", str(tmp_path)]
        )
        assert code == 2


class TestSvgTier:
    def test_profile_svg(self, tmp_path):
        code = main(
            [
                "profile",
                "--model",
                "smo:alpha=0.35,beta=0.7",
                "--format",
                "svg",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        text = read(tmp_path / "profile.svg")
        assert text.startswith("<svg")

    def test_profile_holds_maximizer_beyond_first_bracket(self, tmp_path):
        # b* = sqrt(1e7) lies far out in the table's domain [1e-7, 1e7].
        argv = ["profile", "--model", "smo:alpha=1e-7,beta=1", "--format", "svg"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        lines = read(tmp_path / "profile.csv").splitlines()
        assert lines[0] == "b,lambda_profile"
        rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
        assert len(rows) == 512
        i_peak = max(range(len(rows)), key=lambda i: rows[i][1])
        b_peak = rows[i_peak][0]
        cell = math.log(rows[1][0] / rows[0][0])
        assert abs(math.log(b_peak / math.sqrt(1e7))) <= cell
        svg = read(tmp_path / "profile.svg")
        marker = re.search(r'<line x1="([0-9.]+)"[^>]*stroke-dasharray', svg)
        assert marker is not None
        assert 62.0 <= float(marker.group(1)) <= 624.0


class TestProfileCommand:
    @pytest.mark.parametrize(
        "spec, lo",
        [("smo:alpha=0.35,beta=0.7", 0.35), ("comono", math.exp(-1.0))],
        ids=["smo", "comono"],
    )
    def test_profile_covers_certified_domain(self, tmp_path, spec, lo):
        # 511 log-uniform points of [f, 1/f], f = Lambda(1, 1) (at least one
        # e-fold wide), plus the certified peak itself.
        assert main(["profile", "--model", spec, "--out", str(tmp_path)]) == 0
        lines = read(tmp_path / "profile.csv").splitlines()
        rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
        assert len(rows) == 512
        bs = [b for b, _ in rows]
        assert bs == sorted(bs)
        assert bs[0] == pytest.approx(lo, rel=1e-12)
        assert bs[-1] == pytest.approx(1.0 / lo, rel=1e-12)
        result = json.loads(read(tmp_path / "mtcm.json"))
        assert (result["b_star"], result["lambda_star"]) in rows
        assert max(f for _, f in rows) == result["lambda_star"]


class TestFigureCommand:
    def test_manifest_and_files(self, tmp_path):
        code = main(["figure", "--n", "300", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads(read(tmp_path / "manifest.json"))
        assert manifest["n"] == 300
        models = manifest["models"]
        assert len(models) == 2
        for entry in models.values():
            assert entry["b_star"] == pytest.approx(math.sqrt(2.0), abs=1e-4)
            for name in entry["files"]:
                assert (tmp_path / name).exists(), name
        assert any("singular.csv" in f for e in models.values() for f in e["files"])


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code = main(["verify", "--suite", "fgm"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")
        assert "[fgm]" in out
