"""The three seeded workloads: input generators, timed ops and untimed checks.

Every workload is a closed loop with one client: the next op starts when the
previous one returns. Inputs come from a randomly shifted Kronecker (R_d)
sequence, so each op's parameters are drawn from exactly the stated
distributions, while any prefix of the stream covers the parameter box far
more evenly than independent draws. That keeps the share of each input
property (and so the latency mix) steady from seed to seed. Families rotate
round robin, so their shares are fixed.

Each generator has two domains. The timed domain leaves out the inputs on
which the program is known to fail, so that no timed op fails. The census
domain is the full range of every parameter; a small untimed census over it
runs with every check in each run and reports the known defects by cause.

An op calls the public API through the package namespace at call time, so a
traced run sees every call. An op returns raw results; ``check`` compares
them with the oracles afterwards and never raises.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

LOG_THETA = (math.log(1.05), math.log(500.0))
# Above theta ~ 260 the asymmetric logistic Pickands function underflows, so
# sag's lambda_star is wrong and ag/sag samples fail the deviation test.
LOG_THETA_TIMED = (math.log(1.05), math.log(200.0))
LOG_NU = (math.log(0.3), math.log(50.0))
# Below nu = 1 the Student-t cdf raises ZeroDivisionError on about half the ops.
LOG_NU_TIMED = (0.0, math.log(50.0))
LOG_NU_INT = (0.0, math.log(50.0))
LOG_XY = (-1.0, 1.0)
SAMPLE_N = 1000
# A Student-t cdf value away from the corner must match the oracle within
# CDF_ABS_TOL + CDF_REL_TOL * value; both are good there to ~1e-12 absolute.
CDF_ABS_TOL = 1e-11
CDF_REL_TOL = 1e-7


def kronecker_points(seed: int, dims: int):
    """Endless R_d low-discrepancy points in [0, 1)^dims, randomly shifted by the seed."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    step = np.array([phi ** -(k + 1) for k in range(dims)]) % 1.0
    shift = np.random.default_rng(seed).random(dims)
    i = 0
    while True:
        yield [float(t) for t in (shift + i * step) % 1.0]
        i += 1


def _lerp(t: float, lo: float, hi: float) -> float:
    return lo + t * (hi - lo)


def _log_uniform(t: float, bounds: tuple[float, float]) -> float:
    return math.exp(_lerp(t, *bounds))


def _nu(t: float, integer: bool, census: bool) -> float:
    """nu log-uniform on [0.3, 50], or [1, 50] for timed ops; integer nu rounds a draw on [1, 50]."""
    if integer:
        return float(round(_log_uniform(t, LOG_NU_INT)))
    return _log_uniform(t, LOG_NU if census else LOG_NU_TIMED)


@dataclass
class Outcome:
    """Verdict of one op's check: failure cause (None when correct) and accuracy."""

    cause: str | None = None
    digits: float | None = None


class Workload:
    name = ""

    def inputs(self, seed: int, census: bool = False):
        """Endless seeded inputs from the timed domain, or from the full ranges for the census."""
        raise NotImplementedError

    def op(self, inp, tp, workdir: str):
        raise NotImplementedError

    def check(self, inp, result, census: bool = False) -> Outcome:
        raise NotImplementedError

    def properties(self, inp) -> dict:
        """Input properties whose shares the report states."""
        return {}

    def cleanup(self, result) -> None:
        """Release what an op left behind once it has been checked."""


# -- analytic-path --------------------------------------------------------------


class AnalyticPath(Workload):
    name = "analytic-path"
    families = ("smo", "sag", "comono", "fgm", "mo")
    tail_dependent = ("smo", "sag", "comono")

    def inputs(self, seed, census=False):
        # fgm and mo are timed nowhere: trace_path returns a negative lambda_phi_star on them.
        families = self.families if census else self.tail_dependent
        log_theta = LOG_THETA if census else LOG_THETA_TIMED
        offset = int(np.random.default_rng(seed + 1).integers(len(families)))
        for i, (ta, tb, tt) in enumerate(kronecker_points(seed, 3)):
            fam = families[(i + offset) % len(families)]
            alpha = _lerp(ta, 0.05, 1.0)
            beta = _lerp(tb, 0.05, 1.0)
            theta = _lerp(tt, -1.0, 1.0) if fam == "fgm" else _log_uniform(tt, log_theta)
            yield {"family": fam, "alpha": alpha, "beta": beta, "theta": theta}

    def properties(self, inp):
        dep = "tail-dependent" if inp["family"] in self.tail_dependent else "tail-independent"
        return {"family": inp["family"], "tail": dep}

    @staticmethod
    def model(tp, inp):
        fam, a, b, th = inp["family"], inp["alpha"], inp["beta"], inp["theta"]
        if fam == "smo":
            return tp.survival(tp.MarshallOlkin(a, b))
        if fam == "sag":
            return tp.survival(tp.AsymGumbel(a, b, th))
        if fam == "comono":
            return tp.Comonotone()
        if fam == "fgm":
            return tp.FGM(th)
        return tp.MarshallOlkin(a, b)

    def op(self, inp, tp, workdir):
        model = self.model(tp, inp)
        if inp["family"] in self.tail_dependent:
            rep = tp.equivalence_report(model)
            converges = None
            if inp["family"] == "smo":
                asym = tp.asymptotic_report(
                    inp["alpha"], inp["beta"], tp.default_u_schedule(), rep.path_result
                )
                converges = asym.x_ratio_converges
            return {
                "ok": rep.ok,
                "lambda_star": rep.lambda_star,
                "b_star": rep.b_star,
                "lambda_phi_star": rep.lambda_phi_star,
                "b_limit": rep.b_limit,
                "x_ratio_converges": converges,
            }
        try:
            tp.mtcm(tp.analytic_tail_copula(model))
            degenerate = False
        except tp.DegenerateTailError:
            degenerate = True
        return {"degenerate": degenerate, "lambda_phi_star": tp.trace_path(model).lambda_phi_star}

    def check(self, inp, result, census=False):
        from . import oracles

        fam = inp["family"]
        if fam not in self.tail_dependent:
            lam = result["lambda_phi_star"]
            if not result["degenerate"]:
                return Outcome("mtcm_not_degenerate")
            if not 0.0 <= lam <= 1.0:
                cause = "lambda_phi_star_negative" if lam < 0.0 else "lambda_phi_star_above_1"
                return Outcome(cause)
            return Outcome(None, oracles.digits(lam))
        if fam == "smo":
            lam_ref = math.sqrt(inp["alpha"] * inp["beta"])
            b_ref = math.sqrt(inp["beta"] / inp["alpha"])
        elif fam == "comono":
            lam_ref = b_ref = 1.0
        else:
            lam_ref, b_ref = oracles.sag_mtcm(inp["alpha"], inp["beta"], inp["theta"])
        errs = {
            "lambda_star": result["lambda_star"] - lam_ref,
            "b_star": result["b_star"] - b_ref,
            "lambda_phi_star": result["lambda_phi_star"] - lam_ref,
            "b_limit": result["b_limit"] - b_ref,
        }
        acc = sum(oracles.digits(e) for e in errs.values()) / len(errs)
        if not result["ok"]:
            return Outcome("report_not_ok", acc)
        if abs(errs["lambda_star"]) > 1e-8:
            return Outcome("lambda_star_off", acc)
        if fam == "sag":
            # A flat profile pins b_star loosely, so b_star must attain the
            # reference maximum rather than match the reference maximizer.
            s = math.log(result["b_star"])
            attained = float(oracles.sag_profile(inp["alpha"], inp["beta"], inp["theta"], s))
            if lam_ref - attained > 1e-9:
                return Outcome("b_star_not_maximizer", acc)
        elif abs(errs["b_star"]) > 1e-6:
            return Outcome("b_star_off", acc)
        if fam == "smo" and not result["x_ratio_converges"]:
            return Outcome("x_ratio_not_converging", acc)
        return Outcome(None, acc)


# -- t-tail --------------------------------------------------------------------


class TTail(Workload):
    name = "t-tail"

    def inputs(self, seed, census=False):
        phase = int(np.random.default_rng(seed + 1).integers(2))
        for i, (tn, tr, tx, ty) in enumerate(kronecker_points(seed, 4)):
            integer = (i + phase) % 2 == 0
            yield {
                "nu": _nu(tn, integer, census),
                "rho": _lerp(tr, -0.95, 0.95),
                "x": _log_uniform(tx, LOG_XY),
                "y": _log_uniform(ty, LOG_XY),
                "integer_nu": integer,
            }

    def properties(self, inp):
        nu = inp["nu"]
        band = "nu<1" if nu < 1.0 else ("1<=nu<10" if nu < 10.0 else "nu>=10")
        return {"nu": "integer" if inp["integer_nu"] else "non-integer", "nu_band": band}

    def op(self, inp, tp, workdir):
        nu, rho, x, y = inp["nu"], inp["rho"], inp["x"], inp["y"]
        numeric = tp.NumericTailCopula(tp.StudentT(nu, rho)).value_and_error(x, y)
        spectral = tp.spectral_tail_copula(tp.SpectralModel(nu, rho), x, y)
        closed = tp.tail_copula_tev(nu, rho, x, y)
        return {"numeric": numeric.value, "error": numeric.error, "spectral": spectral, "closed": closed,
                "ratios": numeric.ratios, "ts": tp.default_t_sequence(x, y)}

    def check(self, inp, result, census=False):
        from . import oracles

        nu, rho, x, y = inp["nu"], inp["rho"], inp["x"], inp["y"]
        ref = oracles.t_tail_copula(nu, rho, x, y)
        if not math.isfinite(ref):
            return Outcome("oracle_not_finite")
        errs = {k: result[k] - ref for k in ("numeric", "spectral", "closed")}
        acc = sum(oracles.digits(e) for e in errs.values()) / len(errs)
        ratios, ts = result["ratios"], result["ts"]
        if len(ratios) != len(ts):
            return Outcome("ratios_not_on_default_sequence", acc)
        # The numeric route's Student-t cdf value C(tx, ty) = ratio * t, at its first t.
        # Deeper in the corner the cdf is off by up to ~6e-9, and the Aitken limit
        # misses its own error claim on scattered inputs at every nu (most often
        # at nu >= 10), so only the census holds the route to that claim.
        u, v = min(ts[0] * x, 1.0), min(ts[0] * y, 1.0)
        c_ref = oracles.t_copula_cdf_point(nu, rho, u, v)
        if not abs(ratios[0] * ts[0] - c_ref) <= CDF_ABS_TOL + CDF_REL_TOL * c_ref:
            return Outcome("numeric_cdf_off", acc)
        if census and not abs(errs["numeric"]) <= result["error"]:
            return Outcome("numeric_outside_reported_error", acc)
        if not abs(errs["spectral"]) <= 1e-6:
            return Outcome("spectral_off", acc)
        if not abs(errs["closed"]) <= 1e-9:
            return Outcome("closed_form_off", acc)
        return Outcome(None, acc)


# -- sample-cli ------------------------------------------------------------------


class SampleCli(Workload):
    name = "sample-cli"
    families = ("fgm", "ag", "sag", "t", "surv-t", "smo", "mo")
    inversion = ("fgm", "ag", "sag")

    def inputs(self, seed, census=False):
        log_theta = LOG_THETA if census else LOG_THETA_TIMED
        rng = np.random.default_rng(seed + 1)
        offset = int(rng.integers(len(self.families)))
        for i, (ta, tb, tt) in enumerate(kronecker_points(seed, 3)):
            fam = self.families[(i + offset) % len(self.families)]
            if fam == "fgm":
                params = {"theta": _lerp(ta, -1.0, 1.0)}
            elif fam in ("t", "surv-t"):
                integer = (i // len(self.families)) % 2 == 0
                # The samplers handle the full nu range, so the timed ops draw from it too.
                params = {"nu": _nu(ta, integer, census=True), "rho": _lerp(tb, -0.95, 0.95)}
            else:
                params = {"alpha": _lerp(ta, 0.05, 1.0), "beta": _lerp(tb, 0.05, 1.0)}
                if fam in ("ag", "sag"):
                    params["theta"] = _log_uniform(tt, log_theta)
            body = ",".join(f"{k}={v!r}" for k, v in params.items())
            yield {
                "family": fam,
                "params": params,
                "spec": f"{fam}:{body}",
                "seed": int(rng.integers(2**31)),
            }

    def properties(self, inp):
        kind = "inversion" if inp["family"] in self.inversion else "exact"
        return {"family": inp["family"], "sampler": kind}

    def argv(self, inp, outdir):
        return ["sample", "--model", inp["spec"], "--n", str(SAMPLE_N),
                "--seed", str(inp["seed"]), "--out", outdir]

    def op(self, inp, tp, workdir):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = tp.cli.main(self.argv(inp, workdir))
        return {"code": code, "outdir": workdir}

    def check(self, inp, result, census=False):
        from . import oracles

        if result["code"] != 0:
            return Outcome(f"exit_{result['code']}")
        path = os.path.join(result["outdir"], "sample.csv")
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return Outcome("csv_missing")
        result["csv"] = data
        lines = data.decode("ascii", "replace").splitlines()
        if not lines or lines[0] != "u,v":
            return Outcome("csv_bad_header")
        if len(lines) != SAMPLE_N + 1:
            return Outcome("csv_wrong_row_count")
        try:
            pts = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        except ValueError:
            return Outcome("csv_unparseable")
        if pts.shape != (SAMPLE_N, 2) or not np.all((pts >= 0.0) & (pts <= 1.0)):
            return Outcome("sample_outside_unit_square")
        passed, acc = oracles.deviation_test(
            pts, oracles.copula_cdf(inp["family"], inp["params"])
        )
        if not passed:
            return Outcome("deviation_test_failed", acc)
        return Outcome(None, acc)

    def cleanup(self, result):
        path = os.path.join(result["outdir"], "sample.csv")
        if os.path.exists(path):
            os.unlink(path)
        if os.path.isdir(result["outdir"]):
            os.rmdir(result["outdir"])


WORKLOADS = {w.name: w for w in (AnalyticPath(), TTail(), SampleCli())}
