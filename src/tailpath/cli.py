"""Command-line surface: tail-dependence tables as CSV, optional SVG charts.

Model specs are flat strings, `name:key=value,key=value`, so they compose in
shell scripts. Every table is written atomically with a header row and
17-significant-digit floats; reruns with the same flags and seed produce
byte-identical files. Exit codes: 0 success, 1 verification failure,
2 bad arguments or model spec, 3 numerical failure (the message names the
operation that failed).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Sequence

from .copulas import (
    AsymGumbel,
    Comonotone,
    Copula,
    FGM,
    Independence,
    MarshallOlkin,
    StudentT,
    Survival,
    survival,
)
from .errors import ScheduleError, TailPathError
from .maxpath import PathResult, default_u_schedule, trace_path
from .numerics import _linspace
from .output import svg_line_chart, svg_scatter, write_csv, write_json, write_text
from .singular import singular_root
from .spectral import SpectralModel, h_density, profile_kernel, smoothed_profile
from .tailcopula import MtcmResult, analytic_tail_copula, mtcm
from .verify import SUITES, run_suite

__all__ = ["main", "parse_model", "parse_schedule"]


class ConfigError(Exception):
    """Bad model spec, schedule, or flag combination (maps to exit 2)."""


class NumericalFailure(Exception):
    """A named operation failed numerically (maps to exit 3)."""

    def __init__(self, op: str, cause: Exception) -> None:
        super().__init__(f"numerical failure in {op}: {cause}")
        self.op = op


@contextlib.contextmanager
def _op(name: str):
    """Label a computation so a numerical failure can name its operation."""
    try:
        yield
    except ScheduleError:
        raise
    except TailPathError as exc:
        raise NumericalFailure(name, exc) from exc


_MODEL_FAMILIES: dict[str, tuple[type, tuple[str, ...], bool]] = {
    # name -> (constructor, parameter keys in order, wrap in survival())
    "indep": (Independence, (), False),
    "comono": (Comonotone, (), False),
    "fgm": (FGM, ("theta",), False),
    "mo": (MarshallOlkin, ("alpha", "beta"), False),
    "smo": (MarshallOlkin, ("alpha", "beta"), True),
    "ag": (AsymGumbel, ("alpha", "beta", "theta"), False),
    "sag": (AsymGumbel, ("alpha", "beta", "theta"), True),
    "t": (StudentT, ("nu", "rho"), False),
}


def parse_model(spec: str) -> Copula:
    """Build a copula from a spec string like `smo:alpha=0.35,beta=0.7`.

    A `surv-` prefix composes the survival transform with any base spec
    (`smo` and `sag` are shorthands that arrive pre-composed, so
    `surv-smo:...` denotes the plain Marshall-Olkin model again). The
    independence, comonotone, FGM and t copulas are their own survival
    copulas, so `surv-fgm:...` is `fgm:...`, and likewise for the others.
    """
    text = spec.strip()
    if text.startswith("surv-"):
        return survival(parse_model(text[len("surv-") :]))
    name, _, param_text = text.partition(":")
    name = name.strip()
    if name not in _MODEL_FAMILIES:
        raise ConfigError(
            f"unknown model {name!r}; choices: {', '.join(_MODEL_FAMILIES)} "
            "(optionally prefixed surv-)"
        )
    ctor, keys, wrap = _MODEL_FAMILIES[name]
    params: dict[str, float] = {}
    if param_text:
        for item in param_text.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ConfigError(
                    f"bad parameter {item!r} in model spec {spec!r} (want key=value)"
                )
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"parameter {key!r} in model spec {spec!r} is not a number: "
                    f"{value!r}"
                ) from None
    missing = [k for k in keys if k not in params]
    extra = [k for k in params if k not in keys]
    if missing or extra:
        want = ",".join(keys) if keys else "(no parameters)"
        raise ConfigError(f"model {name!r} takes {want}; got {param_text!r}")
    try:
        model = ctor(*(params[k] for k in keys))
    except TailPathError as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}") from exc
    return survival(model) if wrap else model


def parse_schedule(text: str) -> list[float] | None:
    """Parse `--schedule`: `default` -> None, else a comma list of u values in (0, 1]."""
    body = text.strip()
    if body == "default":
        return None
    try:
        values = [float(item) for item in body.split(",") if item.strip()]
    except ValueError:
        raise ConfigError(f"schedule must be `default` or comma-separated floats, got {text!r}") from None
    if not values:
        raise ConfigError("schedule is empty")
    bad = [u for u in values if not 0.0 < u <= 1.0]  # NaN included
    if bad:
        raise ConfigError(f"schedule values must lie in (0, 1], got {bad[0]}")
    return values


def _outdir(args: argparse.Namespace) -> str:
    path = args.out
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc}") from exc
    return path


def _check_sampling(args: argparse.Namespace) -> None:
    """Reject a sample size below 1 or a negative seed before any file is written."""
    if args.n <= 0:
        raise ConfigError(f"--n must be positive, got {args.n}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")


def _t_params(model: Copula) -> tuple[float, float]:
    if isinstance(model, StudentT):
        return model.nu, model.rho
    raise ConfigError("this command needs a Student-t model, e.g. t:nu=4,rho=0.5")


def _mo_params(model: Copula) -> tuple[float, float]:
    base = model.base if isinstance(model, Survival) else model
    if isinstance(base, MarshallOlkin):
        return base.alpha, base.beta
    raise ConfigError(
        "this command needs Marshall-Olkin parameters, e.g. smo:alpha=0.35,beta=0.7"
    )


# ---------------------------------------------------------------------------
# Per-command artifact writers (shared between single commands and `figure`).


def _emit_profile(model: Copula, out: str, prefix: str, fmt: str) -> MtcmResult:
    tail = analytic_tail_copula(model)
    with _op(f"mtcm solve for {model.spec()}"):
        result = mtcm(tail)
    # 511 log-uniform b over the domain |ln b| <= -ln Lambda(1, 1) (at least 1), and b*.
    s_max = max(-math.log(tail(1.0, 1.0)), 1.0)
    bs = map(math.exp, _linspace(-s_max, s_max, 511))
    curve = sorted([(b, tail(b, 1.0 / b)) for b in bs] + [(result.b_star, result.lambda_star)])
    write_csv(os.path.join(out, f"{prefix}profile.csv"), ("b", "lambda_profile"), curve)
    write_json(os.path.join(out, f"{prefix}mtcm.json"), result.to_json_dict())
    if fmt == "svg":
        chart = svg_line_chart(
            [("profile", curve)],
            title=f"profile tail copula, {model.spec()}",
            x_label="b",
            y_label="Lambda(b, 1/b)",
            log_x=True,
            vlines=((result.b_star, "b*"),),
        )
        write_text(os.path.join(out, f"{prefix}profile.svg"), chart)
    return result


def _path_rows(path: PathResult) -> list[tuple]:
    rows = []
    for p in path.points:
        rows.append(
            (p.u, p.phi_star, p.v_star, p.pi_value, p.pi_over_u, p.ratio_b, p.argmax_at_boundary)
        )
    return rows


def _emit_path(
    model: Copula, out: str, prefix: str, fmt: str, schedule: Sequence[float] | None
) -> PathResult:
    with _op(f"path trace for {model.spec()}"):
        path = trace_path(model, schedule)
    write_csv(
        os.path.join(out, f"{prefix}path.csv"),
        ("u", "phi_star", "v_star", "pi", "pi_over_u", "ratio_b", "boundary_flag"),
        _path_rows(path),
    )
    if fmt == "json":
        write_json(
            os.path.join(out, f"{prefix}path.json"),
            {
                "lambda_phi_star": path.lambda_phi_star,
                "lambda_err": path.lambda_err,
                "b_limit": path.b_limit,
                "b_err": path.b_err,
                "failures": [list(f) for f in path.failures],
                "slice_converged": [p.converged for p in path.points],
            },
        )
    if fmt == "svg":
        chart = svg_line_chart(
            [
                ("pi/u", [(p.u, p.pi_over_u) for p in path.points]),
                ("phi*/u (ratio b)", [(p.u, p.ratio_b) for p in path.points]),
            ],
            title=f"maximal-dependence path, {model.spec()}",
            x_label="u",
            y_label="ratio",
            log_x=True,
        )
        write_text(os.path.join(out, f"{prefix}path.svg"), chart)
    return path


def _emit_singular(
    alpha: float, beta: float, out: str, prefix: str, fmt: str, schedule: Sequence[float] | None
) -> list[tuple]:
    if schedule is None:
        us = [10.0**s for s in _linspace(0.0, -4.0, 201)]
    else:
        us = list(schedule)
    rows = []
    with _op("singular-curve roots"):
        for u in us:
            pt = singular_root(alpha, beta, u)
            rows.append((pt.u, pt.x_star, (pt.u * pt.u) / pt.x_star, pt.ratio, pt.residual))
    write_csv(
        os.path.join(out, f"{prefix}singular.csv"),
        ("u", "x_star", "v_star", "ratio", "residual"),
        rows,
    )
    if fmt == "svg":
        chart = svg_line_chart(
            [("x*/u", [(r[0], r[3]) for r in rows])],
            title=f"singular curve, alpha={alpha:g} beta={beta:g}",
            x_label="u",
            y_label="x*/u",
            log_x=True,
        )
        write_text(os.path.join(out, f"{prefix}singular.svg"), chart)
    return rows


_ROW_BLOCK = 65536  # sample rows converted to Python floats at a time


def _emit_sample(
    model: Copula, out: str, prefix: str, fmt: str, *, n: int, seed: int
) -> None:
    with _op(f"sampling {model.spec()}"):
        pts = model.sample(n, seed=seed)
    # Rows are Python floats from tolist(), one block of the array at a time,
    # so the table streams without a float() call per entry or a full copy.
    rows = (row for i in range(0, len(pts), _ROW_BLOCK) for row in pts[i:i + _ROW_BLOCK].tolist())
    write_csv(os.path.join(out, f"{prefix}sample.csv"), ("u", "v"), rows)
    if fmt == "svg":
        chart = svg_scatter(
            pts.tolist(),
            title=f"{model.spec()}, n={n}",
            x_label="u",
            y_label="v",
        )
        write_text(os.path.join(out, f"{prefix}sample.svg"), chart)


# ---------------------------------------------------------------------------
# Command handlers.


def cmd_profile(args: argparse.Namespace) -> int:
    model = parse_model(args.model)
    out = _outdir(args)
    result = _emit_profile(model, out, "", args.format)
    print(
        f"{model.spec()}: b_star={result.b_star:.9g} lambda_star={result.lambda_star:.9g} "
        f"unique={result.unique}"
    )
    return 0


def cmd_mtcm(args: argparse.Namespace) -> int:
    model = parse_model(args.model)
    out = _outdir(args)
    tail = analytic_tail_copula(model)
    with _op(f"mtcm solve for {model.spec()}"):
        result = mtcm(tail)
    payload = result.to_json_dict()
    write_json(os.path.join(out, "mtcm.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    model = parse_model(args.model)
    out = _outdir(args)
    schedule = parse_schedule(args.schedule)
    path = _emit_path(model, out, "", args.format, schedule)
    print(
        f"{model.spec()}: lambda_phi_star={path.lambda_phi_star:.9g} "
        f"(err {path.lambda_err:.2g}) b_limit={path.b_limit:.9g} (err {path.b_err:.2g})"
    )
    for u, message in path.failures:
        print(f"  slice u={u:g} failed: {message}", file=sys.stderr)
    return 0


def cmd_spectral(args: argparse.Namespace) -> int:
    model = parse_model(args.model)
    nu, rho = _t_params(model)
    out = _outdir(args)
    sm = SpectralModel(nu, rho)
    ws = [k / 200.0 for k in range(1, 200)]
    aas = _linspace(-6.0, 6.0, 241)
    ss = _linspace(-5.0, 5.0, 201)
    with _op("spectral density table"):
        h_rows = [(w, h_density(sm, w)) for w in ws]
    with _op("profile kernel table"):
        m_rows = [(a, profile_kernel(sm, a)) for a in aas]
    with _op("smoothed profile table"):
        l_rows = [(s, smoothed_profile(sm, s)) for s in ss]
    write_csv(os.path.join(out, "spectral-h.csv"), ("w", "h"), h_rows)
    write_csv(os.path.join(out, "spectral-m.csv"), ("a", "m"), m_rows)
    write_csv(os.path.join(out, "spectral-L.csv"), ("s", "L"), l_rows)
    if args.format == "svg":
        for name, rows, xl, yl in (
            ("spectral-h", h_rows, "w", "h(w)"),
            ("spectral-m", m_rows, "a", "m(a)"),
            ("spectral-L", l_rows, "s", "L(s)"),
        ):
            chart = svg_line_chart(
                [(yl, rows)],
                title=f"{name}, nu={nu:g} rho={rho:g}",
                x_label=xl,
                y_label=yl,
            )
            write_text(os.path.join(out, f"{name}.svg"), chart)
    print(f"spectral tables written for nu={nu:g}, rho={rho:g}")
    return 0


def cmd_singular(args: argparse.Namespace) -> int:
    model = parse_model(args.model)
    alpha, beta = _mo_params(model)
    out = _outdir(args)
    schedule = parse_schedule(args.schedule)
    rows = _emit_singular(alpha, beta, out, "", args.format, schedule)
    print(f"singular curve written at {len(rows)} levels (alpha={alpha:g}, beta={beta:g})")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    _check_sampling(args)
    model = parse_model(args.model)
    out = _outdir(args)
    _emit_sample(model, out, "", args.format, n=args.n, seed=args.seed)
    print(f"wrote {args.n} samples of {model.spec()}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    _check_sampling(args)
    out = _outdir(args)
    models = [
        ("smo-", survival(MarshallOlkin(0.35, 0.7))),
        ("sag-", survival(AsymGumbel(0.35, 0.7, 2.0))),
    ]
    manifest: dict[str, object] = {"seed": args.seed, "n": args.n, "models": {}}
    files: list[str] = []
    for prefix, model in models:
        _emit_sample(model, out, prefix, args.format, n=args.n, seed=args.seed)
        result = _emit_profile(model, out, prefix, args.format)
        path = _emit_path(model, out, prefix, args.format, None)
        entry = {
            "spec": model.spec(),
            "b_star": result.b_star,
            "lambda_star": result.lambda_star,
            "lambda_phi_star": path.lambda_phi_star,
            "b_limit": path.b_limit,
            "files": [f"{prefix}sample.csv", f"{prefix}profile.csv", f"{prefix}mtcm.json", f"{prefix}path.csv"],
        }
        if isinstance(model, Survival) and isinstance(model.base, MarshallOlkin):
            _emit_singular(model.base.alpha, model.base.beta, out, prefix, args.format, None)
            entry["files"] = list(entry["files"]) + [f"{prefix}singular.csv"]
        manifest["models"][model.spec()] = entry  # type: ignore[index]
        files.extend(entry["files"])  # type: ignore[arg-type]
    write_json(os.path.join(out, "manifest.json"), manifest)
    print("figure data written:")
    for name in files + ["manifest.json"]:
        print(f"  {os.path.join(out, name)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    keys = list(SUITES) if args.suite == "all" else [args.suite]
    all_passed = True
    for key in keys:
        title = SUITES[key][0]
        try:
            results = run_suite(key)
        except TailPathError as exc:
            raise NumericalFailure(f"verify suite {key}", exc) from exc
        failed = [r for r in results if not r.passed]
        status = "PASS" if not failed else "FAIL"
        all_passed = all_passed and not failed
        print(f"{status} {title} [{key}] ({len(results) - len(failed)}/{len(results)} checks)")
        for r in results if args.verbose else failed:
            mark = "ok" if r.passed else "FAILED"
            detail = f" {r.detail}" if r.detail else ""
            print(f"    {mark}: {r.name}{detail}")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_common(sub: argparse.ArgumentParser, *, model: bool = True) -> None:
    if model:
        sub.add_argument("--model", required=True, help="model spec, e.g. smo:alpha=0.35,beta=0.7")
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    sub.add_argument(
        "--format",
        choices=("csv", "json", "svg"),
        default="csv",
        help=(
            "artifact tier: csv writes the tables (default); json adds path.json "
            "to path and figure; svg adds charts but not path.json. profile and "
            "mtcm write mtcm.json at every tier"
        ),
    )


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later main() call.

    parse_args leaves the parser unchanged, and a fresh parser per call is a
    pile of reference cycles that only a full garbage collection frees.
    """
    parser = argparse.ArgumentParser(
        prog="tailpath",
        description="Tail copulas, maximal tail concordance, and paths of maximal dependence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile curve b -> Lambda(b,1/b) plus its maximizer")
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("mtcm", help="maximal tail concordance measure as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_mtcm)

    p = sub.add_parser("path", help="trace the path of maximal dependence")
    _add_common(p)
    p.add_argument("--schedule", default="default", help="`default` or comma list of decreasing u")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("spectral", help="spectral density, profile kernel, smoothed profile tables")
    _add_common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("singular", help="Marshall-Olkin singular curve table")
    _add_common(p)
    p.add_argument("--schedule", default="default", help="`default` or comma list of decreasing u")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("sample", help="draw pairs from a model")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--n", type=int, default=5000, help="number of pairs (default 5000)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("figure", help="all tables for the two reference models")
    _add_common(p, model=False)
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--n", type=int, default=5000, help="sample size per model (default 5000)")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=["all", *SUITES], default="all")
    p.add_argument("--verbose", action="store_true", help="print every check, not only failures")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"tailpath: {exc}", file=sys.stderr)
        return 2
    except ScheduleError as exc:
        print(f"tailpath: bad schedule: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"tailpath: {exc}", file=sys.stderr)
        return 3
    except TailPathError as exc:
        print(f"tailpath: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
