#!/usr/bin/env python3
"""tailpath benchmark: seeded closed-loop workloads against the public API.

    python3 perfbench/run.py --workload analytic-path --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from a checkout that holds ``src/tailpath``; the package is imported
from there and nowhere else. ``--trace 0`` measures the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` replays a fixed list of ops, alternating
untraced and traced passes, and reports the per-layer metrics. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit and sample count, failed ops grouped by cause, the measured share of
each input property and the environment. The full record, and the spans of
a traced run, go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

# Interpreter starts per run, spread evenly over the timed section so that
# setup_s samples the machine's speed over the whole run, not one moment of it.
SETUP_STARTS = 9
# The reference kernel runs after every timed op; an op's speed-normalized time
# divides it by the median kernel time over the REF_WINDOW ops on either side.
# Per workload: (function calls, arithmetic steps), each mix ~1 ms. The machine's
# speed states move analytic-path like the calls, t-tail like the plain loop and
# sample-cli like an even mix (README.md, "Reference units").
REF_MIX = {"analytic-path": (3000, 0), "t-tail": (0, 12000), "sample-cli": (1500, 6000)}
REF_WINDOW = 10
# setup_s is in seconds at a nominal machine speed: each start's wall time is
# scaled by SETUP_REF_NOMINAL_S over the median of SETUP_REF_RUNS kernels of
# SETUP_REF_MIX run just before it, so that the machine's speed states, which
# no change to the program can cause, do not move it.
SETUP_REF_MIX = (1500, 6000)
SETUP_REF_RUNS = 5
SETUP_REF_NOMINAL_S = 1e-3
# Ops per pass of a traced run: a fixed list, so counts repeat exactly.
TRACE_OPS = {"analytic-path": 25, "t-tail": 30, "sample-cli": 14}
# Untimed ops per run over each workload's full parameter ranges (the defect census).
CENSUS_OPS = {"analytic-path": 40, "t-tail": 24, "sample-cli": 14}


def environment(threads_env: str | None) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "TAILPATH_THREADS": "unset" if threads_env is None else f"removed (was {threads_env!r})",
    }


def measure_setup(env: dict) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until `import tailpath, tailpath.cli` returns.

    Returns the wall time and the wall time at nominal machine speed.
    """
    ref = statistics.median(reference_kernel(*SETUP_REF_MIX) for _ in range(SETUP_REF_RUNS))
    code = "import time, tailpath, tailpath.cli; print(repr(time.monotonic()))"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    wall = float(proc.stdout.strip()) - start
    return wall, wall * SETUP_REF_NOMINAL_S / ref


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ref_term(x: float, a: float) -> float:
    return math.exp(-x * a) * math.log1p(x) + a


def reference_kernel(calls: int, steps: int) -> float:
    """Seconds for a fixed pure-Python loop of calls with float math, then plain arithmetic.

    It shares no code with tailpath, so no change to the program moves it,
    while the machine's speed states move it nearly as much as they move an
    op: dividing by it removes most of that drift from the timing metrics.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(1, calls + 1):
        total += _ref_term(i * 1e-4, 0.3)
    for i in range(steps):
        total += i * 0.5
    return time.perf_counter() - start


def normalize(records) -> None:
    """Attach each op's time in reference-kernel units, against the local kernel median."""
    refs = [r["ref_s"] for r in records]
    for i, rec in enumerate(records):
        local = statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        rec["ref_units"] = rec["seconds"] / local


def run_op(wl, inp, tp, workdir):
    """One timed op: (result or None, exception or None, seconds)."""
    start = time.perf_counter()
    try:
        result, exc = wl.op(inp, tp, workdir), None
    except Exception as err:  # every failure of the program is data, not a crash
        result, exc = None, err
    return result, exc, time.perf_counter() - start


def judge(wl, records, census=False) -> None:
    """Attach the oracle verdict to each record; a failing check counts the op as failed."""
    for rec in records:
        if rec["exc"] is not None:
            rec["cause"], rec["digits"] = type(rec["exc"]).__name__, None
            continue
        try:
            outcome = wl.check(rec["inp"], rec["result"], census)
            rec["cause"], rec["digits"] = outcome.cause, outcome.digits
        except Exception as err:
            rec["cause"], rec["digits"] = f"check_raised_{type(err).__name__}", None


def shares(wl, records) -> dict:
    """Measured share of each input property, with p50 latency per value."""
    out: dict[str, dict] = defaultdict(dict)
    groups: dict[tuple, list] = defaultdict(list)
    for rec in records:
        for prop, value in wl.properties(rec["inp"]).items():
            groups[(prop, value)].append(rec)
    for (prop, value), recs in sorted(groups.items()):
        ok = [r["seconds"] for r in recs if r["cause"] is None]
        out[prop][value] = {
            "share": len(recs) / len(records),
            "ops": len(recs),
            "failed": sum(r["cause"] is not None for r in recs),
            "p50_ms_correct": 1e3 * statistics.median(ok) if ok else None,
        }
    return dict(out)


def census(wl, seed, tp, workdir) -> dict:
    """Untimed ops over the full parameter ranges, held to every check: the known defects by cause.

    The timed ops leave out the inputs on which the program is known to fail;
    the census keeps those defects in every run's report. Its ops are not
    counted in attempted or failed.
    """
    records = []
    for i, inp in enumerate(itertools.islice(wl.inputs(seed, census=True), CENSUS_OPS[wl.name])):
        result, exc, _ = run_op(wl, inp, tp, os.path.join(workdir, f"census-{i}"))
        records.append({"inp": inp, "result": result, "exc": exc})
    judge(wl, records, census=True)
    for rec in records:
        if rec["result"] is not None:
            wl.cleanup(rec["result"])
    causes = Counter(r["cause"] for r in records if r["cause"])
    return {"ops": len(records), "failed": sum(causes.values()), "by_cause": dict(causes.most_common())}


def determinism_check(wl, records, tp, workdir) -> bool | None:
    """Rerun the first sample-cli op, untimed, and require a byte-identical CSV."""
    first = next((r for r in records if r["result"] is not None and "csv" in r["result"]), None)
    if first is None:
        return None if wl.name != "sample-cli" else False
    rerun_dir = os.path.join(workdir, "rerun")
    result, exc, _ = run_op(wl, first["inp"], tp, rerun_dir)
    if exc is not None or result["code"] != 0:
        return False
    with open(os.path.join(rerun_dir, "sample.csv"), "rb") as handle:
        return handle.read() == first["result"]["csv"]


def end_to_end(wl, seed, seconds, tp, env) -> dict:
    measure_setup(env)  # the first start may compile bytecode; users pay that once
    setup, setup_wall = [], 0.0
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        warm = itertools.islice(wl.inputs(seed + 1_000_003), 7)
        for i, inp in enumerate(warm):
            result, _, _ = run_op(wl, inp, tp, str(workdir / f"warm-{i}"))
            if result is not None:
                wl.cleanup(result)
        records = []
        stream = wl.inputs(seed)
        start = time.perf_counter()
        deadline = start + seconds
        for i, inp in enumerate(stream):
            now = time.perf_counter()
            if len(setup) < SETUP_STARTS and now >= start + len(setup) * seconds / SETUP_STARTS:
                setup.append(measure_setup(env))
                setup_wall += time.perf_counter() - now
            result, exc, dt = run_op(wl, inp, tp, str(workdir / f"op-{i}"))
            records.append({"inp": inp, "result": result, "exc": exc, "seconds": dt,
                            "ref_s": reference_kernel(*REF_MIX[wl.name])})
            if time.perf_counter() >= deadline:
                break
        wall = time.perf_counter() - start - setup_wall
        while len(setup) < SETUP_STARTS:  # only when the last op overran the remaining slots
            setup.append(measure_setup(env))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        judge(wl, records)
        deterministic = determinism_check(wl, records, tp, str(workdir))
        defects = census(wl, seed, tp, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    normalize(records)
    good = [r for r in records if r["cause"] is None]
    lat = [r["seconds"] * 1e3 for r in good]
    lat_ref = [r["ref_units"] for r in good]
    busy_ref = sum(r["ref_units"] for r in records)
    acc = [r["digits"] for r in good if r["digits"] is not None]
    metrics = {
        "setup_s": (statistics.median(nominal for _, nominal in setup), len(setup)),
        "goodput_ops_per_kref": (1e3 * len(good) / busy_ref, len(good)),
        "op_p50_ref": (percentile(lat_ref, 0.5) if lat else math.nan, len(lat)),
        "op_p90_ref": (percentile(lat_ref, 0.9) if lat else math.nan, len(lat)),
        "accuracy_digits": (statistics.median(acc) if acc else math.nan, len(acc)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    wall_clock = {  # (value, unit, samples) as the user's clock reads them; the metrics are normalized
        "setup_wall_s": (statistics.median(w for w, _ in setup), "s", len(setup)),
        "goodput_ops_per_s": (len(good) / wall, "ops/s", len(good)),
        "op_p50_ms": (percentile(lat, 0.5) if lat else math.nan, "ms", len(lat)),
        "op_p90_ms": (percentile(lat, 0.9) if lat else math.nan, "ms", len(lat)),
        "reference_kernel_ms": (1e3 * statistics.median(r["ref_s"] for r in records), "ms", len(records)),
    }
    return {
        "metrics": metrics,
        "wall_clock": wall_clock,
        "attempted": len(records),
        "failed": len(records) - len(good),
        "correct": deterministic is not False and all(math.isfinite(v) for v, _ in metrics.values()),
        "timed_wall_s": wall,
        "failures_by_cause": dict(Counter(r["cause"] for r in records if r["cause"]).most_common()),
        "census": defects,
        "input_shares": shares(wl, records),
        "csv_rerun_identical": deterministic,
        "setup_samples_s": setup,
        "op_log": [[round(r["seconds"] * 1e3, 4), round(r["ref_s"] * 1e3, 4), r["cause"]] for r in records],
    }


def traced(wl, seed, seconds, tp) -> dict:
    from perfbench.tracer import Tracer

    ops = list(itertools.islice(wl.inputs(seed), TRACE_OPS[wl.name]))
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    walls = {False: [], True: []}
    layer_runs: list[dict] = []
    snapshots: list[dict] = []
    records = []
    first_tracer = None
    costs = Tracer.calibrate(tp)
    deadline = time.perf_counter() + seconds
    try:
        for i, inp in enumerate(ops[:3]):  # warm-up, untimed
            result, _, _ = run_op(wl, inp, tp, str(workdir / f"warm-{i}"))
            if result is not None:
                wl.cleanup(result)
        for pass_no in itertools.count():
            traced_pass = pass_no % 2 == 1
            tracer = Tracer(tp, costs) if traced_pass else None
            pass_records = []
            if tracer:
                tracer.install()
            try:
                start = time.perf_counter()
                for i, inp in enumerate(ops):
                    opdir = str(workdir / f"p{pass_no}-op{i}")
                    if tracer:
                        with tracer.op(i):
                            result, exc, dt = run_op(wl, inp, tp, opdir)
                    else:
                        result, exc, dt = run_op(wl, inp, tp, opdir)
                    pass_records.append({"inp": inp, "result": result, "exc": exc, "seconds": dt})
                walls[traced_pass].append(time.perf_counter() - start)
            finally:
                if tracer:
                    tracer.uninstall()
            judge(wl, pass_records)
            for rec in pass_records:
                if rec["result"] is not None:
                    wl.cleanup(rec["result"])
            records.extend(pass_records)
            if tracer:
                layer_runs.append(tracer.layer_metrics())
                layer_runs[-1]["trace.self_sum_s"] = sum(tracer.self_times().values())
                snapshots.append(tracer.count_snapshot())
                first_tracer = first_tracer or tracer
            if traced_pass and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.csv"
    first_tracer.write_spans(str(spans_path))
    untraced_wall = statistics.median(walls[False])
    traced_wall = statistics.median(walls[True])
    metrics = {}
    for name in layer_runs[0]:
        if name == "trace.self_sum_s":
            continue
        if name.endswith(".self_s"):
            metrics[name] = (statistics.median(run[name] for run in layer_runs), len(layer_runs))
        else:
            metrics[name] = (layer_runs[0][name], 1)
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, len(walls[True]))
    # The self times should add up to the untraced wall time; the gap is how far they miss it.
    self_sum = statistics.median(run["trace.self_sum_s"] for run in layer_runs)
    metrics["trace.self_sum_gap"] = (abs(self_sum / untraced_wall - 1.0), len(layer_runs))
    repeat = all(s == snapshots[0] for s in snapshots)
    failed = sum(r["cause"] is not None for r in records)
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": failed,
        "correct": repeat,
        "counts_repeat_across_passes": repeat,
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "untraced_pass_wall_s": untraced_wall,
        "traced_pass_wall_s": traced_wall,
        "self_time_sum_s": self_sum,
        "wrapper_costs_s": costs,
        "counts": snapshots[0],
        "failures_by_cause": dict(Counter(r["cause"] for r in records if r["cause"]).most_common()),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(first_tracer.spans),
    }


def report(name, seed, trace, out, units, env_record) -> None:
    print(f"== {name} seed={seed} trace={trace}: {out['attempted']} ops attempted, "
          f"{out['failed']} failed (error_frac {out['failed'] / out['attempted']:.4f}), "
          f"correct={out['correct']}")
    for metric, (value, n) in out["metrics"].items():
        print(f"   {metric:46s} {value:14.6g} {units[metric]:7s} n={n}")
    for metric, (value, unit, n) in out.get("wall_clock", {}).items():
        print(f"   {metric:46s} {value:14.6g} {unit:7s} n={n}  (wall clock)")
    print(f"   failed ops by cause: {json.dumps(out['failures_by_cause'])}")
    if "census" in out:
        c = out["census"]
        print(f"   defect census (untimed, full ranges, not in attempted/failed): {c['failed']} of "
              f"{c['ops']} ops failed: {json.dumps(c['by_cause'])}")
    for prop, values in out.get("input_shares", {}).items():
        parts = []
        for value, st in values.items():
            p50 = "-" if st["p50_ms_correct"] is None else f"{st['p50_ms_correct']:.1f}ms"
            parts.append(f"{value} {100 * st['share']:.1f}% (failed {st['failed']}/{st['ops']}, p50 {p50})")
        print(f"   {prop}: " + "; ".join(parts))
    if "passes" in out:
        print(f"   passes {out['passes']}, untraced {out['untraced_pass_wall_s']:.4f}s, traced "
              f"{out['traced_pass_wall_s']:.4f}s, self-time sum {out['self_time_sum_s']:.4f}s, "
              f"{out['spans']} spans -> {out['spans_file']}")
    print(f"   environment: {json.dumps(env_record)}")


def summary(out, units) -> dict:
    """The last line of output: correctness, op counts, and each metric's value and unit."""
    return {
        "correct": bool(out["correct"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            k: {"value": v, "unit": units[k]}
            for k, (v, _) in out["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tailpath" / "__init__.py").is_file():
        print(f"perfbench: no tailpath package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so that peak_rss_mb and imports stay per workload.
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run(cmd).returncode
            if code:
                return code
        return 0

    threads_env = os.environ.pop("TAILPATH_THREADS", None)
    sys.path.insert(0, str(SRC))
    import tailpath
    import tailpath.cli  # noqa: F401  (the sample-cli ops call it)

    if Path(tailpath.__file__).resolve().parent != (SRC / "tailpath").resolve():
        print(f"perfbench: imported tailpath from {tailpath.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    wl = WORKLOADS[args.workload]
    if args.trace:
        out = traced(wl, args.seed, args.seconds, tailpath)
    else:
        out = end_to_end(wl, args.seed, args.seconds, tailpath, dict(os.environ, PYTHONPATH=str(SRC)))
    if set(out["metrics"]) != set(units):
        print(f"perfbench: metrics {sorted(set(out['metrics']) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    env_record = environment(threads_env)
    out["environment"] = env_record
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    out["workload"] = {"name": wl.name, "why": why, "seed": args.seed, "seconds": args.seconds}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(out, handle, indent=1, default=str)
    report(wl.name, args.seed, args.trace, out, units, env_record)
    print(json.dumps(summary(out, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
