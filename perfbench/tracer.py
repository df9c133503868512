"""Outside-in tracer for tailpath, built from the benchmark's own files.

``from .numerics import brent_root`` copies a function into each importing
module, so patching ``tailpath.numerics`` alone would miss the calls made from
``copulas``, ``tailcopula`` and ``maxpath``. ``install`` therefore rebinds
every module attribute across the ``tailpath`` package that holds an
instrumented function, and patches ``cdf`` and ``sample`` on the copula
classes; ``uninstall`` puts the originals back.

There are two kinds of wrapper.

* Span wrappers time every call and keep a span (name, start, end, parent,
  op id) in memory. They also take the layer counts that need the call's
  arguments or result (integrand and objective evaluations, draws, bytes).
* Hot wrappers sit on functions that cost microseconds and run thousands of
  times per op: the Student-t special functions, the closed-form cdfs and
  the per-point tail formulas. Timing each of those calls would add more
  than half to a t-tail op, so every call is counted, with its caller, and
  a fixed pseudo-random one in ``SAMPLE_PERIOD`` is timed. A hot function's time is
  its call count times its mean sampled time, and that estimate is taken off
  the self time of whatever called it. Hot functions never contain spans
  (``Survival.cdf`` over a Student-t base is timed as a span).

What each kind of wrapper adds outside the interval it times is measured on
a no-op at the start of a run (``calibrate``) and taken off the caller's self
time, so per-layer self times add up to the untraced wall time rather than
the traced one.

Counts depend only on the inputs, so two traced runs with the same seed give
identical counts.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("numerics", "copulas", "tailcopula", "maxpath", "spectral", "singular", "output", "cli")

SPECIAL_FNS = ("betainc_regularized", "student_t_cdf", "student_t_pdf", "student_t_quantile")
HOT_FNS = {
    "numerics": SPECIAL_FNS,
    "tailcopula": ("tail_copula_smo", "tail_copula_from_pickands", "tail_copula_tev"),
    "singular": ("log_gap", "curve_residual", "cubic_value"),
    "spectral": ("h_density", "profile_kernel", "profile_kernel_decay_form", "profile_kernel_log_slope"),
    "output": ("fmt_float",),
}
COPULA_CLASSES = ("Independence", "Comonotone", "FGM", "MarshallOlkin", "AsymGumbel", "StudentT", "Survival")
SPAN_CDF_CLASSES = ("StudentT",)
CDF_REPORTED = ("StudentT", "AsymGumbel", "MarshallOlkin", "FGM", "Survival")

SAMPLE_PERIOD = 8  # a hot function times one call in this many
PATTERN_SIZE = 4096  # length of the repeating choice of timed calls; a power of 2
CALIBRATE_CALLS = 20000
CALIBRATE_REPEATS = 5

_UNSET = object()


def _sample_pattern() -> list[bool]:
    """Fixed pseudo-random choice of one call in SAMPLE_PERIOD; avoids aliasing with call patterns."""
    chosen = set(random.Random(0).sample(range(PATTERN_SIZE), PATTERN_SIZE // SAMPLE_PERIOD))
    return [i in chosen for i in range(PATTERN_SIZE)]


class Tracer:
    """Spans and counts for one traced pass over a fixed list of ops."""

    def __init__(self, tp, costs: dict | None = None) -> None:
        self.tp = tp
        self.costs = costs or {"hot": 0.0, "span_outside": 0.0, "span_inside": 0.0, "counted": 0.0}
        self._pattern = _sample_pattern()
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # Per span name: summed duration less child spans, and child span count.
        self._span_self: dict[str, float] = defaultdict(float)
        self._child_spans: dict[str, int] = defaultdict(int)
        # Hot calls made directly below a span (per span name) or below a hot function.
        self._below_span: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._below_hot: dict[str, dict[str, int]] = defaultdict(dict)
        self._hot_timed: dict[str, int] = defaultdict(int)
        self._hot_incl: dict[str, float] = defaultdict(float)
        # Counting wrappers around callables a span evaluates: count key -> span name.
        self._counted_in: dict[str, str] = {}
        # frame: [name, start, child seconds, hot-call counts, span index, child spans]
        self._stack = [["bench", 0.0, 0.0, {}, -1, 0]]
        # Counts dict the next hot call reports to: the innermost span's or the calling hot function's.
        self._cur = [self._stack[0][3]]
        self._integrate_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = None

    # -- frames ------------------------------------------------------------

    def _enter(self, name):
        frame = [name, 0.0, 0.0, {}, len(self.spans), 0]
        self.spans.append(None)
        self._stack.append(frame)
        self._cur[0] = frame[3]
        frame[1] = perf_counter()
        return frame

    def _leave(self, frame):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        self._cur[0] = parent[3]
        dur = end - frame[1]
        parent[2] += dur
        parent[5] += 1
        name = frame[0]
        self.spans[frame[4]] = (name, frame[1], end, parent[4], self.op_id)
        self._span_self[name] += dur - frame[2]
        self._child_spans[name] += frame[5]
        below = self._below_span[name]
        for hot, n in frame[3].items():
            below[hot] += n

    @contextlib.contextmanager
    def op(self, op_id):
        """Frame for one op of the benchmark loop; spans below it carry op_id."""
        self.op_id = op_id
        frame = self._enter("bench.op")
        try:
            yield
        finally:
            self._leave(frame)
            self.op_id = None

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, pre=None, post=None):
        calls, enter, leave = self.calls, self._enter, self._leave

        def wrapper(*args, **kwargs):
            calls[name] += 1
            token = None
            if pre is not None:
                args, kwargs, token = pre(args, kwargs)
            result = _UNSET
            try:
                frame = enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                return result
            finally:
                if post is not None:
                    post(token, args, result)

        return wrapper

    def hot(self, name, fn, divert=None):
        """Counting wrapper; ``divert(args)`` names calls to time as a span instead."""
        calls, cur, pattern, mask = self.calls, self._cur, self._pattern, PATTERN_SIZE - 1
        timed, incl = self._hot_timed, self._hot_incl
        below = self._below_hot[name]
        as_span = self.span(name, fn) if divert is not None else None

        def wrapper(*args, **kwargs):
            if divert is not None and divert(args):
                return as_span(*args, **kwargs)
            n = calls[name]
            calls[name] = n + 1
            parent = cur[0]
            parent[name] = parent.get(name, 0) + 1
            cur[0] = below
            if not pattern[n & mask]:
                try:
                    return fn(*args, **kwargs)
                finally:
                    cur[0] = parent
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                incl[name] += perf_counter() - start
                timed[name] += 1
                cur[0] = parent

        return wrapper

    @classmethod
    def calibrate(cls, tp) -> dict:
        """Seconds each wrapper kind adds per call outside the interval it times, best of repeats."""
        def noop(u, v):  # fixed arity, like the wrapped functions; varargs would cost the base too
            return None

        probe = cls(tp)
        wrapped = {
            "hot": probe.hot("noop.hot", noop),
            "span": probe.span("noop.span", noop),
            "counted": probe._counted("noop.counted", noop, "bench"),
        }

        def per_call(f):
            best = math.inf
            for _ in range(CALIBRATE_REPEATS):
                start = perf_counter()
                for _ in range(CALIBRATE_CALLS):
                    f(0.5, 0.5)
                best = min(best, (perf_counter() - start) / CALIBRATE_CALLS)
            return best

        base = per_call(noop)
        cost = {kind: max(per_call(f) - base, 0.0) for kind, f in wrapped.items()}
        inside = probe._span_self["noop.span"] / probe.calls["noop.span"] - base
        inside = min(max(inside, 0.0), cost["span"])
        return {
            "hot": cost["hot"],
            "span_outside": cost["span"] - inside,
            "span_inside": inside,
            "counted": cost["counted"],
        }

    # -- layer counts taken at span boundaries -----------------------------

    def _counted(self, key, f, span_name):
        counts = self.counts
        self._counted_in[key] = span_name

        def g(*a, **k):
            counts[key] += 1
            return f(*a, **k)

        return g

    def _cdf_calls(self):
        """Model cdf evaluations so far; each Survival.cdf call makes one base call, counted once."""
        c = self.calls
        return sum(c[f"copulas.{k}.cdf"] for k in COPULA_CLASSES) - c["copulas.Survival.cdf"]

    def _hooks(self, name):
        counts, calls = self.counts, self.calls

        if name == "numerics.integrate_adaptive":
            def pre(args, kwargs):
                top = self._integrate_depth == 0
                self._integrate_depth += 1
                if top:
                    counts["numerics.integrate_adaptive.top_calls"] += 1
                    key = "numerics.integrate_adaptive.integrand_evals"
                    args = (self._counted(key, args[0], name),) + args[1:]
                return args, kwargs, None

            def post(token, args, result):
                self._integrate_depth -= 1

            return pre, post
        if name == "numerics.brent_root":
            def pre(args, kwargs):
                args = (self._counted("numerics.brent_root.f_evals", args[0], name),) + args[1:]
                return args, kwargs, None

            return pre, None
        if name in ("numerics.maximize_1d", "tailcopula.mtcm"):
            key = "numerics.maximize_1d.f_evals" if name == "numerics.maximize_1d" else "tailcopula.mtcm.tail_evals"

            def post(token, args, result):
                if result is not _UNSET:
                    counts[key] += result.n_evals
                    if name == "numerics.maximize_1d" and not result.converged:
                        counts["numerics.maximize_1d.unconverged"] += 1

            return None, post
        if name in ("tailcopula.tail_copula_numeric", "maxpath.maximize_slice"):
            def pre(args, kwargs):
                return args, kwargs, (self._cdf_calls(), calls["numerics.maximize_1d"])

            def post(token, args, result):
                counts[f"{name}.cdf_calls"] += self._cdf_calls() - token[0]
                if name == "maxpath.maximize_slice" and calls["numerics.maximize_1d"] - token[1] > 1:
                    counts["maxpath.maximize_slice.hint_refines"] += 1

            return pre, post
        if name == "maxpath.trace_path":
            def post(token, args, result):
                if result is not _UNSET:
                    counts["maxpath.trace_path.failures"] += len(result.failures)

            return None, post
        if name == "output.write_csv":
            def post(token, args, result):
                if result is not _UNSET:
                    counts["output.write_csv.bytes"] += os.path.getsize(args[0])

            return None, post
        if name.startswith("copulas.") and name.endswith(".sample") and name != "copulas.Survival.sample":
            def pre(args, kwargs):
                counts["copulas.sample.draws"] += args[1] if len(args) > 1 else kwargs["n"]
                return args, kwargs, None

            return pre, None
        return None, None

    def _wrap(self, name, fn, hot):
        if hot:
            return self.hot(name, fn)
        return self.span(name, fn, *self._hooks(name))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        tp = self.tp
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{tp.__name__}.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj, attr in HOT_FNS.get(layer, ()))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == tp.__name__ or mod_name.startswith(tp.__name__ + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        copulas = sys.modules[f"{tp.__name__}.copulas"]
        for cls_name in COPULA_CLASSES:
            cls = getattr(copulas, cls_name)
            for meth in ("cdf", "sample"):
                if meth not in vars(cls):
                    continue
                fn = vars(cls)[meth]
                name = f"copulas.{cls_name}.{meth}"
                if cls_name == "Survival" and meth == "cdf":
                    span_bases = tuple(getattr(copulas, c) for c in SPAN_CDF_CLASSES)
                    wrapper = self.hot(name, fn, lambda args: isinstance(args[0].base, span_bases))
                else:
                    wrapper = self._wrap(name, fn, meth == "cdf" and cls_name not in SPAN_CDF_CLASSES)
                self._patch(cls, meth, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Estimated untraced self time per instrumented name.

        A hot function's total is its call count times its mean sampled
        time, less the same estimate for the hot calls it made. A span's is
        its duration less its child spans and the estimate for the hot calls
        made directly below it. Calibrated wrapper costs come off both.
        """
        c = self.costs
        mean = {h: self._hot_incl[h] / n for h, n in self._hot_timed.items() if n}

        def below(counts):
            return sum(n * (mean.get(h, 0.0) + c["hot"]) for h, n in counts.items())

        out = {}
        for name, raw in self._span_self.items():
            out[name] = (
                raw
                - below(self._below_span[name])
                - c["span_outside"] * self._child_spans[name]
                - c["span_inside"] * self.calls[name]
            )
        for key, name in self._counted_in.items():
            if name in out:
                out[name] -= c["counted"] * self.counts[key]
        for name, n in self.calls.items():
            if name in mean:
                out[name] = n * mean[name] - below(self._below_hot.get(name, {}))
        return out

    def count_snapshot(self) -> dict[str, float]:
        """Every call count and layer count of the pass, for the determinism check."""
        snap = {f"{k}.calls": v for k, v in self.calls.items() if v}
        snap.update((k, v) for k, v in self.counts.items() if v)
        return dict(sorted(snap.items()))

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (all but trace.*)."""
        s = self.self_times()
        c, k = self.calls, self.counts
        m: dict[str, float] = {}
        m["numerics.special_fn.calls"] = sum(c[f"numerics.{f}"] for f in SPECIAL_FNS)
        m["numerics.special_fn.self_s"] = sum(s.get(f"numerics.{f}", 0.0) for f in SPECIAL_FNS)
        for f in SPECIAL_FNS:
            m[f"numerics.{f}.calls"] = c[f"numerics.{f}"]
        evals = k["numerics.integrate_adaptive.integrand_evals"]
        m["numerics.integrate_adaptive.calls"] = k["numerics.integrate_adaptive.top_calls"]
        m["numerics.integrate_adaptive.integrand_evals"] = evals
        m["numerics.integrate_adaptive.panels"] = evals / 15.0
        m["numerics.integrate_adaptive.self_s"] = s.get("numerics.integrate_adaptive", 0.0)
        m["numerics.maximize_1d.calls"] = c["numerics.maximize_1d"]
        m["numerics.maximize_1d.f_evals"] = k["numerics.maximize_1d.f_evals"]
        m["numerics.maximize_1d.unconverged"] = k["numerics.maximize_1d.unconverged"]
        m["numerics.maximize_1d.self_s"] = s.get("numerics.maximize_1d", 0.0)
        m["numerics.brent_root.calls"] = c["numerics.brent_root"]
        m["numerics.brent_root.f_evals"] = k["numerics.brent_root.f_evals"]
        m["numerics.brent_root.self_s"] = s.get("numerics.brent_root", 0.0)
        for cls in CDF_REPORTED:
            m[f"copulas.{cls}.cdf.calls"] = c[f"copulas.{cls}.cdf"]
            m[f"copulas.{cls}.cdf.self_s"] = s.get(f"copulas.{cls}.cdf", 0.0)
        m["copulas.sample.draws"] = k["copulas.sample.draws"]
        m["copulas.sample.self_s"] = sum(s.get(f"copulas.{cls}.sample", 0.0) for cls in COPULA_CLASSES)
        m["tailcopula.mtcm.calls"] = c["tailcopula.mtcm"]
        m["tailcopula.mtcm.tail_evals"] = k["tailcopula.mtcm.tail_evals"]
        m["tailcopula.mtcm.self_s"] = s.get("tailcopula.mtcm", 0.0)
        m["tailcopula.tail_copula_numeric.calls"] = c["tailcopula.tail_copula_numeric"]
        m["tailcopula.tail_copula_numeric.cdf_calls"] = k["tailcopula.tail_copula_numeric.cdf_calls"]
        m["tailcopula.tail_copula_numeric.self_s"] = s.get("tailcopula.tail_copula_numeric", 0.0)
        m["maxpath.maximize_slice.calls"] = c["maxpath.maximize_slice"]
        m["maxpath.maximize_slice.cdf_calls"] = k["maxpath.maximize_slice.cdf_calls"]
        m["maxpath.maximize_slice.hint_refines"] = k["maxpath.maximize_slice.hint_refines"]
        m["maxpath.maximize_slice.self_s"] = s.get("maxpath.maximize_slice", 0.0)
        m["maxpath.trace_path.self_s"] = s.get("maxpath.trace_path", 0.0)
        m["maxpath.trace_path.failures"] = k["maxpath.trace_path.failures"]
        m["spectral.spectral_tail_copula.calls"] = c["spectral.spectral_tail_copula"]
        m["spectral.spectral_tail_copula.self_s"] = s.get("spectral.spectral_tail_copula", 0.0)
        m["singular.singular_root.calls"] = c["singular.singular_root"]
        m["singular.singular_root.self_s"] = s.get("singular.singular_root", 0.0)
        m["singular.asymptotic_report.self_s"] = s.get("singular.asymptotic_report", 0.0)
        m["output.write_csv.calls"] = c["output.write_csv"]
        m["output.write_csv.bytes"] = k["output.write_csv.bytes"]
        m["output.write_csv.self_s"] = s.get("output.write_csv", 0.0)
        m["cli.main.self_s"] = s.get("cli.main", 0.0)
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("name,start,end,parent,op\n")
            for name, start, end, parent, op_id in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{op_id}\n")
