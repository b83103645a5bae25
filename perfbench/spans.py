"""Traced in-process run: per-module spans and counts.

The same operations as the closed loop run in this process instead:
``bayeseval.cli.main(argv)`` for CLI commands and ``ci_child.main(argv)``
for the API-only one. Tracing wraps the public functions listed in
``INSTRUMENTS`` from here, without touching the program: every module
attribute that refers to a wrapped function is rebound to the wrapper, so
calls through ``from .x import f`` bindings are seen too. A span records
(name, start, end, parent); counts are taken at the same boundaries.
A function's total is ``<span name>_s``, a module's ``<module>.busy_s``
(``passk.s`` for pass@k) and ``<module>.self_s``.

Passes alternate between traced and untraced after one untraced warm-up
pass, which fills caches such as the pass-family score tables. Per-layer
values are medians over traced passes; the overhead is the median traced
pass time over the median untraced one.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import BytesIO, StringIO, TextIOWrapper

from bayeseval import cli

import ci_child


def _n_cells(matrix) -> int:
    return int(matrix.cells.size)


def _count_tau(counts, args, kwargs, result):
    plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
    counts["bootstrap.replicates"] += plan.replicates
    for curve in result.values():
        counts["tau.valid"] += sum(p.valid_replicates for p in curve.points)
        counts["tau.slots"] += plan.replicates * len(curve.points)


def _count_conv(counts, args, kwargs, result):
    plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
    counts["bootstrap.replicates"] += plan.replicates
    for dist in result.values():
        counts["conv.censored"] += dist.censored_count
        counts["conv.total"] += dist.replicates


# (module, attribute, span name or None for count-only, counter)
INSTRUMENTS = [
    ("io", "load_results_csv", "io.load_results_csv",
     lambda c, a, k, r: c.update({"io.cells_parsed": _n_cells(r)})),
    ("io", "load_signals_jsonl", "io.load_signals_jsonl",
     lambda c, a, k, r: c.update({"io.records_parsed": len(r)})),
    ("io", "save_results_csv", "io.save_results_csv",
     lambda c, a, k, r: c.update({"io.cells_written": _n_cells(a[0])})),
    ("io", "emit_report", "io.emit_report",
     lambda c, a, k, r: c.update({"io.report_bytes": len(r)})),
    ("model", "validate_matrix", "model.validate_matrix", None),
    ("model", "tally", "model.tally", None),
    ("bayes", "evaluate_performance", "bayes.evaluate_performance",
     lambda c, a, k, r: c.update({"bayes.calls": 1})),
    ("bayes", "naive_weighted_average", "bayes.naive_weighted_average", None),
    ("passk", "pass_at_k", "passk.pass_at_k", None),
    ("passk", "pass_hat_k", "passk.pass_hat_k", None),
    ("passk", "naive_pass_hat_k", "passk.naive_pass_hat_k", None),
    ("passk", "g_pass_at_k_tau", "passk.g_pass_at_k_tau", None),
    ("passk", "mg_pass_at_k", "passk.mg_pass_at_k", None),
    ("passk", "BinaryTally.from_matrix", "passk.from_matrix", None),
    ("methods", "Method.score", "methods.score", None),
    ("methods", "Method.scores_from_counts", "methods.scores_from_counts",
     lambda c, a, k, r: c.update({"methods.calls": 1, "methods.prefixes_scored": int(r.size)})),
    ("_rng", "stream_rng", "rng.stream_rng",
     lambda c, a, k, r: c.update({"rng.streams": 1})),
    ("bootstrap", "tau_curves", "bootstrap.tau_curves", _count_tau),
    ("bootstrap", "convergence_distributions", "bootstrap.convergence_distributions", _count_conv),
    ("bootstrap", "resample", "bootstrap.resample", None),
    ("bootstrap", "gold_table", "bootstrap.gold_table", None),
    ("ranking", "rank_with_ci", "ranking.rank_with_ci",
     lambda c, a, k, r: c.update({"ranking.calls": 1})),
    ("ranking", "rank_without_ci", "ranking.rank_without_ci",
     lambda c, a, k, r: c.update({"ranking.calls": 1})),
    ("simulate", "separation_experiment", "simulate.separation_experiment", None),
    ("simulate", "sample_trials", "simulate.sample_trials", None),
    ("simulate", "reference_cohort", "simulate.reference_cohort", None),
    ("rubric", "compute_thresholds", "rubric.compute_thresholds", None),
    ("rubric", "build_matrix", "rubric.build_matrix", None),
    ("rubric", "categorize", None, lambda c, a, k, r: c.update({"rubric.categorize_calls": 1})),
]

class Tracer:
    """Span and count recorder that patches the program's public functions."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        if name is None:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(counts, args, kwargs, result)
                return result
            return count_only

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1:3] = (t0, t1)
            if counter:
                counter(counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bayeseval" or n.startswith("bayeseval.")]
        for mod_name, attr, name, counter in INSTRUMENTS:
            module = sys.modules[f"bayeseval.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, counter))
                else:
                    wrapped = self._wrap(raw, name, counter)
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-function totals, per-module busy and self time, and counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = Counter()
        for i, (name, t0, t1, parent) in enumerate(spans):
            module = name.split(".")[0]
            self_time = (t1 - t0) - child[i]
            totals[f"{module}.self_s"] += self_time
            same_name = same_module = False
            p = parent
            while p >= 0:
                pname = spans[p][0]
                same_name |= pname == name
                same_module |= pname.split(".")[0] == module
                p = spans[p][3]
            if not same_name:
                totals[f"{name}_s"] += t1 - t0
            if not same_module:
                totals["passk.s" if module == "passk" else f"{module}.busy_s"] += t1 - t0
        out = dict(totals)
        out.update(self.counts)
        out["bootstrap.valid_ratio"] = self.counts["tau.valid"] / max(self.counts["tau.slots"], 1)
        out["bootstrap.censored_ratio"] = self.counts["conv.censored"] / max(self.counts["conv.total"], 1)
        return out


def run_inproc(argv):
    """Run one operation in this process; (wall s, exit code, stdout, stderr)."""
    stdout, stderr = TextIOWrapper(BytesIO(), encoding="utf-8"), StringIO()
    entry, rest = (cli.main, argv[2:]) if argv[0] == "-m" else (ci_child.main, argv[1:])
    t0 = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            rc = entry(rest)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - t0
    stdout.flush()
    return wall, rc, stdout.buffer.getvalue(), stderr.getvalue().encode()


def startup_times(env, repeats: int = 5) -> list[float]:
    """Cold ``import bayeseval.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import bayeseval.cli; "
            "print(time.perf_counter() - t)")
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]


def measure(workloads, inp, seconds, env, tally, units: dict, mutate=None):
    """Alternate traced and untraced in-process passes for ``seconds``.

    The start-up timings and the warm-up pass count toward ``seconds``, but
    one traced and one untraced pass always run.

    Returns the per-layer metrics named in ``units`` (name -> unit); a
    span or count that never occurred reads 0.
    """
    t_begin = time.perf_counter()
    startup = startup_times(env)

    def one_pass(index, tracer):
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            for op in (slot[index % len(slot)] for slot in workloads.slots(inp)):
                wall, rc, out, err = run_inproc(op.argv)
                if mutate:
                    out = mutate(op, out)
                tally.record(op, wall, rc, out, err)
        finally:
            if tracer:
                tracer.uninstall()
        return time.perf_counter() - t0

    warm_up = one_pass(0, None)                         # untimed
    traced, untraced, layers, n_spans = [], [], [], []
    index = 1
    while not traced or time.perf_counter() + traced[-1] + untraced[-1] <= t_begin + seconds:
        tracer = Tracer()
        traced.append(one_pass(index, tracer))
        layers.append(tracer.summary())
        n_spans.append(len(tracer.spans))
        untraced.append(one_pass(index, None))
        index += 1

    metrics = {}
    for name, unit in units.items():
        if name == "cli.startup_s":
            value = statistics.median(startup)
        elif name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(untraced)
        else:
            value = statistics.median(layer.get(name, 0) for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    info = {
        "elapsed_s": time.perf_counter() - t_begin,
        "passes": 1 + len(traced) + len(untraced),
        "warm_up_pass_s": warm_up,
        "traced_pass_s": traced,
        "untraced_pass_s": untraced,
        "overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "startup_s": startup,
        "spans_per_pass": n_spans,
    }
    return metrics, info
