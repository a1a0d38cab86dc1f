"""Per-layer numbers from a traced in-process run of ``circrob.cli.main``.

The program is observed from outside only. During a traced answer the public
functions that ``circrob.cli`` and ``circrob.recognition`` import are
replaced, where those modules bind them, by wrappers that record a span
(name, start, end, parent, answer id). Spans stay in memory and are returned
at the end. The scan and crossing steps inside ``verify`` are private, so
they are timed by standalone calls to ``is_strictly_unimodal`` and
``crossing_violation`` on the candidate order the CLI printed. Memory peaks
come from a separate pass under tracemalloc, which slows loading several
times over and is therefore never timed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import Callable, Optional

import circrob.cli as cli
import circrob.recognition  # noqa: F401  (patched by module name below)
from circrob.core import DissimilarityMatrix, canonicalize
from circrob.verification import crossing_violation, is_strictly_unimodal

from workloads import Case, check_cli

# (module, attribute, span name): the calls the traced run wraps.
WRAPPED = (
    ("circrob.cli", "load_matrix", "core.load_matrix"),
    ("circrob.cli", "find_compatible_order", "recognition.find_compatible_order"),
    ("circrob.cli", "verify", "verification.verify"),
    ("circrob.cli", "compatible_orders", "recognition.compatible_orders"),
    ("circrob.cli", "oracle_classify", "oracle.oracle_classify"),
    ("circrob.recognition", "verify", "verification.verify"),
    ("circrob.recognition", "bipartition_criterion", "recognition.bipartition_criterion"),
)
SPAN_NAMES = sorted({name for _, _, name in WRAPPED})
# Leaf calls whose tracemalloc peak is recorded in the memory pass.
PEAKED = ("core.load_matrix", "verification.verify")

STANDALONE_REPEATS = 3
SPAN_COST_CALLS = 20000

# name -> (unit, better). A metric of a span the code did not make, or of a
# step that did not run, is listed under "absent" and written as 0; the
# *_calls and *_runs counts say the same in the metrics themselves.
PER_LAYER = {
    "core.load_s": ("s", "lower"),
    "core.validate_s": ("s", "lower"),
    "core.parse_mb_per_s": ("MB/s", "higher"),
    "core.load_peak_x": ("x", "lower"),
    "recognition.construct_s": ("s", "lower"),
    "recognition.construct_calls": ("count", "lower"),
    "recognition.compatible_orders_s": ("s", "lower"),
    "recognition.compatible_orders_self_s": ("s", "lower"),
    "recognition.compatible_orders_calls": ("count", "lower"),
    "recognition.bipartition_s": ("s", "lower"),
    "recognition.bipartition_calls": ("count", "lower"),
    "recognition.verify_calls": ("count", "lower"),
    "recognition.kept_ratio": ("ratio", "higher"),
    "verification.scan_s": ("s", "lower"),
    "verification.scan_gb_per_s": ("GB/s", "higher"),
    "verification.crossing_weak_s": ("s", "lower"),
    "verification.crossing_strict_s": ("s", "lower"),
    "verification.crossing_runs": ("count", "lower"),
    "verification.verify_s": ("s", "lower"),
    "verification.verify_peak_x": ("x", "lower"),
    "verification.verify_over_scan": ("ratio", "lower"),
    "oracle.classify_s": ("s", "lower"),
    "oracle.classify_calls": ("count", "lower"),
    "oracle.orders_per_s": ("1/s", "higher"),
    "cli.verify_calls": ("count", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Spans in memory: one dict per call, parents by index."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.answer: Optional[int] = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "answer": self.answer,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced


def _peak_wrapper(peaks: dict) -> Callable:
    def wrap(name: str, fn: Callable) -> Callable:
        if name not in PEAKED:
            return fn

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.setdefault(name, []).append(tracemalloc.get_traced_memory()[1] - base)

        return measured

    return wrap


@contextlib.contextmanager
def patched(wrap: Callable):
    """Rebind every WRAPPED name that still exists; restore on exit."""
    saved = []
    for modname, attr, name in WRAPPED:
        mod = sys.modules[modname]
        if hasattr(mod, attr):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrap(name, getattr(mod, attr)))
    try:
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def answer_in_process(case: Case, main: Callable = cli.main):
    """(exit code, stdout, seconds) of one ``recognize`` call in-process."""
    argv = ["recognize", "--input", str(case.path), "--class", case.cls, "--json"]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), time.perf_counter() - t0


def _timed(fn: Callable, *args):
    """(median seconds over STANDALONE_REPEATS calls, last result or exception)."""
    times, out = [], None
    for _ in range(STANDALONE_REPEATS):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except ValueError as exc:  # precondition not met: the step is not run
            out = exc
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def span_cost_seconds() -> float:
    """Seconds one span adds: a traced no-op minus the bare no-op, per call.

    A whole answer at n = 2000 varies by about 10 % from one call to the next,
    far more than its handful of spans cost, so the overhead is measured here,
    on the wrapper alone, and scaled by the spans per answer.
    """
    def noop():
        return None

    costs = []
    for _ in range(STANDALONE_REPEATS):
        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        t1 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / SPAN_COST_CALLS)
    return statistics.median(costs)


def startup_seconds(cmd_env: dict, root: str) -> float:
    times = []
    for _ in range(STANDALONE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import circrob.cli"], cwd=root,
                       env=cmd_env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def traced_run(cases: list[Case], seconds: float, cmd_env: dict, root: str) -> dict:
    """One warm-up answer per case, traced answers for `seconds`, then one
    memory pass and the standalone calls. Returns metrics, spans and counts."""
    tracer = Tracer()
    traced, failures = [], []
    payloads: dict[str, dict] = {}  # a correct payload per case
    traced_payloads: list[Optional[dict]] = []  # per traced answer
    attempted = 0

    def record(case, code, out) -> Optional[dict]:
        nonlocal attempted
        attempted += 1
        why = check_cli(case, code, out)
        if why is not None:
            failures.append(f"{case.name}: {why}")
            return None
        payloads[case.name] = json.loads(out)
        return payloads[case.name]

    # One discarded answer per case takes the process's one-time costs (first
    # page faults, heap growth for the text parse) off the timed answers.
    for case in cases:
        record(case, *answer_in_process(case)[:2])
    deadline = time.perf_counter() + seconds
    while True:
        for case in cases:
            tracer.answer = len(traced_payloads)
            with patched(tracer.wrap):
                code, out, dt = answer_in_process(case, tracer.wrap("cli.main", cli.main))
            traced.append(dt)
            traced_payloads.append(record(case, code, out))
        if time.perf_counter() >= deadline:
            break

    peaks: dict[str, list] = {}
    tracemalloc.start()
    try:
        with patched(_peak_wrapper(peaks)):
            for case in cases:
                code, out, _ = answer_in_process(case)
                record(case, code, out)
    finally:
        tracemalloc.stop()

    children: dict[Optional[int], list[dict]] = {}
    for span in tracer.spans:
        children.setdefault(span["parent"], []).append(span)

    def self_time(span_id: int) -> float:
        span = tracer.spans[span_id]
        return _dur(span) - sum(_dur(c) for c in children.get(span_id, ()))

    durations = {name: [] for name in SPAN_NAMES}
    calls = {name: [] for name in SPAN_NAMES}
    cli_self, co_self, r_verify_calls, kept, spans_per_answer = [], [], [], [], []
    for answer, payload in enumerate(traced_payloads):
        ids = [i for i, s in enumerate(tracer.spans) if s["answer"] == answer]
        spans_per_answer.append(len(ids))
        for name in SPAN_NAMES:
            mine = [_dur(tracer.spans[i]) for i in ids if tracer.spans[i]["name"] == name]
            durations[name] += mine
            calls[name].append(len(mine))
        cli_self.append(self_time(ids[0]))
        r_verify = 0
        for i in ids:
            if tracer.spans[i]["name"] == "recognition.compatible_orders":
                co_self.append(self_time(i))
                r_verify += sum(c["name"] == "verification.verify" for c in children.get(i, ()))
        r_verify_calls.append(r_verify)
        if r_verify and payload and "order_set" in payload:
            kept.append(len(payload["order_set"]["orders"]) / r_verify)

    # standalone calls on each case's matrix and the CLI's candidate order
    validate, scan, weak, strict = [], [], [], []
    for case in cases:
        validate.append(_timed(DissimilarityMatrix, case.D.values)[0])
        payload = payloads.get(case.name, {})
        if "candidate" not in payload:
            continue
        order = canonicalize(payload["candidate"])
        t_scan, _ = _timed(is_strictly_unimodal, case.D, order)
        scan.append(t_scan)
        for flag, sink in ((False, weak), (True, strict)):
            t, out = _timed(crossing_violation, case.D, order, flag)
            if not isinstance(out, ValueError):
                sink.append(t - t_scan)

    span_cost = span_cost_seconds()
    n = cases[0].n
    matrix_bytes = 8.0 * n * n
    file_mb = statistics.mean(c.file_bytes for c in cases) / 1e6
    n_orders = math.factorial(n - 1) // 2 if n > 2 else 1
    absent: list[str] = []

    def med(name, samples, scale=lambda m: m):
        """Median (scaled); 0 and listed as absent when nothing was measured."""
        if not samples:
            absent.append(name)
            return 0.0
        return scale(statistics.median(samples))

    def count(name):
        """Median calls per answer: exact when every answer made the same calls."""
        return statistics.median(calls[name])

    scan_s = med("verification.scan_s", scan)
    verify_s = med("verification.verify_s", durations["verification.verify"])
    both = [verify_s / scan_s] if scan_s and verify_s else []
    values = {
        "core.load_s": med("core.load_s", durations["core.load_matrix"]),
        "core.validate_s": med("core.validate_s", validate),
        "core.parse_mb_per_s": med("core.parse_mb_per_s", durations["core.load_matrix"],
                                   lambda m: file_mb / m),
        "core.load_peak_x": med("core.load_peak_x", peaks.get("core.load_matrix"),
                                lambda m: m / matrix_bytes),
        "recognition.construct_s": med("recognition.construct_s",
                                       durations["recognition.find_compatible_order"]),
        "recognition.construct_calls": count("recognition.find_compatible_order"),
        "recognition.compatible_orders_s": med("recognition.compatible_orders_s",
                                               durations["recognition.compatible_orders"]),
        "recognition.compatible_orders_self_s": med(
            "recognition.compatible_orders_self_s", co_self),
        "recognition.compatible_orders_calls": count("recognition.compatible_orders"),
        "recognition.bipartition_s": med("recognition.bipartition_s",
                                         durations["recognition.bipartition_criterion"]),
        "recognition.bipartition_calls": count("recognition.bipartition_criterion"),
        "recognition.verify_calls": statistics.median(r_verify_calls),
        "recognition.kept_ratio": med("recognition.kept_ratio", kept),
        "verification.scan_s": scan_s,
        "verification.scan_gb_per_s": med("verification.scan_gb_per_s", scan,
                                          lambda m: matrix_bytes / 1e9 / m),
        "verification.crossing_weak_s": med("verification.crossing_weak_s", weak),
        "verification.crossing_strict_s": med("verification.crossing_strict_s", strict),
        "verification.crossing_runs": (len(weak) + len(strict)) / len(cases),
        "verification.verify_s": verify_s,
        "verification.verify_peak_x": med("verification.verify_peak_x",
                                          peaks.get("verification.verify"),
                                          lambda m: m / matrix_bytes),
        "verification.verify_over_scan": med("verification.verify_over_scan", both),
        "oracle.classify_s": med("oracle.classify_s", durations["oracle.oracle_classify"]),
        "oracle.classify_calls": count("oracle.oracle_classify"),
        "oracle.orders_per_s": med("oracle.orders_per_s", durations["oracle.oracle_classify"],
                                   lambda m: n_orders / m),
        "cli.verify_calls": count("verification.verify"),
        "cli.startup_s": startup_seconds(cmd_env, root),
        "cli.self_s": statistics.median(cli_self),
        "trace.overhead_s": statistics.median(spans_per_answer) * span_cost,
    }
    return {
        "metrics": values,
        "absent": absent,
        "attempted": attempted,
        "failures": failures,
        "spans": tracer.spans,
        "verify_calls_per_answer": {
            "recognition": r_verify_calls, "cli": calls["verification.verify"]},
        "traced_s": traced,
        "span_cost_s": span_cost,
    }
