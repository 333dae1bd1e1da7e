"""Spans and counters for the traced pass, installed from the benchmark side.

Nothing under src/ is edited. Public functions are replaced by span-recording
wrappers through module attributes: every caller in the package looks them up
there at call time (``harness.run_method``, ``thresholds.radius``, ...), so a
span opens at each layer boundary the workload crosses. Hot-loop callables
(problem rhs and derivative, Jacobian/JVP, ``linalg.spectral_norm`` and
``expr.evaluate``) get counting-only wrappers, because a span per call would
cost more than the call.

Spans stay in memory and are written out when the pass ends.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time

# (module, attribute) pairs that get a span wrapper. The solvers appear under
# each module that calls them by a name of its own.
SPAN_TARGETS = (
    ("blowup.cli", "main"),
    ("blowup.cli", "solve_1d"),
    ("blowup.catalog", "get"),
    ("blowup.thresholds", "radius"),
    ("blowup.harness", "run_study"),
    ("blowup.harness", "run_rd_study"),
    ("blowup.harness", "reference_value"),
    ("blowup.harness", "run_method"),
    ("blowup.harness", "emit_csv"),
    ("blowup.harness", "solve_1d"),
    ("blowup.harness", "solve_nd"),
    ("blowup.harness", "solve_log_nd"),
    ("blowup.integrate", "solve_nd"),
    ("blowup.baselines", "solve_arclength"),
    ("blowup.baselines", "solve_rescaling_1d"),
)

# Span names are the defining module's: blowup.harness.solve_nd -> integrate.solve_nd.
_DEFINED_IN = {"solve_1d": "integrate", "solve_nd": "integrate", "solve_log_nd": "integrate"}


class Counter:
    """Call counter that threads may share: next() on itertools.count runs in C
    under the interpreter lock, so no increment is lost."""

    def __init__(self):
        self._it = itertools.count()
        self._reads = 0

    def hit(self):
        next(self._it)

    @property
    def value(self) -> int:
        """Calls so far (each read also draws a number, which is subtracted)."""
        n = next(self._it) - self._reads
        self._reads += 1
        return n


def counting(fn, counter: Counter):
    """fn with each call counted; hot-loop callables take positional arguments only."""
    hit = counter.hit

    def wrapper(*args):
        hit()
        return fn(*args)

    return wrapper


def top_level_counting(evaluate, counter: Counter):
    """expr.evaluate recurses through its module attribute; count only the
    outermost call of each evaluation (expressions run in one thread)."""
    depth = [0]

    def wrapper(e, x):
        if depth[0] == 0:
            counter.hit()
        depth[0] += 1
        try:
            return evaluate(e, x)
        finally:
            depth[0] -= 1

    return wrapper


def count_problem(problem, counters: dict, tag: str):
    """A copy of ``problem`` whose rhs and derivative/Jacobian calls are counted
    under ``tag``; arithmetic is unchanged, so results stay bit-identical."""
    from blowup.problems import ScalarProblem

    def ctr(kind):
        return counters.setdefault(f"{tag}.{kind}", Counter())

    if isinstance(problem, ScalarProblem):
        return dataclasses.replace(problem, rhs=counting(problem.rhs, ctr("rhs")),
                                   rhs_deriv=counting(problem.rhs_deriv, ctr("deriv")))
    jac = problem.jacobian
    if jac.dense is not None:
        jac = dataclasses.replace(jac, dense=counting(jac.dense, ctr("jacobian")))
    else:
        jac = dataclasses.replace(jac, jvp=counting(jac.jvp, ctr("jvp")))
    return dataclasses.replace(problem, rhs=counting(problem.rhs, ctr("rhs")), jacobian=jac)


class Tracer:
    """Records spans (name, start, end, parent, pass, request, attributes)."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counters: dict[str, Counter] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self._saved: list = []
        self.request = ""

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, describe=None):
        """Wrap ``fn`` so each call records a span; ``describe(args)`` adds
        attributes."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Pool threads start with an empty stack; their cells belong to the
            # call the main thread is blocked in.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            rec = {"id": sid, "name": name, "parent": parent, "pass": self.pass_id,
                   "request": self.request}
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                spans.append(rec)
            if describe is not None:
                rec.update(describe(args))
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        from blowup import expr, linalg

        describe = {
            "run_method": lambda a: {"entry": a[0].id, "method": a[1], "eps": a[2]},
            "reference_value": lambda a: {"entry": a[0].id},
        }
        for mod_name, attr in SPAN_TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if attr == "get":
                fn = self._counted_catalog(fn)
            short = f"{_DEFINED_IN.get(attr, mod_name.split('.')[-1])}.{attr}"
            self._patch(mod, attr, self.span(short, fn, describe.get(attr)))

        self._patch(linalg, "spectral_norm",
                    counting(linalg.spectral_norm, self.counters.setdefault(
                        "linalg.spectral_norm", Counter())))
        self._patch(expr, "evaluate", top_level_counting(
            expr.evaluate, self.counters.setdefault("expr.evaluate", Counter())))

    def _patch(self, mod, attr, value) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _counted_catalog(self, get):
        """catalog.get returning entries whose problems count their calls; one
        copy per argument set, so identity-keyed caches behave as before."""
        made = {}

        def counted_get(id, c=None, m=None):
            key = (id, c, m)
            if key not in made:
                entry = get(id, c=c, m=m)
                tag = id if m is None else f"{id}{m}"
                made[key] = dataclasses.replace(
                    entry, problem=count_problem(entry.problem, self.counters, tag))
            return made[key]

        return counted_get

    def counts(self) -> dict:
        return {k: c.value for k, c in sorted(self.counters.items())}


def self_time(span: dict, children: list) -> float:
    """Span duration minus the part of it that its children cover."""
    lo, hi = span["start"], span["end"]
    covered = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c["start"]):
        a, b = max(c["start"], lo), min(c["end"], hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (hi - lo) - covered


def span_metrics(spans: list[dict]) -> dict:
    """Per-layer figures that the traced pass of a workload gives. A layer the
    workload never reaches reads 0: no time was spent and nothing was counted."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def total(pred, fn):
        return sum(fn(s) for s in spans if pred(s))

    def dur(s):
        return s["end"] - s["start"]

    def selft(s):
        return self_time(s, children.get(s["id"], []))

    out = {}
    for pid in ("expsq", "coupled", "slowlog_c"):
        out[f"harness.reference_value.s.{pid}"] = total(
            lambda s: s["name"] == "harness.reference_value" and s["entry"] == pid, dur)
    out["harness.self_s"] = total(
        lambda s: s["name"] in ("harness.run_study", "harness.run_rd_study"), selft)
    out["harness.emit_csv.ms"] = 1e3 * total(lambda s: s["name"] == "harness.emit_csv", dur)
    out["cli.main.self_ms"] = 1e3 * total(lambda s: s["name"] == "cli.main", selft)
    return out
