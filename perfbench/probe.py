"""Micro-timing phase of the traced run: per-layer rates on fixed inputs.

Rates (ns per step, us per call) and per-step counts are properties of a layer,
so every workload's traced run measures them on the same fixed probe cells and
on states taken from each problem's own trajectory. The probe inputs do not
depend on the workload seed; counts made here repeat exactly.

Timed calls run unwrapped. Counts come from a separate run of the same cell
with counting-only wrappers installed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics
import time

from tracing import Counter, counting, top_level_counting

# Each timing repeats until it has MIN_REPS samples and BUDGET_S seconds.
MIN_REPS = 3
BUDGET_S = 0.25
STATES = 64  # trajectory states per problem for the per-call timings

EXPR_ARGV = ["run", "--expr", "x^2", "--x0", "0.5", "--threshold", "finverse:eps^-2",
             "--method", "adaptive", "--eps", "2^-14"]

# (metric suffix, catalog id, catalog kwargs, method, log2(1/eps)); each cell
# runs long enough (roughly 0.05-0.3 s) that call overhead outside the loop is noise.
SOLVE_1D = [
    ("sq-adaptive", "sq", {}, "adaptive", 15),
    ("sq-taylor2", "sq", {}, "taylor2", 26),
    ("sq-uniform", "sq", {}, "uniform", 13),
    ("expsq-adaptive", "expsq", {}, "adaptive", 17),
    ("xlog_c-adaptive", "xlog_c", {}, "adaptive", 13),
]
SOLVE_ND = [
    ("rd32-adaptive", "rd", {"m": 32}, "adaptive", 14),
    ("rd32-uniform", "rd", {"m": 32}, "uniform", 16),
    ("coupled-adaptive", "coupled", {}, "adaptive", 12),
    ("coupled-alt", "coupled", {}, "alt", 12),
    ("uncoupled-adaptive", "uncoupled", {}, "adaptive", 12),
    ("uncoupled-uniform", "uncoupled", {}, "uniform", 8),
]
# (catalog id, kwargs, method, log2(1/eps)) of the run whose states are sampled
TRAJECTORY = {
    "sq": ("sq", {}, "adaptive", 10),
    "coupled": ("coupled", {}, "adaptive", 10),
    "uncoupled": ("uncoupled", {}, "adaptive", 10),
    "slowlog_c": ("slowlog_c", {}, "adaptive", 4),
    "rd32": ("rd", {"m": 32}, "adaptive", 12),
}
RADIUS = [
    ("FInverse-sq", "sq"),
    ("BPrimeLog-expsq", "expsq"),
    ("ExplicitRadius-xlog_c", "xlog_c"),
    ("PolyND-coupled", "coupled"),
    ("LogND-slowlog_c", "slowlog_c"),
]
RADIUS_EPS = 2.0**-12


def _repeat(fn) -> list[float]:
    """Seconds per call of fn(), repeated until MIN_REPS and BUDGET_S are met."""
    times = []
    spent = 0.0
    while len(times) < MIN_REPS or spent < BUDGET_S:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return times


def _per_call(fn, args_list) -> float:
    """Median seconds per call of fn over a list of argument tuples."""
    def sweep():
        for a in args_list:
            fn(*a)
    return statistics.median(_repeat(sweep)) / len(args_list)


def _run_cli(argv):
    from blowup import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"blowup {' '.join(argv)} exited with {code}")
    fields = dict(line.split("=", 1) for line in buf.getvalue().splitlines() if "=" in line)
    return int(fields["steps"])


def _states(entry, method, eps, n=STATES):
    """n states spread evenly along the trajectory of one run."""
    from blowup import harness

    seen = []
    rhs = entry.problem.rhs

    def recording(x):
        seen.append(x.copy() if hasattr(x, "copy") else x)
        return rhs(x)

    problem = dataclasses.replace(entry.problem, rhs=recording)
    harness.run_method(dataclasses.replace(entry, problem=problem), method, eps)
    stride = max(1, len(seen) // n)
    return seen[::stride][:n]


def measure() -> dict:
    """Every probe-phase metric, by name."""
    from blowup import catalog

    t0 = time.perf_counter()
    catalog.get("slowlog_c")  # the first call of this process builds the entry
    out = {"catalog.get.ms.slowlog_c": 1e3 * (time.perf_counter() - t0)}

    from blowup import expr, harness, linalg, thresholds

    def entry(pid, kw):
        return catalog.get(pid, **kw)

    for name, pid, kw, method, k in SOLVE_1D:
        e = entry(pid, kw)
        steps = harness.run_method(e, method, 2.0**-k).steps
        t = statistics.median(_repeat(lambda: harness.run_method(e, method, 2.0**-k)))
        out[f"integrate.solve_1d.ns_per_step.{name}"] = 1e9 * t / steps
    steps = _run_cli(EXPR_ARGV)
    t = statistics.median(_repeat(lambda: _run_cli(EXPR_ARGV)))
    out["integrate.solve_1d.ns_per_step.expr-adaptive"] = 1e9 * t / steps

    for name, pid, kw, method, k in SOLVE_ND:
        e = entry(pid, kw)
        steps = harness.run_method(e, method, 2.0**-k).steps
        t = statistics.median(_repeat(lambda: harness.run_method(e, method, 2.0**-k)))
        out[f"integrate.solve_nd.ns_per_step.{name}"] = 1e9 * t / steps

    slow = entry("slowlog_c", {})
    res = harness.run_method(slow, "adaptive", 2.0**-5)
    all_steps = res.meta["total_steps_all_iterations"]
    t = statistics.median(_repeat(lambda: harness.run_method(slow, "adaptive", 2.0**-5)))
    out["integrate.solve_log_nd.ns_per_step.slowlog_c"] = 1e9 * t / all_steps
    out["integrate.solve_log_nd.outer_iterations.slowlog_c"] = res.meta["outer_iterations"]
    out["integrate.solve_log_nd.useful_step_ratio.slowlog_c"] = res.steps / all_steps

    sq = entry("sq", {})
    res = harness.run_method(sq, "arclength", 2.0**-10)
    t = statistics.median(_repeat(lambda: harness.run_method(sq, "arclength", 2.0**-10)))
    out["baselines.solve_arclength.ns_per_eval.sq"] = 1e9 * t / res.steps
    out["baselines.solve_arclength.attempts.sq"] = res.meta["attempts"]
    res = harness.run_method(sq, "rescaling", 2.0**-10)
    t = statistics.median(_repeat(lambda: harness.run_method(sq, "rescaling", 2.0**-10)))
    out["baselines.solve_rescaling_1d.ns_per_step.sq"] = 1e9 * t / res.steps

    # counts per step, from counted runs
    counter = Counter()
    real_norm = linalg.spectral_norm
    linalg.spectral_norm = counting(real_norm, counter)
    try:
        for name, pid, kw, k in (("coupled-adaptive", "coupled", {}, 12),
                                 ("rd32-adaptive", "rd", {"m": 32}, 14)):
            before = counter.value
            steps = harness.run_method(entry(pid, kw), "adaptive", 2.0**-k).steps
            calls = counter.value - before
            out[f"linalg.spectral_norm.calls_per_step.{name}"] = calls / steps
    finally:
        linalg.spectral_norm = real_norm
    counter = Counter()
    real_eval = expr.evaluate
    expr.evaluate = top_level_counting(real_eval, counter)
    try:
        steps = _run_cli(EXPR_ARGV)
    finally:
        expr.evaluate = real_eval
    out["expr.evaluate.calls_per_step.x2"] = counter.value / steps

    # per-call costs on trajectory states
    states = {key: _states(entry(pid, kw), method, 2.0**-k)
              for key, (pid, kw, method, k) in TRAJECTORY.items()}
    for key, pid in (("coupled", "coupled"), ("uncoupled", "uncoupled"),
                     ("slowlog_c", "slowlog_c"), ("rd32", "rd")):
        p = entry(pid, {"m": 32} if pid == "rd" else {}).problem
        xs = [(x,) for x in states[key]]
        out[f"catalog.rhs.us_per_call.{key}"] = 1e6 * _per_call(p.rhs, xs)
        if key == "rd32":
            pairs = [(x, p.rhs(x)) for (x,) in xs]
            out["catalog.jvp.us_per_call.rd32"] = 1e6 * _per_call(p.jacobian.jvp, pairs)
            out["linalg.safe_norm.us_per_call.dim31"] = 1e6 * _per_call(linalg.safe_norm, xs)
            continue
        jac = p.jacobian
        out[f"linalg.spectral_norm.us_per_call.{key}"] = 1e6 * _per_call(
            lambda x: linalg.spectral_norm(jac, x, p.dim, 1), xs)
        if key in ("coupled", "slowlog_c"):
            out[f"catalog.jacobian.us_per_call.{key}"] = 1e6 * _per_call(jac.dense, xs)
        if key == "coupled":
            out["linalg.safe_norm.us_per_call.dim2"] = 1e6 * _per_call(linalg.safe_norm, xs)

    ast = expr.parse("x^2")
    out["expr.evaluate.us_per_call.x2"] = 1e6 * _per_call(
        expr.evaluate, [(ast, x) for x in states["sq"]])

    for name, pid in RADIUS:
        p = entry(pid, {}).problem
        rule = p.threshold if hasattr(p, "threshold") else thresholds.rule_for_growth(p.growth)
        out[f"thresholds.radius.us_per_call.{name}"] = 1e6 * _per_call(
            thresholds.radius, [(rule, p, RADIUS_EPS)])
    return out

