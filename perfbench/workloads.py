"""The three benchmark workloads: the public calls each one issues, and the cells
its result tables hold.

A workload is a list of steps. Each step is one user-facing call, issued only
after the previous one returned (a closed loop with one caller):

- ``cli``: ``blowup.cli.main(argv)`` in-process, the path CLI users take;
- ``study``: ``harness.run_study(..., jobs=None)`` then ``harness.emit_csv``;
- ``rd``: ``harness.run_rd_study(...)`` then ``harness.emit_csv``.

A cell is one (problem, method, eps) or (m, eps) result. The workload seed
jitters every eps of every grid within JITTER_OCTAVES of an octave and is the
solver seed; DEFAULT_SEED gives the plain powers of two.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import traceback
from dataclasses import dataclass, field

DEFAULT_SEED = 1

# Total width of the eps jitter, in octaves. Every eps and tau_hat changes with
# the seed, but err/eps of a coarse cell is a sawtooth in eps (the overshoot of
# the last step), so a jitter of 1/32 octave or more moves err_over_eps_max by
# about 12% between seeds by chance alone; at 1/512 octave it moves about 2%.
JITTER_OCTAVES = 1.0 / 512.0

# Criteria 1 and 5 of the acceptance suite: the cells of these (problem, method)
# pairs must lie within EXACT_TOL * eps of their exact blow-up time.
EXACT_TOL = 50.0
EXPR_TAU = 2.0  # x' = x^2 from x0 = 1/2
EXACT_TAU = {("sq", "adaptive"): 2.0, ("uncoupled", "adaptive"): 0.25,
             ("expr", "adaptive"): EXPR_TAU, ("expr", "taylor2"): EXPR_TAU}

NAMES = ("scalar-sweep", "rd-table", "small-systems")

# Catalog entries each workload builds during set-up, as catalog.get arguments.
ENTRIES = {
    "scalar-sweep": [("sq", {}), ("expsq", {}), ("xlog_c", {})],
    "rd-table": [("rd", {"m": m}) for m in (4, 8, 16, 32, 64)],
    "small-systems": [("coupled", {}), ("uncoupled", {}), ("slowlog_c", {})],
}


@dataclass
class Step:
    kind: str  # "cli", "study" or "rd"
    label: str
    args: dict
    expected: list  # (problem, method) of each expected cell, in table order
    csv_path: str = ""


@dataclass
class Cell:
    problem: str
    method: str
    eps: float
    tau_hat: float
    steps: int
    error: float  # |tau_hat - reference|, NaN without a reference
    failed: str = ""
    radius: float = math.nan  # threshold radius, when the output reports it

    def key(self):
        return [self.problem, self.method, self.eps.hex(), self.tau_hat.hex(), self.steps]


@dataclass
class StepOutcome:
    step: Step
    cells: list = field(default_factory=list)
    error: str = ""


class Jitter:
    """Seeded eps jitter; draws happen in plan order, so a seed fixes every eps."""

    def __init__(self, seed: int):
        self._rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def eps(self, k: int) -> float:
        base = 2.0**-k
        if self._rng is None:
            return base
        return base * 2.0 ** (JITTER_OCTAVES * (self._rng.random() - 0.5))

    def grid(self, k0: int, k1: int) -> list[float]:
        return [self.eps(k) for k in range(k0, k1 + 1)]


def _cli_study(label, problem, methods, k0, k1, jit, csv_path, extra=()):
    # The CLI builds its grid as start * 2^-j, so the jitter moves the whole
    # grid by the factor drawn for its start.
    start = jit.eps(k0)
    stop = start * 2.0 ** (k0 - k1)
    argv = ["study", "--problem", problem, "--methods", ",".join(methods),
            "--eps-start", repr(start), "--eps-stop", repr(stop),
            "--out", csv_path, *extra]
    expected = [(problem, m) for m in methods for _ in range(k0, k1 + 1)]
    return Step("cli", label, {"argv": argv}, expected, csv_path)


def _cli_expr(method, eps):
    argv = ["run", "--expr", "x^2", "--x0", "0.5", "--threshold", "finverse:eps^-2",
            "--method", method, "--eps", repr(eps)]
    return Step("cli", f"run-expr-{method}", {"argv": argv, "eps": eps},
                [("expr", method)])


def _study(label, problem, methods, grid, seed, csv_path, eps_ref=None):
    args = dict(problem_id=problem, methods=list(methods), eps_grid=grid,
                seed=seed, eps_ref=eps_ref, jobs=None)
    expected = [(problem, m) for m in methods for _ in grid]
    return Step("study", label, args, expected, csv_path)


def plan(name: str, seed: int, out_dir: str) -> list[Step]:
    """The steps of one pass of workload ``name``; same seed, same steps."""
    jit = Jitter(seed)

    def path(label):
        return f"{out_dir}/{label}.csv"

    if name == "scalar-sweep":
        steps = [
            _cli_study("study-sq", "sq", ["adaptive", "taylor2", "uniform"], 6, 16,
                       jit, path("study-sq")),
            _cli_study("study-expsq", "expsq", ["adaptive", "taylor2"], 6, 16, jit,
                       path("study-expsq"), ("--eps-ref", "2^-20")),
            _cli_study("study-xlog_c", "xlog_c", ["adaptive", "taylor2"], 4, 14, jit,
                       path("study-xlog_c")),
            # baselines over a coarser grid, so that solve_1d keeps the largest share
            _cli_study("study-sq-baselines", "sq", ["arclength", "rescaling"], 6, 12,
                       jit, path("study-sq-baselines")),
        ]
        for k in (12, 14):
            steps.append(_cli_expr("adaptive", jit.eps(k)))
        for k in (12, 14, 16):
            steps.append(_cli_expr("taylor2", jit.eps(k)))
        return steps
    if name == "rd-table":
        eps_grid = jit.grid(10, 17)
        methods = ["adaptive", "uniform"]
        m_grid = [4, 8, 16, 32, 64]
        return [
            Step("rd", "rd-vary-eps",
                 dict(mode="vary-eps", m=32, eps_grid=eps_grid, methods=methods, seed=seed),
                 [("rd(32)", m) for m in methods for _ in eps_grid], path("rd-vary-eps")),
            Step("rd", "rd-vary-m",
                 dict(mode="vary-m", eps=jit.eps(15), m_grid=m_grid, methods=["adaptive"],
                      seed=seed),
                 [(f"rd({m})", "adaptive") for m in m_grid], path("rd-vary-m")),
        ]
    if name == "small-systems":
        return [
            _study("study-coupled", "coupled", ["adaptive", "alt", "uniform"],
                   jit.grid(6, 13), seed, path("study-coupled"), eps_ref=2.0**-16),
            _study("study-uncoupled", "uncoupled",
                   ["adaptive", "alt", "uniform", "log-uniform"],
                   jit.grid(4, 9), seed, path("study-uncoupled")),
            _study("study-slowlog_c", "slowlog_c", ["adaptive"], jit.grid(3, 6), seed,
                   path("study-slowlog_c"), eps_ref=2.0**-7),
        ]
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def build_entries(name: str) -> None:
    """Set-up: build the workload's catalog entries (cached by the catalog)."""
    from blowup import catalog

    for pid, kw in ENTRIES[name]:
        catalog.get(pid, **kw)


def execute(steps: list[Step], tracer=None) -> list:
    """Issue the steps one at a time. An exception out of a step fails that
    step's cells and the pass goes on; returns what each step left behind.
    With a tracer, each step's spans carry the step label as request id."""
    from blowup import cli, harness

    results = []
    for step in steps:
        if tracer is not None:
            tracer.request = step.label
        try:
            if step.kind == "cli":
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(step.args["argv"])
                results.append((code, buf.getvalue()))
            elif step.kind == "study":
                table = harness.run_study(**step.args)
                harness.emit_csv(table, step.csv_path)
                results.append(table)
            else:
                table = harness.run_rd_study(**step.args)
                harness.emit_csv(table, step.csv_path)
                results.append(table)
        except Exception:  # noqa: BLE001 - one crashing call must not abort the pass
            results.append(traceback.format_exc())
    return results


def _failed_step(step, why):
    return StepOutcome(step, [Cell(p, m, math.nan, math.nan, 0, math.nan, why)
                              for p, m in step.expected], why)


def _cells_from_csv(path):
    cells = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            tau = float(row["tau_hat"])
            failed = "" if math.isfinite(tau) else "failed row (tau_hat is NaN)"
            cells.append(Cell(row["problem"], row["method"], float(row["epsilon"]), tau,
                              int(row["steps"]), float(row["error"]), failed))
    return cells


def _cells_from_table(table):
    return [Cell(r.problem, r.method, r.epsilon, r.tau_hat, r.steps, r.error, r.failed)
            for r in table.rows]


def _cells_from_run_output(step, text):
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    tau = float(fields["tau_hat"])
    eps = step.args["eps"]
    return [Cell("expr", step.expected[0][1], eps, tau, int(fields["steps"]),
                 abs(tau - EXPR_TAU), radius=float(fields["radius"]))]


def collect(steps: list[Step], results: list) -> list[StepOutcome]:
    """Turn what the steps left behind into cells; failures are per cell."""
    outcomes = []
    for step, res in zip(steps, results):
        if isinstance(res, str):
            outcomes.append(_failed_step(step, res.strip().splitlines()[-1]))
            continue
        if step.kind == "cli":
            code, text = res
            if code != 0:
                outcomes.append(_failed_step(step, f"cli exit code {code}"))
                continue
            if step.args["argv"][0] == "run":
                cells = _cells_from_run_output(step, text)
            else:
                cells = _cells_from_csv(step.csv_path)
        else:
            cells = _cells_from_table(res)
        got = [(c.problem, c.method) for c in cells]
        if got != step.expected:
            outcomes.append(_failed_step(step, f"table holds {got}, expected {step.expected}"))
            continue
        outcomes.append(StepOutcome(step, cells))
    return outcomes


def threshold_radius(cell: Cell) -> float:
    """The radius a catalog cell integrates to; study tables do not report it."""
    from blowup import catalog, thresholds

    if math.isfinite(cell.radius):
        return cell.radius
    pid, m = cell.problem, None
    if pid.startswith("rd("):
        pid, m = "rd", int(pid[3:-1])
    problem = catalog.get(pid, m=m).problem
    rule = getattr(problem, "threshold", None) or thresholds.rule_for_growth(problem.growth)
    return thresholds.radius(rule, problem, cell.eps)


def summarize(outcomes: list[StepOutcome]) -> dict:
    """Per-pass figures and output checks (the cell list itself is in 'cells')."""
    from blowup.thresholds import RADIUS_CAP

    cells = [c for o in outcomes for c in o.cells]
    good = [c for c in cells if not c.failed]
    checks = []
    for c in good:
        tau = EXACT_TAU.get((c.problem, c.method))
        if tau is not None and not abs(c.tau_hat - tau) <= EXACT_TOL * c.eps:
            checks.append(f"{c.problem}/{c.method} at eps {c.eps!r}: |tau_hat - {tau}| = "
                          f"{abs(c.tau_hat - tau) / c.eps:.3g} eps > {EXACT_TOL:g} eps")
    with_ref = [c.error / c.eps for c in good if math.isfinite(c.error)]
    return {
        "cells": [c.key() for c in cells],
        "cells_attempted": len(cells),
        "cells_failed": sum(1 for c in cells if c.failed),
        "failures": [f"{o.step.label}: {o.error}" for o in outcomes if o.error]
        + [f"{c.problem}/{c.method} eps {c.eps!r}: {c.failed}"
           for o in outcomes if not o.error for c in o.cells if c.failed],
        "steps": sum(c.steps for c in good),
        "err_over_eps_max": max(with_ref) if with_ref else math.nan,
        # the capped-radius defect (xlog_c, slowlog_c), kept visible beside the error
        "capped_cells": sum(1 for c in good if threshold_radius(c) >= RADIUS_CAP),
        "check_failures": checks,
    }
