"""Convergence studies: epsilon sweeps, reaction-diffusion tables, slope fits,
CSV and SVG emission.

Cost is measured in integrator steps (stage evaluations for the arc-length
baseline); wall time is recorded but never asserted on.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import pickle
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import baselines, catalog
from .errors import InputError, SolverError
from .integrate import SolverConfig, solve_1d, solve_log_nd, solve_nd
from .problems import RunResult, ScalarProblem
from .stepping import LogNDImplicitN
from .thresholds import RADIUS_CAP, cap_warnings

_CAPPED = cap_warnings(RADIUS_CAP)[0]  # the warning of a run at the capped radius

AXIS_ERROR = "error"
AXIS_COST = "cost"


class InsufficientPoints(InputError):
    """fit_rate needs at least three points."""


class UnknownMethod(InputError):
    """Method id not available for this problem."""


class NoReference(InputError):
    """A pseudo reference without a tolerance to generate it at, or a tolerance
    given for an exact reference."""


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class MethodRates:
    error: Optional[RateFit]
    cost: Optional[RateFit]


@dataclass(frozen=True)
class StudyRow:
    """One cell of a study, and one CSV line whose columns are these fields in
    order; m and succ_diff_log2 are set in rd tables only."""

    problem: str
    method: str
    epsilon: float
    tau_hat: float
    steps: int
    error: float
    reference_kind: str
    reference_value: float
    wall_ns: int
    failed: str = ""
    warnings: str = ""
    m: Optional[int] = None
    succ_diff_log2: Optional[float] = None


@dataclass(frozen=True)
class StudyTable:
    rows: tuple[StudyRow, ...]
    fitted: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def method_rows(self, method: str) -> list[StudyRow]:
        return [r for r in self.rows if r.method == method and not r.failed]


def fit_rate(points: Sequence[tuple[float, float]]) -> RateFit:
    """Least-squares slope of log2(y) against log2(eps)."""
    if len(points) < 3:
        raise InsufficientPoints(f"need >= 3 points, got {len(points)}")
    for e, y in points:
        if not (e > 0 and y > 0):
            raise InputError(f"points must be positive, got ({e!r}, {y!r})")
    lx = np.log2([p[0] for p in points])
    ly = np.log2([p[1] for p in points])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def _law(entry: catalog.CatalogEntry, method: str):
    """The entry's law or baseline for a method id; UnknownMethod if it has none."""
    law = entry.methods.get(method)
    if law is None:
        raise UnknownMethod(
            f"{method!r} not available for {entry.id!r}; known: {sorted(entry.methods)}"
        )
    return law


def _distinct(methods: Sequence[str]) -> None:
    """InputError for a method id given more than once, whose cells would run twice."""
    repeated = sorted({method for method in methods if methods.count(method) > 1})
    if repeated:
        raise InputError(f"methods given more than once: {', '.join(repeated)}")


def run_method(
    entry: catalog.CatalogEntry,
    method: str,
    eps: float,
    *,
    rk_tol: float = 1e-10,
    rescale_threshold: float = 4.0,
    cfg: SolverConfig | None = None,
) -> RunResult:
    """Run one method of a catalog entry at one tolerance; rk_tol is read only by
    ArcLength and rescale_threshold only by Rescaling."""
    law = _law(entry, method)
    problem = entry.problem
    if isinstance(law, baselines.ArcLength):
        return baselines.solve_arclength(problem, eps, rk_tol, cfg)
    if isinstance(law, baselines.Rescaling):
        return baselines.solve_rescaling_1d(
            law.power, float(problem.x0), rescale_threshold, eps, cfg
        )
    run_cfg = replace(cfg or SolverConfig(), law=law)
    if isinstance(law, LogNDImplicitN):
        return solve_log_nd(problem, eps, run_cfg)
    if isinstance(problem, ScalarProblem):
        return solve_1d(problem, eps, run_cfg)
    return solve_nd(problem, eps, run_cfg)


_REFERENCE_CACHE: dict = {}


def _reference_eps(entry: catalog.CatalogEntry, eps_ref: float | None) -> float | None:
    """The tolerance the entry's pseudo reference is generated at, or None for
    an exact reference. Raises NoReference for a pseudo reference with no
    tolerance to generate it at, and for an eps_ref given to an exact
    reference, which would ignore it."""
    ref = entry.reference
    if isinstance(ref, catalog.Exact):
        if eps_ref is not None:
            raise NoReference(f"{entry.id!r} has an exact reference; eps_ref is for pseudo ones")
        return None
    eref = eps_ref if eps_ref is not None else ref.eps_ref
    if eref is None:
        raise NoReference(f"{entry.id!r} needs an explicit eps_ref for its pseudo reference")
    return eref


def reference_value(
    entry: catalog.CatalogEntry,
    *,
    eps_ref: float | None = None,
) -> tuple[str, float, list[str]]:
    """(kind, value, notes) for the entry's reference; pseudo references are
    generated with the entry's adaptive method and cached by (entry, eps_ref)
    with the run's warnings, which a note names. Raises NoReference as
    _reference_eps does."""
    eref = _reference_eps(entry, eps_ref)
    ref = entry.reference
    if eref is None:
        return "exact", ref.value, []
    notes = []
    if ref.eps_ref is not None and eps_ref is not None and eps_ref != ref.eps_ref:
        notes.append(
            f"pseudo reference for {entry.id!r} generated at eps_ref = {eps_ref:g} "
            f"instead of the published {ref.eps_ref:g} (desk-scale substitute)"
        )
    key = (entry, eref)
    if key not in _REFERENCE_CACHE:
        res = run_method(entry, "adaptive", eref)
        _REFERENCE_CACHE[key] = res.tau_hat, "; ".join(res.warnings)
    tau_hat, warnings = _REFERENCE_CACHE[key]
    if warnings:
        notes.append(f"pseudo reference at eps_ref = {eref:g}: {warnings}")
    return "pseudo", tau_hat, notes


def _cell_workers(n_cells: int) -> int:
    """Worker processes for n_cells cells: the CPUs this process may run on,
    capped at n_cells."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_cells)


def _run_cell(cell) -> StudyRow:
    """Run one (problem_id, c, m, method, eps) cell on its catalog entry, as a
    row whose reference fields are unset: a NaN error and reference value and
    an empty reference kind. A SolverError gives a failed row with a NaN
    tau_hat, zero counts and no warnings. Method None stands for the entry's
    pseudo reference, its adaptive run at eps, whose SolverError is raised: a
    study cannot go on without it. The final state and trace stay behind."""
    problem_id, c, m, method, eps = cell
    entry = catalog.get(problem_id, c=c, m=m)
    try:
        res = run_method(entry, method or "adaptive", eps)
    except SolverError as exc:
        if method is None:
            raise
        return StudyRow(entry.id, method, eps, math.nan, 0, math.nan, "", math.nan, 0,
                        failed=f"{type(exc).__name__}: {exc}")
    return StudyRow(entry.id, method or "adaptive", eps, res.tau_hat, res.steps, math.nan, "",
                    math.nan, int(res.wall_time * 1e9), warnings="; ".join(res.warnings))


class WorkerLost(SolverError):
    """A worker process ended without sending back the result of its cell."""


def _picklable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a stand-in of its library
    base, InputError or SolverError, or of RuntimeError, whose message is
    "<TypeName>: <message>"."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        base = next((b for b in (InputError, SolverError) if isinstance(exc, b)), RuntimeError)
        return base(f"{type(exc).__name__}: {exc}")


def _serve(cells: list, task_r: int, result_w: int) -> None:
    """A worker's loop: for each cell index read from task_r, one per line until
    end of file, pickle (index, StudyRow or exception, traceback text) to
    result_w. An exception that does not survive pickling goes as a stand-in."""
    with open(task_r, "rb") as tasks, open(result_w, "wb") as replies:
        for line in tasks:
            i = int(line)
            try:
                reply = (i, _run_cell(cells[i]), "")
            except Exception as exc:  # sent to the caller, which raises it
                import traceback

                reply = (i, _picklable(exc), traceback.format_exc())
            pickle.dump(reply, replies)
            replies.flush()


def _hand_out(sel, key, order) -> None:
    """Send the worker of a selector key the next cell index of order, or close
    its task pipe, so that it exits, where none is left."""
    worker = key.data  # [pid, task pipe, index of the cell in flight]
    worker[2] = next(order, None)
    if worker[2] is None:
        sel.unregister(key.fileobj)
        worker[1].close()
        return
    try:
        worker[1].write(b"%d\n" % worker[2])
    except BrokenPipeError:
        pass  # the worker is gone, and its result pipe reaches end of file


def _run_cells(cells: list) -> list[StudyRow]:
    """_run_cell over the cells, in their order. With more than one CPU and cell,
    the cells run in forked worker processes, each pinned to a CPU of its own where
    the platform allows, longest first (smallest eps, then largest m). Each worker
    has one cell in flight and is sent the next index when its result arrives. The
    caller has looked every entry up, so each worker finds it in the catalog cache
    it inherits; only the index goes in and only the cell's row comes back.

    An exception in a cell is raised here with its type and message, or as
    the stand-in of _picklable where it does not survive pickling, and with
    the worker's traceback text as its cause; a worker that ends without its
    result raises WorkerLost. On any exception the other workers are killed
    at once, and every worker is reaped before this returns or raises."""
    workers = _cell_workers(len(cells))
    if workers < 2 or not hasattr(os, "fork"):
        return [_run_cell(cell) for cell in cells]
    import selectors  # only a pooled study needs these two
    import signal

    order = iter(sorted(range(len(cells)), key=lambda i: (cells[i][4], -(cells[i][2] or 0))))
    results, pids, ends = [None] * len(cells), [], []  # ends: this process's pipe ends
    ok = False
    try:
        for k in range(workers):
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            ends += open(task_w, "wb", buffering=0), open(result_r, "rb")
            try:
                pid = os.fork()
                if pid == 0:  # the worker: it leaves only through os._exit
                    try:
                        for end in ends:  # a worker holding another's task pipe keeps it alive
                            end.close()
                        # worker k on CPU k, not where the caller's pipe writes wake it
                        with contextlib.suppress(AttributeError, OSError):
                            os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[k]})
                        _serve(cells, task_r, result_w)
                        os._exit(0)
                    finally:
                        os._exit(1)  # reached only on an exception
            finally:
                os.close(task_r)
                os.close(result_w)
            pids.append(pid)
        with selectors.DefaultSelector() as sel:
            for pid, tasks, replies in zip(pids, ends[::2], ends[1::2]):
                _hand_out(sel, sel.register(replies, selectors.EVENT_READ, [pid, tasks, None]),
                          order)
            while sel.get_map():
                for key, _ in sel.select():
                    pid, _, cell = key.data
                    try:
                        i, value, text = pickle.load(key.fileobj)
                    except (EOFError, pickle.UnpicklingError):
                        pids.remove(pid)
                        code = os.waitstatus_to_exitcode(status := os.waitpid(pid, 0)[1])
                        how = f"exit code {code}" if code >= 0 else signal.Signals(-code).name
                        raise WorkerLost(f"the worker of cell {cells[cell]} ended without its "
                                         f"result (wait status {status}: {how})") from None
                    if text:
                        raise value from Exception(text)
                    results[i] = value
                    _hand_out(sel, key, order)
        ok = True
        return results
    finally:
        for end in ends:
            end.close()
        for pid in pids:
            if not ok:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _log2_gap(a: float, b: float) -> float:
    """log2|a - b|, or -inf where the two coincide."""
    return math.log2(abs(a - b)) if a != b else -math.inf


def _strict_grid(values: Sequence, name: str, decreasing: bool) -> list:
    """values as a list; InputError unless they strictly decrease (or increase)."""
    values = list(values)
    order = "decreasing" if decreasing else "increasing"
    if any(b >= a if decreasing else b <= a for a, b in zip(values, values[1:])):
        raise InputError(f"{name} must be strictly {order}")
    return values


def run_study(
    problem_id: str,
    methods: Sequence[str],
    eps_grid: Sequence[float],
    *,
    seed: int = 1,
    c: float | None = None,
    m: int | None = None,
    eps_ref: float | None = None,
    jobs: int | None = None,
) -> StudyTable:
    """Run all (method, eps) cells, compute errors against the entry's
    reference, and fit log-log error/cost slopes per method. A method given
    twice is an InputError. A cell that raises a SolverError becomes a failed
    row; a pseudo reference that raises one makes the study raise it. The
    cells, and a pseudo reference not yet cached, run in forked worker
    processes, one per CPU this process may run on (in this process where
    there is one CPU or one cell), with the same rows either way but for
    ``wall_ns``. The reference is the finest run, so it starts first. The
    notes name the reference's warnings and, per method, the cells at the
    capped radius that its slopes are fitted over. ``seed`` and ``jobs`` are
    accepted and ignored: every cell is deterministic."""
    eps_grid = _strict_grid(eps_grid, "eps grid", decreasing=True)
    _distinct(methods)
    entry = catalog.get(problem_id, c=c, m=m)
    if not methods:
        return StudyTable(rows=(), fitted={}, notes=())
    for method in methods:
        _law(entry, method)
    eref = _reference_eps(entry, eps_ref)

    ref_cells = ([] if eref is None or (entry, eref) in _REFERENCE_CACHE
                 else [(problem_id, c, m, None, eref)])
    cells = [(problem_id, c, m, method, eps) for method in methods for eps in eps_grid]
    rows = _run_cells(ref_cells + cells)
    if ref_cells:
        ref = rows.pop(0)
        _REFERENCE_CACHE[entry, eref] = ref.tau_hat, ref.warnings
    ref_kind, ref_value, notes = reference_value(entry, eps_ref=eps_ref)
    rows = [replace(r, error=abs(r.tau_hat - ref_value), reference_kind=ref_kind,
                    reference_value=ref_value) for r in rows]

    fitted = {}
    for method in methods:
        good = [r for r in rows if r.method == method and not r.failed]
        err_pts = [(r.epsilon, r.error) for r in good if r.error > 0]
        cost_pts = [(r.epsilon, float(r.steps)) for r in good if r.steps > 0]
        rates = fitted[method] = MethodRates(
            error=fit_rate(err_pts) if len(err_pts) >= 3 else None,
            cost=fit_rate(cost_pts) if len(cost_pts) >= 3 else None,
        )
        capped = sum(_CAPPED in r.warnings for r in good
                     if (rates.error is not None and r.error > 0)
                     or (rates.cost is not None and r.steps > 0))
        if capped:
            notes.append(f"{method}: its slopes are fitted over {capped} cells at the "
                         f"capped radius {RADIUS_CAP:g}")
    return StudyTable(rows=tuple(rows), fitted=fitted, notes=tuple(notes))


VARY_EPS = "vary-eps"
VARY_M = "vary-m"
RD_EPS_GRID = tuple(2.0**-k for k in range(18, 26))


def run_rd_study(
    mode: str,
    *,
    m: int = 32,
    eps: float = 2.0**-23,
    eps_grid: Sequence[float] = RD_EPS_GRID,
    m_grid: Sequence[int] = (4, 8, 16, 32, 64, 128, 256, 512),
    methods: Sequence[str] = ("adaptive", "uniform"),
    seed: int = 1,
) -> StudyTable:
    """Reaction-diffusion tables: tau-hat plus the successive-difference column
    log2|tau(eps) - tau(2 eps)| (vary-eps) or log2|tau(m) - tau(m/2)| (vary-m).

    The eps grid must strictly decrease, the m grid strictly increase and the
    methods differ. A cell that raises a SolverError becomes a failed row; the
    differences next to it are left empty, and the vary-eps reference is the
    finest run that did not fail. The cells of all methods run in worker processes, as in
    run_study. ``seed`` is accepted and ignored."""
    if mode == VARY_EPS:
        grid = [(m, e) for e in _strict_grid(eps_grid, "eps grid", decreasing=True)]
        notes = [f"rd vary-eps: m = {m}; reference is each method's finest run"]
    elif mode == VARY_M:
        grid = [(mm, eps) for mm in _strict_grid(m_grid, "m grid", decreasing=False)]
        notes = [f"rd vary-m: eps = {eps:g}; successive differences across m"]
    else:
        raise InputError(f"mode must be {VARY_EPS!r} or {VARY_M!r}, got {mode!r}")
    _distinct(methods)
    for mm, _ in grid:  # a bad m or method raises here; the workers inherit built entries
        entry = catalog.get("rd", m=mm)
        for method in methods:
            _law(entry, method)
    results = iter(_run_cells([("rd", None, mm, method, e) for method in methods
                               for mm, e in grid]))
    rows = []
    for method in methods:
        runs = [(mm, next(results)) for mm, _ in grid]
        if mode == VARY_EPS:
            done = [r.tau_hat for _, r in runs if not r.failed]
            ref_kind, ref_value = "pseudo", (done[-1] if done else math.nan)
        else:
            ref_kind, ref_value = "none", math.nan
        prev_tau = None
        for mm, r in runs:
            tau = None if r.failed else r.tau_hat
            diff = None if tau is None or prev_tau is None else _log2_gap(tau, prev_tau)
            prev_tau = tau
            rows.append(replace(r, problem=f"rd({mm})", error=abs(r.tau_hat - ref_value),
                                reference_kind=ref_kind, reference_value=ref_value, m=mm,
                                succ_diff_log2=diff))
    notes.append(
        "rd threshold rule is a reconstruction (polynomial growth, c_check = 1, "
        "alpha = 1, so r = 1/eps); the published table does not state its rule"
    )
    return StudyTable(rows=tuple(rows), fitted={}, notes=tuple(notes))


# --- emission ---------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_lines(path: str, lines: Sequence[str]) -> None:
    """Write each line with a newline; a path that cannot be written raises InputError."""
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc.strerror}") from None


def emit_csv(table: StudyTable, path: str) -> None:
    """Write the table, one column per StudyRow field in field order, leaving
    out m and succ_diff_log2 where no row has an m; floats carry 17 significant
    digits (lossless round-trip), and a failed cell's reason and a cell's
    warnings are quoted as the csv module quotes."""
    rd_style = any(r.m is not None for r in table.rows)
    names = [f.name for f in fields(StudyRow)
             if rd_style or f.name not in ("m", "succ_diff_log2")]
    rows = [names] + [[_fmt(getattr(r, name)) for name in names] for r in table.rows]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    write_lines(path, [text.getvalue().removesuffix("\n")])  # write_lines adds it back


_SVG_COLORS = ("#1b6ca8", "#c23b22", "#2e8540", "#8a4f9e", "#b8860b", "#555555")


def emit_svg(table: StudyTable, path: str, axis: str = AXIS_ERROR) -> None:
    """Write svg_lines(table, axis) to path."""
    write_lines(path, svg_lines(table, axis))


def svg_lines(table: StudyTable, axis: str = AXIS_ERROR) -> list[str]:
    """Self-contained log2-log2 scatter+line chart, one series per method; a
    table with nothing to plot raises InputError."""
    if axis not in (AXIS_ERROR, AXIS_COST):
        raise InputError(f"axis must be {AXIS_ERROR!r} or {AXIS_COST!r}")
    series: dict[str, list[tuple[float, float]]] = {}
    for r in table.rows:
        if r.failed:
            continue
        y = r.error if axis == AXIS_ERROR else float(r.steps)
        if not (r.epsilon > 0 and y > 0 and math.isfinite(y)):
            continue
        series.setdefault(r.method, []).append((math.log2(r.epsilon), math.log2(y)))
    if not series:
        raise InputError("nothing to plot: table is empty or has no positive values")

    width, height = 800, 600
    ml, mr, mt, mb = 70, 160, 40, 60
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="#999"/>',
    ]
    x_step = max(1, math.ceil((x_hi - x_lo) / 8))
    for tick in range(math.ceil(x_lo), math.floor(x_hi) + 1, x_step):
        out.append(
            f'<line x1="{px(tick):.1f}" y1="{height - mb}" x2="{px(tick):.1f}" '
            f'y2="{height - mb + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{px(tick):.1f}" y="{height - mb + 18}" text-anchor="middle">'
            f"{tick}</text>"
        )
    y_step = max(1, math.ceil((y_hi - y_lo) / 8))
    for tick in range(math.ceil(y_lo), math.floor(y_hi) + 1, y_step):
        out.append(
            f'<line x1="{ml - 5}" y1="{py(tick):.1f}" x2="{ml}" y2="{py(tick):.1f}" '
            'stroke="#333"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{py(tick):.1f}" text-anchor="end" '
            f'dominant-baseline="middle">{tick}</text>'
        )
    ylabel = "log2(error)" if axis == AXIS_ERROR else "log2(steps)"
    out.append(
        f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 15}" '
        'text-anchor="middle">log2(epsilon)</text>'
    )
    out.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.0f})">{ylabel}</text>'
    )

    for i, (method, pts) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = sorted(pts)
        path_d = " ".join(
            f"{'M' if j == 0 else 'L'} {px(x):.1f} {py(y):.1f}" for j, (x, y) in enumerate(pts)
        )
        out.append(f'<path d="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        rates = table.fitted.get(method)
        fit = None
        if rates is not None:
            fit = rates.error if axis == AXIS_ERROR else rates.cost
        label = method if fit is None else f"{method} (slope {fit.slope:+.2f})"
        ly = mt + 18 + 18 * i
        out.append(
            f'<line x1="{width - mr + 10}" y1="{ly - 4}" x2="{width - mr + 30}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{width - mr + 36}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return out
