"""Convergence studies: epsilon sweeps, reaction-diffusion tables, slope fits,
CSV and SVG emission.

Cost is measured in integrator steps (stage evaluations for the arc-length
baseline); wall time is recorded but never asserted on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import baselines, catalog
from .errors import BlowupError, SolverError
from .integrate import SolverConfig, solve_1d, solve_log_nd, solve_nd
from .problems import RunResult, ScalarProblem
from .stepping import LogNDImplicitN

CSV_HEADER = "problem,method,epsilon,tau_hat,steps,error,reference_kind,reference_value,wall_ns"
CSV_HEADER_RD = CSV_HEADER + ",m,succ_diff_log2"

AXIS_ERROR = "error"
AXIS_COST = "cost"


class InsufficientPoints(BlowupError):
    """fit_rate needs at least three points."""


class UnknownMethod(BlowupError):
    """Method id not available for this problem."""


class NoReference(BlowupError):
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
    problem: str
    method: str
    epsilon: float
    tau_hat: float
    steps: int
    error: float
    reference_kind: str
    reference_value: float
    wall_ns: int
    m: Optional[int] = None
    succ_diff_log2: Optional[float] = None
    failed: str = ""


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
            raise ValueError(f"points must be positive, got ({e!r}, {y!r})")
    lx = np.log2([p[0] for p in points])
    ly = np.log2([p[1] for p in points])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


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
    law = entry.methods.get(method)
    if law is None:
        raise UnknownMethod(
            f"{method!r} not available for {entry.id!r}; known: {sorted(entry.methods)}"
        )
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


def reference_value(
    entry: catalog.CatalogEntry,
    *,
    eps_ref: float | None = None,
) -> tuple[str, float, list[str]]:
    """(kind, value, notes) for the entry's reference; pseudo references are
    generated with the entry's adaptive method and cached by (id, eps_ref).
    Raises NoReference for a pseudo reference with no tolerance to generate it
    at, and for an eps_ref given to an exact reference, which would ignore it."""
    ref = entry.reference
    if isinstance(ref, catalog.Exact):
        if eps_ref is not None:
            raise NoReference(f"{entry.id!r} has an exact reference; eps_ref is for pseudo ones")
        return "exact", ref.value, []
    eref = eps_ref if eps_ref is not None else ref.eps_ref
    if eref is None:
        raise NoReference(f"{entry.id!r} needs an explicit eps_ref for its pseudo reference")
    notes = []
    if ref.eps_ref is not None and eps_ref is not None and eps_ref != ref.eps_ref:
        notes.append(
            f"pseudo reference for {entry.id!r} generated at eps_ref = {eps_ref:g} "
            f"instead of the published {ref.eps_ref:g} (desk-scale substitute)"
        )
    key = (entry.id, entry.notes, eref)
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[key] = run_method(entry, "adaptive", eref).tau_hat
    return "pseudo", _REFERENCE_CACHE[key], notes


def _run_cell(entry, method, eps) -> tuple[Optional[RunResult], str]:
    """(result, "") from run_method, or (None, the failure) on a SolverError."""
    try:
        return run_method(entry, method, eps), ""
    except SolverError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _study_row(problem, method, eps, res, ref_kind, ref_value, **extra) -> StudyRow:
    """One table row; a failed cell (res None) carries NaNs and zero counts."""
    if res is None:
        return StudyRow(problem, method, eps, math.nan, 0, math.nan, ref_kind, ref_value, 0,
                        **extra)
    return StudyRow(
        problem=problem,
        method=method,
        epsilon=eps,
        tau_hat=res.tau_hat,
        steps=res.steps,
        error=abs(res.tau_hat - ref_value),
        reference_kind=ref_kind,
        reference_value=ref_value,
        wall_ns=int(res.wall_time * 1e9),
        **extra,
    )


def _log2_gap(a: float, b: float) -> float:
    """log2|a - b|, or -inf where the two coincide."""
    return math.log2(abs(a - b)) if a != b else -math.inf


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
    reference, and fit log-log error/cost slopes per method. A cell that
    raises a SolverError becomes a failed row. ``seed`` and ``jobs`` are
    accepted and ignored: every cell is deterministic and runs in turn."""
    eps_grid = list(eps_grid)
    if any(e2 >= e1 for e1, e2 in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must be strictly decreasing")
    entry = catalog.get(problem_id, c=c, m=m)
    if not methods:
        return StudyTable(rows=(), fitted={}, notes=())

    ref_kind, ref_value, notes = reference_value(entry, eps_ref=eps_ref)

    rows = []
    for method in methods:
        for eps in eps_grid:
            res, failure = _run_cell(entry, method, eps)
            rows.append(_study_row(entry.id, method, eps, res, ref_kind, ref_value,
                                   failed=failure))

    fitted = {}
    for method in methods:
        good = [r for r in rows if r.method == method and not r.failed]
        err_pts = [(r.epsilon, r.error) for r in good if r.error > 0]
        cost_pts = [(r.epsilon, float(r.steps)) for r in good if r.steps > 0]
        fitted[method] = MethodRates(
            error=fit_rate(err_pts) if len(err_pts) >= 3 else None,
            cost=fit_rate(cost_pts) if len(cost_pts) >= 3 else None,
        )
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

    A cell that raises a SolverError becomes a failed row; the differences
    next to it are left empty, and the vary-eps reference is the finest run
    that did not fail. ``seed`` is accepted and ignored."""
    if mode == VARY_EPS:
        cells = [(m, e) for e in eps_grid]
        notes = [f"rd vary-eps: m = {m}; reference is each method's finest run"]
    elif mode == VARY_M:
        cells = [(mm, eps) for mm in m_grid]
        notes = [f"rd vary-m: eps = {eps:g}; successive differences across m"]
    else:
        raise ValueError(f"mode must be {VARY_EPS!r} or {VARY_M!r}, got {mode!r}")
    rows = []
    for method in methods:
        runs = [(mm, e, *_run_cell(catalog.get("rd", m=mm), method, e)) for mm, e in cells]
        if mode == VARY_EPS:
            done = [res.tau_hat for _, _, res, _ in runs if res is not None]
            ref_kind, ref_value = "pseudo", (done[-1] if done else math.nan)
        else:
            ref_kind, ref_value = "none", math.nan
        prev_tau = None
        for mm, e, res, failure in runs:
            tau = None if res is None else res.tau_hat
            diff = None if tau is None or prev_tau is None else _log2_gap(tau, prev_tau)
            prev_tau = tau
            rows.append(
                _study_row(f"rd({mm})", method, e, res, ref_kind, ref_value,
                           m=mm, succ_diff_log2=diff, failed=failure)
            )
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


def emit_csv(table: StudyTable, path: str) -> None:
    """Write the table; floats carry 17 significant digits (lossless round-trip)."""
    rd_style = any(r.m is not None for r in table.rows)
    header = CSV_HEADER_RD if rd_style else CSV_HEADER
    lines = [header]
    for r in table.rows:
        cells = [
            r.problem,
            r.method,
            _fmt(r.epsilon),
            _fmt(r.tau_hat),
            str(r.steps),
            _fmt(r.error),
            r.reference_kind,
            _fmt(r.reference_value),
            str(r.wall_ns),
        ]
        if rd_style:
            cells += [_fmt(r.m), _fmt(r.succ_diff_log2)]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_SVG_COLORS = ("#1b6ca8", "#c23b22", "#2e8540", "#8a4f9e", "#b8860b", "#555555")


def emit_svg(table: StudyTable, path: str, axis: str = AXIS_ERROR) -> None:
    """Self-contained log2-log2 scatter+line chart, one series per method."""
    if axis not in (AXIS_ERROR, AXIS_COST):
        raise ValueError(f"axis must be {AXIS_ERROR!r} or {AXIS_COST!r}")
    series: dict[str, list[tuple[float, float]]] = {}
    for r in table.rows:
        if r.failed:
            continue
        y = r.error if axis == AXIS_ERROR else float(r.steps)
        if not (r.epsilon > 0 and y > 0 and math.isfinite(y)):
            continue
        series.setdefault(r.method, []).append((math.log2(r.epsilon), math.log2(y)))
    if not series:
        raise ValueError("nothing to plot: table is empty or has no positive values")

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
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
