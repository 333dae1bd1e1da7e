"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 assumption violation, 3 solver error.
Tolerances accept both decimal ("0.001") and power forms ("2^-12").
`run --method` takes any method id of the problem's catalog entry, "arclength"
and, for pure power laws, "rescaling". `run` rejects an --expr problem that
breaks a structural condition (x0 <= 0, k <= 1); `check` reports it.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import baselines, catalog, expr, harness, thresholds
from .errors import BlowupError, SolverError
from .integrate import SolverConfig, solve_1d
from .problems import ScalarProblem, check_assumptions, structural_violations
from .thresholds import BPrimeLog, ExplicitRadius, FInverse


class UsageError(BlowupError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_eps(text: str) -> float:
    """Parse '2^-12' or a plain decimal; the tolerance must be positive and finite."""
    base, caret, exp = text.partition("^")
    try:
        eps = float(base) ** float(exp) if caret else float(text)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise UsageError(f"bad tolerance {text!r}") from None
    if not (isinstance(eps, float) and 0.0 < eps < math.inf):
        raise UsageError(f"tolerance must be positive and finite, got {text!r}")
    return eps


def _halving_grid(start: float, stop: float) -> list[float]:
    """start, start/2, start/4, ... down to stop (within a relative 1e-12)."""
    if not 0 < stop <= start:
        raise UsageError("need 0 < eps-stop <= eps-start")
    grid = []
    e = start
    while e >= stop * (1.0 - 1e-12):
        grid.append(e)
        e /= 2.0
    return grid


def _positive_int(text: str) -> int:
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    p = _Parser(prog="blowup", description="Blow-up time estimation for autonomous ODEs")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="single estimation run")
    run.add_argument("--problem", help="catalog problem id (see `blowup list`)")
    run.add_argument("--expr", help="1D right-hand side b(x), e.g. 'x^2'")
    run.add_argument("--x0", type=float, help="initial state for --expr problems")
    run.add_argument("--k", type=float, default=1.1, help="expansion constant (> 1)")
    run.add_argument(
        "--threshold",
        help="for --expr problems: finverse:<expr in eps> | bprimelog | radius:<expr in eps>",
    )
    run.add_argument("--method", default="adaptive", help="entry's method id, or arclength")
    run.add_argument("--eps", required=True, help="tolerance, e.g. 2^-12 or 0.001")
    run.add_argument("--c", type=float, help="exponent for xlog_c / slowlog_c")
    run.add_argument("--m", type=int, help="grid refinement for rd")
    run.add_argument("--M", type=float, default=4.0, help="rescaling threshold")
    run.add_argument("--rk-tol", type=float, default=1e-10, help="arclength RK tolerance")
    run.add_argument("--max-steps", type=_positive_int, default=2**30, help="step budget")
    run.add_argument("--trace", help="write (t, |x|) pairs to this CSV path")
    run.add_argument(
        "--expr-deriv-check",
        action="store_true",
        help="cross-check the symbolic derivative against finite differences first",
    )

    study = sub.add_parser("study", help="epsilon sweep with slope fits")
    study.add_argument("--problem", required=True)
    study.add_argument("--methods", required=True, help="comma-separated method ids")
    study.add_argument("--eps-start", required=True)
    study.add_argument("--eps-stop", required=True)
    study.add_argument("--eps-ref", help="pseudo-reference tolerance override")
    study.add_argument("--c", type=float)
    study.add_argument("--m", type=int)
    study.add_argument("--out", required=True, help="CSV output path")
    study.add_argument("--svg", help="SVG error chart path")
    study.add_argument("--svg-cost", help="SVG cost chart path")

    rd = sub.add_parser("rd-study", help="reaction-diffusion tables")
    rd.add_argument("--mode", choices=(harness.VARY_EPS, harness.VARY_M), required=True)
    rd.add_argument("--m", type=int, default=32)
    rd.add_argument("--eps", default="2^-23")
    rd.add_argument("--eps-start", help="vary-eps grid start (default 2^-18)")
    rd.add_argument("--eps-stop", help="vary-eps grid stop (default 2^-25)")
    rd.add_argument("--m-grid", help="vary-m grid, comma-separated (default 4..512 doubling)")
    rd.add_argument("--methods", default="adaptive,uniform")
    rd.add_argument("--out", required=True)

    check = sub.add_parser("check", help="sample the standing assumptions")
    check.add_argument("--problem")
    check.add_argument("--expr", help="1D right-hand side to check instead of a catalog id")
    check.add_argument("--x0", type=float)
    check.add_argument("--k", type=float, default=1.1)
    check.add_argument("--threshold")
    check.add_argument("--c", type=float)
    check.add_argument("--m", type=int)
    check.add_argument("--samples", type=_positive_int, default=10000)
    check.add_argument("--seed", type=int, default=1)

    sub.add_parser("list", help="print catalog ids")
    return p


def _expr_problem(args) -> ScalarProblem:
    if args.x0 is None:
        raise UsageError("--expr needs --x0")
    if not args.threshold:
        raise UsageError("--expr needs --threshold")
    ast = expr.parse(args.expr)
    d_ast = expr.differentiate(ast)
    dd_ast = expr.differentiate(d_ast)

    spec = args.threshold
    if spec == "bprimelog":
        rule = BPrimeLog()
    elif spec.startswith("finverse:"):
        f_ast = expr.parse(spec.split(":", 1)[1], var="eps")
        rule = FInverse(lambda e: expr.evaluate(f_ast, e))
    elif spec.startswith("radius:"):
        r_ast = expr.parse(spec.split(":", 1)[1], var="eps")
        rule = ExplicitRadius(lambda e: expr.evaluate(r_ast, e), tail_is_eps=False)
    else:
        raise UsageError(f"bad --threshold {spec!r}")

    return ScalarProblem(
        rhs=lambda x: expr.evaluate(ast, x),
        rhs_deriv=lambda x: expr.evaluate(d_ast, x),
        rhs_second=lambda x: expr.evaluate(dd_ast, x),
        x0=args.x0,
        k=args.k,
        threshold=rule,
    )


def _deriv_check(problem: ScalarProblem) -> list[str]:
    bad = []
    for x in [problem.x0 * (1.0 + 9.0 * i / 31.0) for i in range(32)]:
        eta = 1e-6 * max(1.0, abs(x))
        try:
            fd = (problem.rhs(x + eta) - problem.rhs(x - eta)) / (2 * eta)
            sym = problem.rhs_deriv(x)
        except expr.DomainError:
            continue
        if not (math.isfinite(fd) and math.isfinite(sym)):
            continue
        if abs(sym - fd) > 1e-5 * max(1.0, abs(fd)):
            bad.append(f"derivative mismatch at x={x:g}: symbolic {sym:g}, fd {fd:g}")
    return bad


def _print_run(entry_id, method, eps, res, reference):
    print(f"problem={entry_id}")
    print(f"method={method}")
    print(f"epsilon={eps:.17g}")
    print(f"tau_hat={res.tau_hat:.17g}")
    print(f"steps={res.steps}")
    print(f"radius={res.radius_used:.17g}")
    if reference is not None:
        kind, value = reference
        print(f"reference={kind}:{value:.17g}")
        if kind == "exact":
            print(f"error_vs_reference={abs(res.tau_hat - value):.17g}")
    for w in res.warnings:
        print(f"warning={w}")


def _cmd_run(args) -> int:
    eps = parse_eps(args.eps)
    if (args.problem is None) == (args.expr is None):
        raise UsageError("run needs exactly one of --problem / --expr")

    if args.expr is not None:
        problem = _expr_problem(args)
        violations = structural_violations(problem)
        if violations:
            raise UsageError("; ".join(violations))
        if args.expr_deriv_check:
            bad = _deriv_check(problem)
            if bad:
                for line in bad:
                    print(line)
                return 2
        law = catalog.SCALAR_METHODS.get(args.method)
        if law is None:
            known = "/".join(catalog.SCALAR_METHODS)
            raise UsageError(f"--expr supports {known}, not {args.method!r}")
        cfg = SolverConfig(law=law, record_trace=args.trace is not None,
                           max_steps=args.max_steps)
        res = solve_1d(problem, eps, cfg)
        _print_run("expr", args.method, eps, res, None)
        tail = thresholds.tau_tail_bound(problem.threshold, problem, eps)
        if math.isfinite(tail):
            print(f"tail_bound={tail:.17g}")
    else:
        entry = catalog.get(args.problem, c=args.c, m=args.m)
        cfg = SolverConfig(record_trace=args.trace is not None, max_steps=args.max_steps)
        res = harness.run_method(
            entry, args.method, eps, rk_tol=args.rk_tol,
            rescale_threshold=args.M, cfg=cfg,
        )
        ref = entry.reference
        reference = ("exact", ref.value) if isinstance(ref, catalog.Exact) else None
        _print_run(entry.id, args.method, eps, res, reference)
    if args.trace and res.trace is not None:
        with open(args.trace, "w") as fh:
            fh.write("t,state_norm\n")
            for t, v in res.trace:
                fh.write(f"{t:.17g},{v:.17g}\n")
    return 0


def _cmd_study(args) -> int:
    grid = _halving_grid(parse_eps(args.eps_start), parse_eps(args.eps_stop))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    eps_ref = parse_eps(args.eps_ref) if args.eps_ref else None
    table = harness.run_study(
        args.problem, methods, grid,
        c=args.c, m=args.m, eps_ref=eps_ref,
    )
    harness.emit_csv(table, args.out)
    if args.svg:
        harness.emit_svg(table, args.svg, harness.AXIS_ERROR)
    if args.svg_cost:
        harness.emit_svg(table, args.svg_cost, harness.AXIS_COST)
    for note in table.notes:
        print(f"note={note}")
    for method, rates in table.fitted.items():
        if rates.error is not None:
            print(f"error_slope[{method}]={rates.error.slope:.3f}")
        if rates.cost is not None:
            print(f"cost_slope[{method}]={rates.cost.slope:.3f}")
    print(f"csv={args.out}")
    return 0


def _cmd_rd_study(args) -> int:
    eps_grid = None
    if args.eps_start or args.eps_stop:
        start = parse_eps(args.eps_start) if args.eps_start else 2.0**-18
        stop = parse_eps(args.eps_stop) if args.eps_stop else 2.0**-25
        eps_grid = _halving_grid(start, stop)
    m_grid = None
    if args.m_grid:
        m_grid = [int(v) for v in args.m_grid.split(",") if v.strip()]
    methods = tuple(v.strip() for v in args.methods.split(",") if v.strip())
    table = harness.run_rd_study(
        args.mode, m=args.m, eps=parse_eps(args.eps), eps_grid=eps_grid,
        m_grid=m_grid, methods=methods,
    )
    harness.emit_csv(table, args.out)
    for note in table.notes:
        print(f"note={note}")
    print(f"csv={args.out}")
    return 0


def _cmd_check(args) -> int:
    if (args.problem is None) == (args.expr is None):
        raise UsageError("check needs exactly one of --problem / --expr")
    if args.expr is not None:
        problem = _expr_problem(args)
        name = "expr"
    else:
        entry = catalog.get(args.problem, c=args.c, m=args.m)
        problem = entry.problem
        name = entry.id
    violations = structural_violations(problem)
    report = check_assumptions(problem, samples=args.samples, seed=args.seed)
    print(f"problem={name}")
    for c in report.checks:
        line = f"check={c.name!r} status={c.status}"
        if c.detail:
            line += f" detail={c.detail!r}"
        print(line)
    for v in violations:
        print(f"violation={v}")
    ok = report.ok and not violations
    print(f"ok={'true' if ok else 'false'}")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            for pid in catalog.list_ids():
                print(pid)
            return 0
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "rd-study":
            return _cmd_rd_study(args)
        if args.command == "check":
            return _cmd_check(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (catalog.UnknownId, harness.UnknownMethod, expr.ExprSyntaxError,
            baselines.InvalidParameter) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
