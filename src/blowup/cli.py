"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 assumption violation, 3 solver error.
Tolerances accept both decimal ("0.001") and power forms ("2^-12").
`run` and `check` take exactly one of --problem, which reads --c and --m, and
--expr, which reads --x0, --k and --threshold; an --expr problem is an entry
with the 1D method table and no reference. `run --method` takes a method id
of the entry's table. An option that the selection, the method or the
rd-study mode does not read is a usage error. `run` rejects a problem that
breaks a structural condition (x0 <= 0, k <= 1); `check` reports it.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import baselines, catalog, expr, harness, thresholds
from .errors import BlowupError, SolverError
# unused here, but perfbench's --trace 1 wraps cli.solve_1d, so the name must exist
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


def _ids(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _m_grid(text: str) -> list[int]:
    return [_positive_int(v) for v in _ids(text)]


def _build_parser() -> _Parser:
    p = _Parser(prog="blowup", description="Blow-up time estimation for autonomous ODEs")
    sub = p.add_subparsers(dest="command", required=True)

    # The problem-selection options, declared once. study copies the catalog part
    # when it is created; --expr then joins --problem's group for run and check.
    selection = _Parser(add_help=False)
    one_of = selection.add_mutually_exclusive_group(required=True)
    one_of.add_argument("--problem", help="catalog problem id (see `blowup list`)")
    selection.add_argument("--c", type=float, help="exponent for xlog_c / slowlog_c")
    selection.add_argument("--m", type=int, help="grid refinement for rd")
    study = sub.add_parser("study", parents=[selection], help="epsilon sweep with slope fits")
    one_of.add_argument("--expr", help="1D right-hand side b(x), e.g. 'x^2'")
    selection.add_argument("--x0", type=float, help="initial state for --expr problems")
    selection.add_argument("--k", type=float, help="expansion constant (> 1, default 1.1)")
    selection.add_argument(
        "--threshold",
        help="for --expr problems: finverse:<expr in eps> | bprimelog | radius:<expr in eps>",
    )

    run = sub.add_parser("run", parents=[selection], help="single estimation run")
    run.add_argument("--method", default="adaptive", help="a method id of the entry's table")
    run.add_argument("--eps", type=parse_eps, required=True, help="tolerance, e.g. 2^-12")
    run.add_argument("--M", type=float, help="rescaling threshold (default 4)")
    run.add_argument("--rk-tol", type=float, help="arclength RK tolerance (default 1e-10)")
    run.add_argument("--max-steps", type=_positive_int, default=2**30, help="step budget")
    run.add_argument("--trace", help="write (t, |x|) pairs to this CSV path")
    run.add_argument(
        "--expr-deriv-check",
        action="store_true",
        default=None,
        help="cross-check the symbolic derivative against finite differences first",
    )

    study.add_argument("--methods", type=_ids, required=True, help="comma-separated method ids")
    study.add_argument("--eps-start", type=parse_eps, required=True)
    study.add_argument("--eps-stop", type=parse_eps, required=True)
    study.add_argument("--eps-ref", type=parse_eps, help="pseudo-reference tolerance override")
    study.add_argument("--out", required=True, help="CSV output path")
    study.add_argument("--svg", help="SVG error chart path")
    study.add_argument("--svg-cost", help="SVG cost chart path")

    rd = sub.add_parser(
        "rd-study", help="reaction-diffusion tables; unset options take run_rd_study's defaults"
    )
    rd.add_argument("--mode", choices=(harness.VARY_EPS, harness.VARY_M), required=True)
    rd.add_argument("--m", type=int, help="vary-eps grid refinement")
    rd.add_argument("--eps", type=parse_eps, help="vary-m tolerance")
    rd.add_argument("--eps-start", type=parse_eps, help="vary-eps grid start")
    rd.add_argument("--eps-stop", type=parse_eps, help="vary-eps grid stop")
    rd.add_argument("--m-grid", type=_m_grid, help="vary-m grid, comma-separated")
    rd.add_argument("--methods", type=_ids, help="comma-separated method ids")
    rd.add_argument("--out", required=True)

    check = sub.add_parser("check", parents=[selection],
                           help="sample the standing assumptions")
    check.add_argument("--samples", type=_positive_int, default=10000)
    check.add_argument("--seed", type=int, default=1)

    sub.add_parser("list", help="print catalog ids")
    return p


def _only_for(args, names, reader) -> None:
    """Raise a usage error that names each option of names that was given, since
    only reader reads them."""
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name, None) is not None]
    if given:
        raise UsageError(f"{', '.join(given)}: only for {reader}")


def _selected_entry(args) -> catalog.CatalogEntry:
    """The catalog entry of --problem, or an "expr" entry with the 1D method
    table and no reference for --expr; an option that only the other kind of
    selection reads is a usage error."""
    if args.expr is None:
        _only_for(args, ("x0", "k", "threshold", "expr_deriv_check"), "--expr problems")
        return catalog.get(args.problem, c=args.c, m=args.m)
    _only_for(args, ("c", "m"), "--problem problems")
    return catalog.CatalogEntry("expr", _expr_problem(args), catalog.SCALAR_METHODS, None)


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
        k=1.1 if args.k is None else args.k,
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


def _print_run(entry, method, eps, res):
    print(f"problem={entry.id}")
    print(f"method={method}")
    print(f"epsilon={eps:.17g}")
    print(f"tau_hat={res.tau_hat:.17g}")
    print(f"steps={res.steps}")
    print(f"radius={res.radius_used:.17g}")
    if isinstance(entry.reference, catalog.Exact):
        value = entry.reference.value
        print(f"reference=exact:{value:.17g}")
        print(f"error_vs_reference={abs(res.tau_hat - value):.17g}")
    for w in res.warnings:
        print(f"warning={w}")
    if entry.reference is None:
        tail = thresholds.tau_tail_bound(entry.problem.threshold, entry.problem, eps)
        if math.isfinite(tail):
            print(f"tail_bound={tail:.17g}")


def _cmd_run(args) -> int:
    entry = _selected_entry(args)
    law = entry.methods.get(args.method)
    if not isinstance(law, baselines.ArcLength):
        _only_for(args, ("rk_tol",), "the arclength method")
    if not isinstance(law, baselines.Rescaling):
        _only_for(args, ("M",), "the rescaling method")
    if isinstance(law, (baselines.ArcLength, baselines.Rescaling)):
        _only_for(args, ("trace",), "the Euler step laws, which record a trace")
    violations = structural_violations(entry.problem)
    if violations:
        raise UsageError("; ".join(violations))
    if args.expr_deriv_check:
        bad = _deriv_check(entry.problem)
        if bad:
            for line in bad:
                print(line)
            return 2
    cfg = SolverConfig(record_trace=args.trace is not None, max_steps=args.max_steps)
    given = {"rk_tol": args.rk_tol, "rescale_threshold": args.M}  # run_method has the defaults
    res = harness.run_method(entry, args.method, args.eps, cfg=cfg,
                             **{name: v for name, v in given.items() if v is not None})
    _print_run(entry, args.method, args.eps, res)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("t,state_norm\n")
            for t, v in res.trace:
                fh.write(f"{t:.17g},{v:.17g}\n")
    return 0


def _cmd_study(args) -> int:
    grid = _halving_grid(args.eps_start, args.eps_stop)
    table = harness.run_study(args.problem, args.methods, grid,
                              c=args.c, m=args.m, eps_ref=args.eps_ref)
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
    if args.mode == harness.VARY_EPS:
        _only_for(args, ("eps", "m_grid"), f"--mode {harness.VARY_M}")
    else:
        _only_for(args, ("m", "eps_start", "eps_stop"), f"--mode {harness.VARY_EPS}")
    # run_rd_study holds the defaults of the options left out
    given = {name: getattr(args, name) for name in ("m", "eps", "m_grid", "methods")}
    given = {name: v for name, v in given.items() if v is not None}
    if args.eps_start or args.eps_stop:
        grid = harness.RD_EPS_GRID
        given["eps_grid"] = _halving_grid(args.eps_start or grid[0], args.eps_stop or grid[-1])
    table = harness.run_rd_study(args.mode, **given)
    harness.emit_csv(table, args.out)
    for note in table.notes:
        print(f"note={note}")
    print(f"csv={args.out}")
    return 0


def _cmd_check(args) -> int:
    entry = _selected_entry(args)
    violations = structural_violations(entry.problem)
    report = check_assumptions(entry.problem, samples=args.samples, seed=args.seed)
    print(f"problem={entry.id}")
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
        commands = {"run": _cmd_run, "study": _cmd_study, "rd-study": _cmd_rd_study,
                     "check": _cmd_check}
        return commands[args.command](args)
    except (UsageError, catalog.UnknownId, harness.UnknownMethod, harness.NoReference,
            expr.ExprSyntaxError, baselines.InvalidParameter) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
