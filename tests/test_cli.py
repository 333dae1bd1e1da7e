import contextlib
import math
import signal

import pytest

from blowup import catalog, cli, harness
from blowup.cli import main, parse_eps


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the main thread if the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def parse_kv(stdout: str) -> dict:
    out = {}
    for line in stdout.strip().split("\n"):
        if "=" in line:
            key, _, val = line.partition("=")
            out.setdefault(key, val)
    return out


class TestParseEps:
    def test_power_form(self):
        assert parse_eps("2^-12") == 2.0**-12

    def test_decimal_form(self):
        assert parse_eps("0.001") == 0.001

    def test_fractional_exponent(self):
        assert parse_eps("2^-6.5") == 2.0**-6.5


def test_list(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert out.split() == ["sq", "expsq", "xlog_c", "uncoupled", "coupled", "slowlog_c", "rd"]


class TestRun:
    def test_catalog_problem(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", "sq", "--method", "adaptive", "--eps", "2^-12"
        )
        assert code == 0
        kv = parse_kv(out)
        assert abs(float(kv["tau_hat"]) - 2.0) <= 50.0 * 2.0**-12
        assert int(kv["steps"]) > 0
        assert float(kv["radius"]) == pytest.approx(4096.0, rel=1e-12)

    def test_expr_path_bit_identical_to_catalog(self, capsys):
        _, out_cat, _ = run_cli(
            capsys, "run", "--problem", "sq", "--method", "adaptive", "--eps", "2^-12"
        )
        _, out_expr, _ = run_cli(
            capsys, "run", "--expr", "x^2", "--x0", "0.5", "--k", "1.1",
            "--threshold", "finverse:eps^-2", "--eps", "2^-12",
        )
        cat, exp = parse_kv(out_cat), parse_kv(out_expr)
        assert cat["tau_hat"] == exp["tau_hat"]
        assert cat["steps"] == exp["steps"]
        assert cat["radius"] == exp["radius"]

    def test_output_stable_across_runs(self, capsys):
        args = ("run", "--problem", "sq", "--method", "taylor2", "--eps", "2^-10")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_rescaling_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", "sq", "--method", "rescaling", "--eps", "2^-8"
        )
        assert code == 0
        assert abs(float(parse_kv(out)["tau_hat"]) - 2.0) <= 50.0 * 2.0**-8

    def test_trace_written(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "sq", "--method", "adaptive",
            "--eps", "2^-6", "--trace", str(trace),
        )
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "t,state_norm"
        assert len(lines) > 2

    @pytest.mark.parametrize(
        "pid,method", [(pid, m) for pid in catalog.IDS for m in catalog.get(pid).methods]
    )
    def test_every_catalog_method_runs(self, capsys, pid, method):
        # run takes every id the catalog entry lists, the baselines among them
        code, out, err = run_cli(
            capsys, "run", "--problem", pid, "--method", method, "--eps", "2^-4"
        )
        assert code == 0, err
        assert parse_kv(out)["method"] == method

    def test_deriv_check_passes_for_valid_expression(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--expr", "x^2", "--x0", "0.5", "--threshold",
            "finverse:eps^-2", "--eps", "2^-8", "--expr-deriv-check",
        )
        assert code == 0

    def test_deriv_check_reports_mismatch(self, capsys):
        # sin(1e6 x) turns faster than the finite-difference step resolves
        code, out, _ = run_cli(
            capsys, "run", "--expr", "x^2 + sin(1000000*x)", "--x0", "0.5", "--threshold",
            "finverse:eps^-2", "--eps", "2^-8", "--expr-deriv-check",
        )
        assert code == 2
        assert out.startswith("derivative mismatch at x=0.5: ")
        assert "tau_hat=" not in out

    def test_expr_bprimelog_prints_tail_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--expr", "exp(x^2)", "--x0", "1", "--threshold", "bprimelog",
            "--eps", "2^-8",
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["problem"] == "expr" and kv["steps"] == "219"
        assert float(kv["tail_bound"]) > 0 and "reference" not in kv

    def test_expr_arclength_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--expr", "x^2", "--x0", "0.5", "--threshold", "finverse:eps^-2",
            "--method", "arclength", "--eps", "2^-4",
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["method"] == "arclength" and "tail_bound" in kv
        assert abs(float(kv["tau_hat"]) - 2.0) <= 2.0**-4


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "run", "--problem", "sq", "--method", "bogus", "--eps", "1")
        assert code == 1
        assert "usage error" in err

    def test_unknown_problem_is_1(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--problem", "zzz", "--eps", "0.1")
        assert code == 1

    def test_assumption_violation_is_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--expr", "x^2 - 10*x", "--x0", "1",
            "--threshold", "radius:eps^-1", "--samples", "200",
        )
        assert code == 2
        assert "ok=false" in out

    def test_each_sampled_failure_printed_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--expr", "x^2 - 10*x", "--x0", "1",
            "--threshold", "radius:eps^-1", "--samples", "200",
        )
        assert code == 2
        for detail in ("b(1.0) = -9.0", "b'(1.0) = -8.0"):
            assert out.count(detail) == 1, detail
        assert "violation=" not in out

    def test_zero_start_is_a_violation_not_a_crash(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--expr", "x^2", "--x0", "0",
            "--threshold", "radius:eps^-1", "--samples", "50",
        )
        assert code == 2
        assert "violation=x0 must be positive" in out and "ok=false" in out
        assert "status=untestable" in out

    def test_clean_check_is_0(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--problem", "sq", "--samples", "300")
        assert code == 0
        assert "ok=true" in out

    def test_solver_error_is_3(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", "sq", "--method", "adaptive",
            "--eps", "2^-12", "--max-steps", "50",
        )
        assert code == 3
        assert "StepBudgetExceeded" in err

    def test_rescaling_over_budget_is_3(self, capsys):
        # M just above 1 needs about 6e9 cycles, over the default 2^30-step budget
        with time_limit(5):
            code, _, err = run_cli(
                capsys, "run", "--problem", "sq", "--method", "rescaling",
                "--M", "1.000000001", "--eps", "2^-8",
            )
        assert code == 3
        assert "StepBudgetExceeded" in err

    def test_nan_state_is_3(self, capsys):
        # exp(exp(x)) / exp(exp(x)) is inf / inf = NaN once exp(x) > 709.8, below r = 256
        code, _, err = run_cli(
            capsys, "run", "--expr", "x^2 * (exp(exp(x)) / exp(exp(x)))", "--x0", "0.5",
            "--threshold", "radius:eps^-1", "--eps", "2^-8",
        )
        assert code == 3
        assert "Overflow: state is nan after 748 steps" in err

    def test_nan_field_at_radius_is_3_for_uniform(self, capsys):
        # the same field is NaN at r = 256, so the uniform law has no step
        code, _, err = run_cli(
            capsys, "run", "--expr", "x^2 * (exp(exp(x)) / exp(exp(x)))", "--x0", "0.5",
            "--threshold", "radius:eps^-1", "--eps", "2^-8", "--method", "uniform",
        )
        assert code == 3
        assert "NonincreasingField: need b(r) > b(x0), got b(256.0) = nan" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--problem", "sq", "--eps", "0"),
            ("run", "--problem", "sq", "--eps", "-1"),
            ("run", "--problem", "sq", "--eps", "0^-1"),
            ("run", "--problem", "sq", "--eps", "10^400"),
            ("run", "--problem", "sq", "--eps", "nan"),
            ("run", "--problem", "sq", "--eps", "-2^0.5"),
            ("run", "--problem", "sq", "--eps", "2^-8", "--max-steps", "0"),
            ("check", "--problem", "sq", "--samples", "0"),
            ("run", "--problem", "rd", "--m", "1", "--eps", "2^-8"),
            ("run", "--expr", "x^2", "--x0", "-1", "--threshold", "radius:eps^-1",
             "--eps", "2^-8"),
            ("run", "--expr", "x^2", "--x0", "0.5", "--k", "0.9", "--threshold",
             "radius:eps^-1", "--eps", "2^-8"),
            ("run", "--expr", "x^2", "--threshold", "finverse:eps^-2", "--eps", "2^-8",
             "--expr-deriv-check"),
            ("run", "--problem", "sq", "--method", "rescaling", "--M", "0.5", "--eps", "2^-8"),
            # M = inf made the rescaling step zero, so this run never ended
            ("run", "--problem", "sq", "--method", "rescaling", "--M", "inf", "--eps", "2^-8"),
            ("run", "--problem", "sq", "--method", "rescaling", "--M", "1e300", "--eps", "2^-8"),
            ("run", "--problem", "sq", "--method", "arclength", "--rk-tol", "0", "--eps", "2^-8"),
            # an infinite tolerance switches off error control (49 evaluations, error 2 eps)
            ("run", "--problem", "sq", "--method", "arclength", "--rk-tol", "inf", "--eps", "2^-8"),
            ("rd-study", "--mode", "vary-m", "--m-grid", "4,x", "--out", "o.csv"),
            # an option that the rd-study mode does not read
            ("rd-study", "--mode", "vary-m", "--m", "8", "--eps-start", "2^-3",
             "--m-grid", "4", "--methods", "adaptive", "--eps", "2^-8", "--out", "o.csv"),
            ("rd-study", "--mode", "vary-eps", "--m", "4", "--m-grid", "4,8",
             "--methods", "adaptive", "--out", "o.csv"),
            # an option that the method does not read
            ("run", "--problem", "sq", "--method", "adaptive", "--rk-tol", "1e-3",
             "--eps", "2^-8"),
            ("run", "--problem", "sq", "--method", "arclength", "--M", "9", "--eps", "2^-8"),
            ("run", "--problem", "sq", "--expr-deriv-check", "--eps", "2^-8"),
            # the baselines record no trace
            ("run", "--problem", "sq", "--method", "arclength", "--eps", "2^-6",
             "--trace", "t.csv"),
            ("run", "--problem", "sq", "--method", "rescaling", "--eps", "2^-6",
             "--trace", "t.csv"),
            # a method id that the entry's table does not hold
            ("run", "--problem", "coupled", "--method", "rescaling", "--eps", "2^-8"),
            ("run", "--expr", "x^2", "--x0", "0.5", "--threshold", "finverse:eps^-2",
             "--method", "foo", "--eps", "2^-8"),
            ("run", "--expr", "x^2", "--x0", "0.5", "--threshold", "bogus", "--eps", "2^-8"),
            # the grid runs from --eps-start down to --eps-stop
            ("study", "--problem", "sq", "--methods", "adaptive",
             "--eps-start", "2^-8", "--eps-stop", "2^-6", "--out", "o.csv"),
            # an exact reference has no tolerance to override
            ("study", "--problem", "sq", "--methods", "adaptive", "--eps-start", "2^-4",
             "--eps-stop", "2^-6", "--eps-ref", "2^-20", "--out", "s.csv"),
            # rd's pseudo reference is the study's own finest run; study needs --eps-ref
            ("study", "--problem", "rd", "--m", "4", "--methods", "adaptive",
             "--eps-start", "2^-4", "--eps-stop", "2^-6", "--out", "o.csv"),
            # an input that the selected problem does not read
            ("run", "--problem", "sq", "--c", "0.5", "--eps", "2^-8"),
            ("run", "--problem", "sq", "--x0", "0.3", "--eps", "2^-8"),
            ("check", "--problem", "sq", "--k", "1.2"),
            ("run", "--expr", "x^2", "--x0", "0.5", "--threshold", "finverse:eps^-2",
             "--m", "8", "--eps", "2^-8"),
            # exactly one of --problem / --expr
            ("run", "--problem", "sq", "--expr", "x^2", "--eps", "2^-8"),
            ("check", "--samples", "10"),
            # the radius expression leaves its domain (division by zero)
            ("run", "--expr", "x^2", "--x0", "0.5", "--threshold", "radius:1/(eps-eps)",
             "--eps", "2^-4"),
            # the one cell fails (UniformND needs r > e), so the chart has nothing to plot
            ("study", "--problem", "uncoupled", "--methods", "log-uniform",
             "--eps-start", "0.15", "--eps-stop", "0.15", "--out", "o.csv", "--svg", "e.svg"),
            # an output path in a directory that does not exist
            ("study", "--problem", "sq", "--methods", "adaptive", "--eps-start", "2^-4",
             "--eps-stop", "2^-6", "--out", "missing/o.csv"),
            ("run", "--problem", "sq", "--eps", "2^-4", "--trace", "missing/t.csv"),
            # input nested deeper than the parser's bound, in b, in a threshold, and
            # as a flat sum of products whose derivative would recurse 1500 deep
            ("run", "--expr", "(" * 300 + "x" + ")" * 300 + "^2", "--x0", "0.5",
             "--threshold", "finverse:eps^-2", "--eps", "2^-4"),
            ("run", "--expr", "x^2", "--x0", "0.5",
             "--threshold", "finverse:" + "(" * 300 + "eps" + ")" * 300 + "^-2", "--eps", "2^-4"),
            ("check", "--expr", "+".join(["x*x"] * 1500), "--x0", "0.5",
             "--threshold", "bprimelog"),
            # the vary-m grid must increase, as the successive differences assume
            ("rd-study", "--mode", "vary-m", "--m-grid", "8,4", "--methods", "adaptive",
             "--eps", "2^-8", "--out", "o.csv"),
            # a method given twice, whose cells would run twice
            ("study", "--problem", "xlog_c", "--methods", "adaptive,adaptive",
             "--eps-start", "2^-3", "--eps-stop", "2^-6", "--out", "o.csv"),
            ("rd-study", "--mode", "vary-m", "--methods", "adaptive,adaptive", "--out", "o.csv"),
            # an unknown method id stops the study before its first cell
            ("rd-study", "--mode", "vary-eps", "--methods", "adaptive,bogus", "--out", "o.csv"),
            # exp(800) is inf, where sin and cos are undefined
            ("run", "--expr", "x^2 + sin(exp(x))", "--x0", "800", "--threshold", "radius:1/eps",
             "--eps", "2^-12"),
        ],
    )
    def test_edge_inputs_are_usage_errors(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # a case that gets as far as writing writes here
        with time_limit(20):
            code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            # the root solve probes b where sqrt(x - 1) is undefined, which has no bracket
            (("run", "--expr", "sqrt(x-1)", "--x0", "0.5", "--threshold", "finverse:eps^-2",
              "--eps", "2^-4"), 3, "solver error: BracketFailure"),
            (("check", "--expr", "sqrt(x-1)", "--x0", "0.5", "--threshold", "bprimelog"),
             2, "check='b positive' status=pass detail='partially untestable from x=0.5'"),
            (("run", "--problem", "coupled", "--method", "uniform", "--eps", "0.08"),
             3, "uniform n-d law needs r > e, got 2.5 at eps = 0.08"),
            # eps^-2 overflows, so the target is inf and no step is taken
            (("run", "--problem", "sq", "--eps", "1e-200"),
             3, "BracketFailure: target inf is not a positive finite value"),
            # the radius exponent overflows before exp does
            (("run", "--problem", "slowlog_c", "--c", "1e-9", "--eps", "2^-4"),
             0, "warning=radius capped at 1e+250"),
            # inf - inf is nan, which is not the cap
            (("run", "--expr", "x^2", "--x0", "0.5", "--threshold",
              "radius:exp(1000)-exp(1000)", "--eps", "2^-6"),
             3, "ExplicitRadius gives radius nan at eps = 0.015625"),
            # the one cell fails (UniformND needs r > e) and is a failed row
            (("study", "--problem", "uncoupled", "--methods", "log-uniform",
              "--eps-start", "0.15", "--eps-stop", "0.15", "--out", "o.csv"), 0, "csv=o.csv"),
        ],
        ids=["finverse-domain", "check-domain", "uniform-radius-below-e", "finverse-overflow",
             "lognd-overflow", "nan-radius", "study-failed-row"],
    )
    def test_edge_runs_exit_without_traceback(self, capsys, tmp_path, monkeypatch, argv,
                                              code, expected):
        monkeypatch.chdir(tmp_path)
        with time_limit(20):
            got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert expected in out + err
        assert ("radius capped" in out) == ("radius capped" in expected)
        assert "Traceback" not in err and err.count("\n") <= 1


@pytest.mark.parametrize(
    "argv",
    [
        ("study", "--problem", "sq", "--methods", "adaptive", "--eps-start", "2^-4",
         "--eps-stop", "2^-6", "--out", "missing/o.csv"),
        ("study", "--problem", "sq", "--methods", "adaptive", "--eps-start", "2^-4",
         "--eps-stop", "2^-6", "--out", "o.csv", "--svg", "missing/e.svg"),
        ("study", "--problem", "sq", "--methods", "adaptive", "--eps-start", "2^-4",
         "--eps-stop", "2^-6", "--out", "o.csv", "--svg-cost", "missing/c.svg"),
        ("rd-study", "--mode", "vary-eps", "--out", "missing/o.csv"),
    ],
    ids=["study-out", "study-svg", "study-svg-cost", "rd-study-out"],
)
def test_missing_output_directory_exits_before_any_cell(capsys, tmp_path, monkeypatch, argv):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "run_method", no_cell)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error: cannot write ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_cell_warnings_are_printed_and_written(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "study", "--problem", "xlog_c", "--methods", "adaptive",
                           "--eps-start", "2^-2", "--eps-stop", "2^-5", "--out", "x.csv")
    assert code == 0
    capped = "radius capped at 1e+250 (float64 range); tail bound is no longer <= eps"
    assert [line for line in out.splitlines() if line.startswith("warning=")] == [
        f"warning=adaptive eps=0.0625: {capped}", f"warning=adaptive eps=0.03125: {capped}"]
    assert [line for line in out.splitlines() if line.startswith("note=")] == [
        "note=adaptive: its slopes are fitted over 2 cells at the capped radius 1e+250"]
    rows = (tmp_path / "x.csv").read_text().splitlines()
    assert rows[0].endswith(",failed,warnings")
    assert [row.endswith(f",,{capped}") for row in rows[1:]] == [False, False, True, True]


def test_failed_cells_are_printed_and_written(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("study", "--problem", "uncoupled", "--methods", "log-uniform,adaptive",
            "--eps-start", "0.15", "--eps-stop", "0.0375", "--out", "o.csv")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    reason = "SolverError: uniform n-d law needs r > e, got 2.581988897471611 at eps = 0.15"
    assert [line for line in out.splitlines() if line.startswith("failed=")] == [
        f"failed=log-uniform eps=0.15: {reason}"
    ]
    assert f',"{reason}",\n' in (tmp_path / "o.csv").read_text()
    # the one cell fails, so the chart has nothing to plot and the study writes nothing
    code, _, err = run_cli(
        capsys, "study", "--problem", "uncoupled", "--methods", "log-uniform",
        "--eps-start", "0.15", "--eps-stop", "0.15", "--out", "p.csv", "--svg", "e.svg",
    )
    assert code == 1 and "nothing to plot" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv"]


def test_study_writes_outputs(capsys, tmp_path):
    csv = tmp_path / "study.csv"
    svg = tmp_path / "err.svg"
    code, out, _ = run_cli(
        capsys, "study", "--problem", "sq", "--methods", "adaptive,uniform",
        "--eps-start", "2^-6", "--eps-stop", "2^-10",
        "--out", str(csv), "--svg", str(svg),
    )
    assert code == 0
    assert csv.exists() and svg.exists()
    kv = parse_kv(out)
    assert "error_slope[adaptive]" in kv


def test_rd_study_writes_table(capsys, tmp_path):
    csv = tmp_path / "rd.csv"
    code, _, _ = run_cli(
        capsys, "rd-study", "--mode", "vary-eps", "--m", "4",
        "--eps-start", "2^-8", "--eps-stop", "2^-10",
        "--methods", "adaptive", "--out", str(csv),
    )
    assert code == 0
    header = csv.read_text().split("\n")[0]
    assert header.endswith(",m,succ_diff_log2")


@pytest.mark.parametrize("pid", catalog.list_ids())
def test_check_prints_plain_floats(capsys, pid):
    # numpy scalars format as "np.float64(...)"; detail strings carry plain floats
    code, out, _ = run_cli(capsys, "check", "--problem", pid, "--samples", "200")
    assert code in (0, 2)
    assert not [line for line in out.splitlines() if "np.float64(" in line]


def test_check_seed_defaults_to_one(capsys, monkeypatch):
    seeds = []
    real = cli.check_assumptions

    def recording(problem, samples, seed):
        seeds.append(seed)
        return real(problem, samples=samples, seed=seed)

    monkeypatch.setattr(cli, "check_assumptions", recording)
    monkeypatch.setenv("BLOWUP_SEED", "7")  # no longer read
    code, _, _ = run_cli(capsys, "check", "--problem", "uncoupled", "--samples", "200")
    assert code == 0
    code, _, _ = run_cli(
        capsys, "check", "--problem", "uncoupled", "--samples", "200", "--seed", "3"
    )
    assert code == 0
    assert seeds == [1, 3]
