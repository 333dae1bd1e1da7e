import math

import pytest

from blowup import catalog, cli
from blowup.cli import main, parse_eps


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        "pid,method",
        [(pid, m) for pid in catalog.IDS
         for m in [*catalog.get(pid).methods, "arclength", *(["rescaling"] * (pid == "sq"))]],
    )
    def test_every_catalog_method_runs(self, capsys, pid, method):
        # run takes every id the catalog entry lists, plus the baselines
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
        ],
    )
    def test_edge_inputs_are_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error: ")


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
