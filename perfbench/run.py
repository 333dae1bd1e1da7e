"""Benchmark of the blowup library: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload scalar-sweep --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and layer_map.json): scalar-sweep, rd-table,
small-systems. Each is a closed loop: one caller in one process issues the
next public call only after the previous one returned.

--trace 0 repeats timed passes until --seconds have been spent and prints the
end-to-end metrics: wall_s and peak_rss_mb are medians over the passes,
setup_s is the median over every process started, steps and err_over_eps_max
come from the cells, which must be identical in every pass. wall_s and
setup_s are scaled to a fixed host speed, by a calibration kernel timed
alongside each pass and by a bare interpreter start beside each set-up
(hostspeed.py); the plain readings are printed as raw_wall_s and raw_setup_s.

--trace 1 does a fixed amount of work, whatever --seconds says: TRACE_PAIRS
pairs of an untraced and a traced pass (spans and counting wrappers), then the
micro-timing phase. It prints the per-layer metrics: span figures are medians
over the traced passes, and trace.overhead_s is the median of traced minus
untraced raw wall time.

Every pass runs in a fresh interpreter. harness._REFERENCE_CACHE and the
catalog's lru_caches live for the whole process, so a second pass in the same
process would skip the pseudo-reference runs and the catalog builds, and so
measure less work than a user's run does.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (attempted and failed count cells). The per-cell
(tau_hat.hex(), steps) list is written to perfbench/out/. The exit code is
nonzero when an output check fails or the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 3
TRACE_PAIRS = 2
MIN_SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 170.0
# A run must end well inside 180 s even when one pass is slow.
MAX_RUN_S = 140.0


class BenchError(Exception):
    """The benchmark could not run (not an output mismatch)."""


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["BLOWUP_SEED"] = str(seed)  # the CLI's solver seed
    return env


def child(mode: str, workload: str, seed: int, out_dir: Path) -> dict:
    """Start one fresh interpreter, wait for it, and return its report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           repr(time.monotonic()), str(out_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(seed), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def facts() -> dict:
    """Machine and source facts recorded with every run."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blowup").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }


def timed_run(workload: str, seed: int, seconds: float, out: Path) -> tuple[dict, dict]:
    """Passes until the time is spent; returns (metrics, record)."""
    import hostspeed

    passes, setups = [], []  # setups: (raw set-up time, bare start) pairs

    def with_bare_start(mode, sub):
        bare = hostspeed.bare_start_s(child_env(seed))
        rep = child(mode, workload, seed, out / sub)
        setups.append((rep["setup_s"], bare))
        return rep

    start = time.monotonic()
    while True:
        passes.append(with_bare_start("timed", "pass"))
        elapsed = time.monotonic() - start
        cycle = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and (elapsed + cycle > seconds
                                          or elapsed + cycle > MAX_RUN_S):
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        with_bare_start("setup", "setup")

    first = passes[0]
    problems = list(first["check_failures"])
    for i, rep in enumerate(passes[1:], 1):
        if rep["cells"] != first["cells"]:
            problems.append(f"pass {i} cells differ from pass 0 (bit-identity)")
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(hostspeed.REF_START_S * raw / bare
                                     for raw, bare in setups),
        "steps": first["steps"],
        "err_over_eps_max": first["err_over_eps_max"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    record = {
        "passes": len(passes),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "wall_s_each": [p["wall_s"] for p in passes],
        "raw_wall_s_each": [p["raw_wall_s"] for p in passes],
        "kernel_ms_each": [p["kernel_ms"] for p in passes],
        "kernel_calls_each": [p["kernel_calls"] for p in passes],
        "raw_setup_s_each": [raw for raw, _ in setups],
        "bare_start_s_each": [bare for _, bare in setups],
        "peak_rss_mb_each": [p["peak_rss_mb"] for p in passes],
        "numpy": first["numpy"],
        "check_failures": problems,
    }
    return metrics, _with_cells(record, first)


def traced_run(workload: str, seed: int, out: Path) -> tuple[dict, dict]:
    """TRACE_PAIRS untraced/traced pass pairs, then the micro-timing phase."""
    pairs = [(child("timed", workload, seed, out / f"untraced{i}"),
              child("traced", workload, seed, out / f"traced{i}")) for i in range(TRACE_PAIRS)]
    probe = child("probe", workload, seed, out / "probe")
    plain = pairs[0][0]
    problems = list(plain["check_failures"])
    for i, (untraced, traced) in enumerate(pairs):
        if untraced["cells"] != plain["cells"] or traced["cells"] != plain["cells"]:
            problems.append(f"pair {i}: cells differ from the first untraced pass")
    metrics = dict(probe["metrics"])
    for name in pairs[0][1]["span_metrics"]:
        metrics[name] = statistics.median(t["span_metrics"][name] for _, t in pairs)
    metrics["trace.overhead_s"] = statistics.median(
        t["raw_wall_s"] - u["raw_wall_s"] for u, t in pairs)
    metrics["thresholds.capped_cells"] = plain["capped_cells"]
    record = {
        "raw_wall_s_untraced": [u["raw_wall_s"] for u, _ in pairs],
        "raw_wall_s_traced": [t["raw_wall_s"] for _, t in pairs],
        "counts": pairs[0][1]["counts"],
        "numpy": plain["numpy"],
        "check_failures": problems,
    }
    return metrics, _with_cells(record, plain)


def _with_cells(record: dict, rep: dict) -> dict:
    record.update(cells=rep["cells"], cells_attempted=rep["cells_attempted"],
                  cells_failed=rep["cells_failed"], capped_cells=rep["capped_cells"],
                  failures=rep["failures"])
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        p.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}")
    if not (ROOT / "src" / "blowup" / "__init__.py").is_file():
        raise BenchError(f"no blowup sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    mapped = [n for e in json.loads((HERE / "layer_map.json").read_text())["map"]
              for n in e["metrics"]]
    if sorted(mapped) != sorted(m["name"] for m in spec["per_layer"]):
        raise BenchError("layer_map.json and the per_layer metrics of BENCHMARK.json differ")

    out = OUT / f"{args.workload}-seed{args.seed}"
    record = facts()
    if args.trace:
        metrics, run = traced_run(args.workload, args.seed, out)
    else:
        metrics, run = timed_run(args.workload, args.seed, args.seconds, out)
    record.update(run)
    record["loadavg_end"] = os.getloadavg()
    if set(metrics) != set(units):
        raise BenchError(f"measured metrics {sorted(set(metrics) ^ set(units))} do not "
                         "match BENCHMARK.json")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value!r}")

    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    suffix = f"-trace{args.trace}"
    (out / f"run{suffix}.json").write_text(json.dumps(record, indent=1))
    (out / f"cells{suffix}.json").write_text(json.dumps(record["cells"]))

    correct = not record["check_failures"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for key in ("git_sha", "src_sha256", "nproc", "python", "numpy",
                "loadavg_start", "loadavg_end", "passes"):
        if key in record:
            print(f"{key}={record[key]}")
    for name in units:
        print(f"{name:56s} {metrics[name]:>14.6g} {units[name]}")
    for name in ("raw_wall_s", "raw_setup_s"):
        if name in record:
            print(f"{name + ' (not scaled to the reference host speed)':56s} "
                  f"{record[name]:>14.6g} s")
    print(f"{'cells':56s} {record['cells_attempted']:>14d} count")
    print(f"{'cells_failed':56s} {record['cells_failed']:>14d} count")
    print(f"{'capped_cells (radius = RADIUS_CAP)':56s} {record['capped_cells']:>14d} count")
    for line in record["failures"]:
        print(f"failed: {line}")
    for line in record["check_failures"]:
        print(f"CHECK FAILED: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["cells_attempted"],
        "failed": record["cells_failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
