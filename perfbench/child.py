"""One benchmark process: set-up, then at most one pass of one workload.

Usage: child.py MODE WORKLOAD SEED SPAWN_TIME OUT_DIR
  MODE is setup (set-up only), timed, traced, or probe (the micro-timing
  phase, which builds its own catalog entries and skips set-up); SPAWN_TIME is the
  time.monotonic() reading the parent took just before starting this process
  (CLOCK_MONOTONIC is shared by all processes), so set-up time includes
  interpreter start. The name of OUT_DIR is the pass id of a traced pass's spans.

A timed pass's wall_s is scaled to a fixed host speed (see hostspeed.py);
raw_wall_s is the plain reading. A traced pass runs no calibration kernel and
reports raw_wall_s only.

Prints one JSON object on its last line of standard output.
"""
from __future__ import annotations

import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started. Not ru_maxrss:
    Linux keeps the parent's resident set, which the vfork before exec shares,
    in this process's ru_maxrss, so it would read the benchmark driver's size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    mode, workload, seed, spawned, out_dir = argv
    seed = int(seed)

    import blowup  # noqa: F401 - set-up includes the package import
    import numpy
    import workloads

    if mode == "probe":  # builds its own entries: it times the first catalog.get
        import probe

        print(json.dumps({"metrics": probe.measure()}))
        return 0

    workloads.build_entries(workload)
    report = {"setup_s": time.monotonic() - float(spawned)}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    import hostspeed

    steps = workloads.plan(workload, seed, out_dir)
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(os.path.basename(out_dir))
        tracer.install()
        t0 = time.perf_counter()
        results = workloads.execute(steps, tracer)
        report["raw_wall_s"] = time.perf_counter() - t0
        tracer.uninstall()
    else:
        tracer = None
        with hostspeed.Sampler() as speed:
            t0 = time.perf_counter()
            results = workloads.execute(steps)
            raw_wall = time.perf_counter() - t0 - speed.spent
        report.update(raw_wall_s=raw_wall, wall_s=raw_wall * speed.scale(),
                      kernel_ms=1e3 * speed.mean_kernel_s(), kernel_calls=len(speed.samples))
    report["peak_rss_mb"] = peak_rss_mb()
    report["numpy"] = numpy.__version__
    report.update(workloads.summarize(workloads.collect(steps, results)))
    if tracer is not None:
        report["span_metrics"] = tracing.span_metrics(tracer.spans)
        report["counts"] = tracer.counts()
        with open(os.path.join(out_dir, "spans.json"), "w") as fh:
            json.dump({"spans": tracer.spans, "counts": report["counts"]}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
