"""One workload process: set up, run whole rounds for a while, check.

    python3 perfbench/child.py --workload search --seed 1 --seconds 20 \
        --trace 0 --launched <time.monotonic() of the parent at launch>

run.py starts it with painlevekit's sources on PYTHONPATH, BLAS and
OpenMP held to one thread and a fixed PYTHONHASHSEED.  It prints one
JSON line.  With --setup-only it stops after the warm-up operation and
reports only its set-up time.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PYTHONHASHSEED")
TAIL_MIN_OPS = 40   # below this a tail percentile has under ten samples past it


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, or None when there are fewer than TAIL_MIN_OPS."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    q = 100 * (n - 10) // n
    return q, statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


class Phase:
    """Whole rounds of a workload: raw latencies, the host-speed scale of
    each, the reference kernel's times around them, the time of each
    `after` call, distinct results and errors."""

    def __init__(self):
        self.latencies, self.scales, self.after_s, self.errors = [], [], [], []
        self.kernel_s = []
        self.results = {}   # identical results of a repeated op kept once

    @property
    def busy(self):
        return sum(self.latencies)

    def scaled(self):
        return [t * f for t, f in zip(self.latencies, self.scales)]


def timed_phase(wl, kernel, seconds, after=None):
    """Whole rounds until the operations have been busy for `seconds`.

    Each latency gets the mean host-speed scale of the workload's
    reference kernel timed just before and just after it (see
    reference.py).  `after(op)`, if given, runs untimed after each
    operation and its own time is kept apart.
    """
    phase = Phase()
    nominal = reference.NOMINAL_S[kernel.kind]
    phase.kernel_s.append(kernel.seconds())
    while True:
        for op in wl.round:
            t0 = time.perf_counter()
            try:
                raw, error = wl.run(op), None
            except Exception as exc:   # counted as failed, the run goes on
                raw, error = None, f"{type(exc).__name__}: {exc}"
            phase.latencies.append(time.perf_counter() - t0)
            phase.kernel_s.append(kernel.seconds())
            phase.scales.append(
                (nominal / phase.kernel_s[-2] + nominal / phase.kernel_s[-1]) / 2)
            if error:
                phase.errors.append(f"{op}: {error}")
            else:
                summary = wl.summarise(op, raw)
                phase.results.setdefault((repr(op), repr(summary)), (op, summary))
            if after is not None:
                t0 = time.perf_counter()
                after(op)
                phase.after_s.append(time.perf_counter() - t0)
        if phase.busy >= seconds:
            return phase


def check(wl, phases):
    """Wrong results among the distinct results of the phases."""
    problems, seen = [], set()
    for phase in phases:
        for key, (op, summary) in phase.results.items():
            if key not in seen:
                seen.add(key)
                problems += wl.check(op, summary)
    return problems


def environment(seed, cpus_usable):
    import numpy
    from painlevekit import _accel

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": "numba" if _accel.HAS_NUMBA else "numpy",
        "HAS_NUMBA": _accel.HAS_NUMBA,
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def import_seconds(reps=3):
    """Median time of `import painlevekit.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import painlevekit.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(reps))


def traced_phases(wl, kernel, seconds):
    """An untraced and a traced half; per-layer metrics from the second.

    trace.overhead is the traced half's mean operation time over the
    untraced half's.  On cli the operations are subprocesses, which the
    tracer does not reach, so there it compares the in-process
    cli.main(argv) runs of the two halves instead.
    """
    import layers
    from painlevekit import cli

    after = None
    if wl.name == "cli":
        def after(op):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(wl.argv(op))
    base = timed_phase(wl, kernel, seconds / 2, after)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = timed_phase(wl, kernel, seconds / 2, after)
    finally:
        tracer.uninstall()
    n = len(traced.latencies)
    metrics = tracer.metrics(n)
    main_s = tracer.time["cli.main"]
    metrics["cli.startup_s"] = (traced.busy - main_s) / n if main_s else 0.0
    metrics["cli.import_s"] = import_seconds()
    if after is not None:
        metrics["trace.overhead"] = (statistics.mean(traced.after_s)
                                     / statistics.mean(base.after_s))
    else:
        metrics["trace.overhead"] = (statistics.mean(traced.scaled())
                                     / statistics.mean(base.scaled()))
    return [base, traced], metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads

    cpus_usable = len(os.sched_getaffinity(0))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.summarise(wl.warmup, wl.run(wl.warmup))   # untimed warm-up
    setup_raw = time.monotonic() - args.launched
    with reference.Kernel(wl.reference) as kernel:
        scale = statistics.median(kernel.scale() for _ in range(3))
        out = {"setup_raw_s": setup_raw, "setup_s": setup_raw * scale}
        if args.setup_only:
            print(json.dumps(out))
            return
        if args.trace:
            phases, out["layers"] = traced_phases(wl, kernel, args.seconds)
        else:
            phases = [timed_phase(wl, kernel, args.seconds)]

    if not args.trace:
        # the peak before sympy and mpmath arrive; for cli the peak of the
        # command-line processes, which is what its users see
        who = (resource.RUSAGE_CHILDREN if wl.name == "cli"
               else resource.RUSAGE_SELF)
        p = phases[0]
        scaled = p.scaled()
        out.update({
            "ops_per_s": len(scaled) / sum(scaled),
            "latency_p50_s": statistics.median(scaled),
            "latency_tail": tail(scaled),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "raw": {"ops_per_s": len(p.latencies) / p.busy,
                    "latency_p50_s": statistics.median(p.latencies),
                    "latency_tail": tail(p.latencies)},
            "latencies_s": p.latencies, "scales": p.scales,
            "kernel_s": p.kernel_s,
        })
    errors = [e for p in phases for e in p.errors]
    problems = check(wl, phases)
    out.update({
        "workload": wl.name, "attempted": sum(len(p.latencies) for p in phases),
        "failed": len(errors), "correct": not problems,
        "errors": errors[:20], "problems": problems[:20],
        "env": environment(args.seed, cpus_usable),
        "ops_per_round": len(wl.round),
    })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
