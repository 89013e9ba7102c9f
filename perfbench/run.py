"""painlevekit benchmark: one workload, one run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: search, exact, flow, cli
(see perfbench/README.md).  Every workload process is fresh, with
painlevekit's sources from src/ on PYTHONPATH, BLAS and OpenMP held to
one thread and PYTHONHASHSEED fixed.

--trace 0 measures the end-to-end metrics.  The set-up time is the
median over SETUP_PROCESSES[workload] processes, more where set-up is
cheap; the timed phase runs in the last of them.  --trace 1 runs a
separate process that measures an untraced and a traced half and
reports the per-layer metrics with the tracing overhead.  Every result
is checked against computations made apart from painlevekit.  The last
line of standard output is one JSON object; the full record goes to
.perfbench/<workload>-seed<seed>-trace<trace>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "exact", "flow", "cli")
SETUP_PROCESSES = {"search": 3, "exact": 5, "flow": 7, "cli": 5}
DEADLINE_S = 170          # a run ends within this, whatever the workload
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_s", "s"), ("peak_rss_mb", "MB"))
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def layer_units():
    """Per-layer metric names and units, as listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def child(args, setup_only, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--launched", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(args, rec):
    env = rec["env"]
    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{rec['attempted']} operations ({rec['ops_per_round']} a round), "
          f"{rec['failed']} failed, correct {rec['correct']}")
    print("env: python {python}, numpy {numpy}, blas {blas}, backend {backend} "
          "(HAS_NUMBA={HAS_NUMBA}), nproc {nproc} ({cpus_usable} usable, held "
          "to {affinity}), "
          "{threads}".format(**env))
    for line in rec["errors"] + rec["problems"]:
        print(f"  ! {line}")
    raw = rec.get("raw", {})
    for name, m in rec["metrics"].items():
        note = f"   (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        t, t_raw = rec["latency_tail"], raw["latency_tail"]
        print("  latency_tail_s                       " + (
            f"{t[1]:.6g} s   (raw {t_raw[1]:.6g}; p{t[0]} of "
            f"{rec['attempted']} operations)" if t else
            f"n/a ({rec['attempted']} operations, a tail needs 40)"))


def main():
    ap = argparse.ArgumentParser(description="painlevekit benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "painlevekit" / "__init__.py").is_file():
        raise SystemExit(f"no painlevekit sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        rec = child(args, False, deadline)
        units = layer_units()
        rec["metrics"] = {k: {"value": v, "unit": units[k]}
                          for k, v in rec["layers"].items()}
    else:
        setups = [child(args, True, deadline)
                  for _ in range(SETUP_PROCESSES[args.workload] - 1)]
        rec = child(args, False, deadline)
        setups.append(rec)
        rec["setup_runs"] = [(r["setup_s"], r["setup_raw_s"]) for r in setups]
        rec["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        rec["raw"]["setup_s"] = statistics.median(r["setup_raw_s"] for r in setups)
        rec["metrics"] = {k: {"value": rec[k], "unit": u} for k, u in END_TO_END}

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1))
    report(args, rec)
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))


if __name__ == "__main__":
    main()
