"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Short runs of every workload pass their checks, each checker rejects a
corrupted result, the flow ensembles stay clear of poles over their
whole range of initial values, and the benchmark refuses to run without
painlevekit's sources.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_passes_its_checks(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stdout
    assert res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _run("flow", 1)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    layers = {k: m["value"] for k, m in res["metrics"].items()}
    assert layers["accel.dopri5_calls"] == 4
    assert layers["numint.integrate_s"] > layers["accel.dopri5_s"] > 0
    assert layers["trace.overhead"] > 0


def test_traced_cli_run_reports_main_startup_and_overhead():
    proc = _run("cli", 1)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True and res["failed"] == 0
    layers = {k: m["value"] for k, m in res["metrics"].items()}
    assert layers["cli.main_s"] > 0 and layers["cli.startup_s"] > 0
    # from the in-process cli.main runs, which the tracer does reach
    assert layers["trace.overhead"] > 0


def test_filter_reference_kernel_adds_little_to_the_peak_resident_set():
    """The search workload's peak_rss_mb must come from painlevekit's
    filter, not from the host-speed kernel timed around its operations:
    that kernel runs in a helper process, which close() stops."""
    code = ("import resource, numpy, reference\n"
            "numpy.arange(10) * 2\n"
            "r0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "k = reference.Kernel('filter')\n"
            "t = [k.seconds() for _ in range(3)]\n"
            "helper = k.helper\n"
            "k.close()\n"
            "assert helper.returncode == 0 and min(t) > 0, t\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - r0)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) / 1024 <= 5, proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("search", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_search_check_rejects_a_wrong_cofactor():
    op = ("S2", {"alpha": F(-1, 2)})
    wl = workloads.Search(0)
    good = wl.summarise(op, wl.run(op))
    assert good == [("x", "2*y")]
    assert oracles.check_search(op, good) == []
    assert oracles.check_search(op, [("x", "-2*y")])


def test_search_check_rejects_a_certificate_at_a_generic_point():
    op = ("S2", {"alpha": F(1, 3)})
    assert oracles.check_search(op, []) == []
    # a true invariant of alpha = -1/2, reported at a generic point
    assert oracles.check_search(op, [("x", "2*y")])


def test_flow_check_rejects_an_endpoint_moved_by_ten_tol():
    wl = workloads.Flow(0)
    op = wl.round[0]
    good = wl.summarise(op, wl.run(op))
    assert oracles.check_flow(wl, op, good) == []
    sol = good["solutions"][2]
    y = sol["y_end"]
    sol["y_end"] = y + 10 * workloads.FLOW_TOL * (1 + abs(y))
    assert oracles.check_flow(wl, op, good)


def test_exact_check_rejects_a_flipped_verdict():
    wl = workloads.Exact(0)
    op = ("p3-to-p3prime", True)
    verdict, residuals = wl.summarise(op, wl.run(op))
    assert verdict == "Mismatch"
    assert oracles.check_exact(op, (verdict, residuals)) == []
    assert oracles.check_exact(op, ("Match", residuals))


def test_cli_check_rejects_a_flipped_verdict(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    op = ("classify", "--family", "P2", "--param", "alpha=3/2")
    wl = workloads.Cli(0)
    code, rep = wl.summarise(op, wl.run(op))
    assert code == 0 and rep["verdict"] == "NotStronglyMinimal"
    assert oracles.check_cli(op, (code, rep)) == []
    rep["verdict"] = "StronglyMinimal"
    assert oracles.check_cli(op, (code, rep))


@pytest.mark.parametrize("k", range(len(workloads.FLOW_PATHS)))
def test_flow_paths_clear_of_poles_over_the_whole_range(k):
    """Every initial value a seed can draw gives a completed solution that
    meets the closed form, so no seed makes a flow operation fail."""
    wl = workloads.Flow(0)
    path = [complex(w) for w in workloads.FLOW_PATHS[k]]
    lo, hi = workloads.FLOW_Y0_RANGE
    for i in range(13):
        y0 = lo + (hi - lo) * i / 12
        for curve, sign in oracles.SIGNS.items():
            traj = wl.integrate(curve, y0, path)
            assert traj.status == "Completed", (curve, y0)
            y_ref = oracles._airy(sign, path[0], y0)(path[-1])[0]
            err = abs(traj.samples[-1][1] - y_ref)
            bound = oracles.ENDPOINT_BOUND * workloads.FLOW_TOL * (1 + abs(y_ref))
            assert err <= bound / 2, (curve, y0, err)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert child.tail([0.1] * 39) is None
    q, v = child.tail([float(i) for i in range(40)])
    assert q == 75
    assert sum(1 for i in range(40) if i > v) >= 10
