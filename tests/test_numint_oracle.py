"""The numeric layer checked against closed forms, a reference loop and a
fixture of trajectories.

At alpha = -1/2, S2 keeps x = 0 invariant, and on that line y = u'/u with
u'' = -(t/2) u, so u is a combination of Ai(c t) and Bi(c t) for
c = -2^(-1/3).  mpmath evaluates it along the same complex paths the
integrator takes.

``invariant_drift`` evaluates P once over the sample arrays; the tests
compare it with the per-sample ``eval_complex`` loop it replaced, kept
here as the reference, within 8 eps times the largest sum of absolute
term values.

The fixture ``data/trajectories.txt`` holds, for each named run below,
the sha256 of ``to_csv()``, the status and ``t_est``.  The runs cover
the ``flow`` benchmark's paths, long complex paths, movable poles,
denominators in t and the step cap.  Regenerate it with

    PYTHONPATH=src python tests/test_numint_oracle.py > tests/data/trajectories.txt

only when a change is meant to alter trajectories.
"""

import hashlib
import pathlib
import sys
import warnings
from fractions import Fraction as F

import mpmath as mp
import pytest

from painlevekit import _accel, catalog, numint
from painlevekit.field import PhaseRational, SymbolTable, parse
from painlevekit.numint import Trajectory, integrate, invariant_drift

FIXTURE = pathlib.Path(__file__).parent / "data" / "trajectories.txt"
EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# named runs

# the paths of the flow benchmark (perfbench/workloads.py, FLOW_PATHS)
FLOW_PATHS = (
    (1, 1.5 + 0.5j, 2),
    (1, 1.5 - 0.5j, 2.2),
    (1, 1.4 + 0.8j, 2 + 0.8j),
    (1, 1.3 + 0.6j, 1.9 + 0.2j, 2.3),
    (1, 1.2 - 0.7j, 1.9 - 0.7j),
)

_FAMILIES = {
    "S2-1/3": ("S2", {"alpha": F(1, 3)}),
    "S2-line": ("S2", {"alpha": F(-1, 2)}),
    "S2-parabola": ("S2", {"alpha": F(1, 2)}),
    "P1": ("P1", {}),
    "S4": ("S4", {"v1": F(1, 3), "v2": F(-2, 5), "v3": F(1, 15)}),
    "S3prime": ("S3prime", {"v1": F(1, 3), "v2": F(1, 5)}),
    "S5": ("S5", {"v1": F(1, 3), "v2": F(2, 5), "v3": F(-1, 7), "v4": F(-62, 105)}),
    "S6": ("S6", {"a1": F(1, 3), "a2": F(2, 5), "a3": F(3, 7), "a4": F(1, 4)}),
}


def _runs():
    """(name, family key, (t0, y0, x0), path, tol) of every fixture run."""
    runs = []
    for k, path in enumerate(FLOW_PATHS):
        t0 = path[0]
        for y0 in (0.21, -0.17):
            runs.append((f"flow-{k}-line-{y0}", "S2-line", (t0, y0, 0.0), path, 1e-12))
            runs.append((f"flow-{k}-parabola-{y0}", "S2-parabola",
                         (t0, y0, 2 * y0 * y0 + t0), path, 1e-12))
    runs += [
        ("S2-long-complex", "S2-1/3", (1, 0.3, 0.1), (1, 3 + 2j, 6, 2 - 1j), 1e-10),
        ("S2-line-real", "S2-line", (1, 0.3, 0.0), (1, 2), 1e-9),
        ("S2-line-vertical", "S2-line", (1, -0.25, -0.0), (1, 1 + 1j, 1), 1e-10),
        ("S2-huge-initial-value", "S2-1/3", (1, 1e300, 0), (1, 2), 1e-9),
        ("P1-pole", "P1", (0, 1, 1), (0, 5), 1e-9),
        ("P1-complex", "P1", (0, 0.1, 0.1), (0, 0.5 + 0.5j, 1.2), 1e-10),
        ("S4", "S4", (1, 0.3, 0.2), (1, 1.5 + 0.5j, 2), 1e-10),
        ("S3prime", "S3prime", (1, 0.3, 0.1), (1, 2 + 1j, 3), 1e-10),
        ("S3prime-pole", "S3prime", (1, 2.5, -1.5), (1, 4, 4 + 3j), 1e-9),
        ("S5", "S5", (1, 0.3, 0.2), (1, 1.5 - 0.5j, 2.5), 1e-10),
        ("S6", "S6", (2, 0.3, 0.2), (2, 2.5 + 0.5j, 3), 1e-10),
        ("S6-around-one", "S6", (0.5 + 0.5j, 0.4, 0.1), (0.5 + 0.5j, 1.5 + 0.5j, 1.5 - 0.5j), 1e-9),
    ]
    return runs


def _step_cap_run():
    # the run of test_step_cap_aborts_with_one_sample_per_step
    rhs = numint.compile_system(catalog.instantiate(*_FAMILIES["S2-parabola"]))
    ts, ys, xs, status, t_est = _accel.dopri5_path(_accel.compile_rhs(*rhs), [1, 3],
                                                   0.3, 1.18, 1e-12, maxsteps=50)
    assert status == _accel.SINGULARITY_ABORTED
    return Trajectory(zip(ts, ys, xs), numint.SINGULARITY_ABORTED, None, 1e-12, "S2", rhs)


def trajectories():
    """{name: Trajectory} for every fixture run."""
    insts = {key: catalog.instantiate(fam, params) for key, (fam, params) in _FAMILIES.items()}
    out = {name: integrate(insts[key], init, path, tol=tol)
           for name, key, init, path, tol in _runs()}
    out["S2-step-cap"] = _step_cap_run()
    return out


def fixture_text(trajs) -> str:
    lines = []
    for name, tr in trajs.items():
        digest = hashlib.sha256(tr.to_csv().encode()).hexdigest()
        lines.append(f"{name} {digest} {tr.status} {tr.t_est!r}\n")
    return "".join(lines)


@pytest.fixture(scope="module")
def trajs():
    return trajectories()


def test_trajectories_match_the_fixture(trajs):
    assert fixture_text(trajs) == FIXTURE.read_text()


def test_fixture_covers_poles_denominators_and_the_step_cap(trajs):
    statuses = {tr.status for tr in trajs.values()}
    assert statuses == {numint.COMPLETED, numint.POLE_DETECTED, numint.SINGULARITY_ABORTED}
    for name in ("S3prime", "S5", "S6"):
        den = trajs[name]._rhs[-1]
        assert len(den) > 1 and trajs[name].status == numint.COMPLETED


# ---------------------------------------------------------------------------
# invariant drift against the per-sample loop


def _reference_drift(traj, P):
    """The per-sample eval_complex loop, with the bound on its rounding."""
    radvals = numint._radical_values(P.table)
    named = {P.table.names[i]: v for i, v in radvals.items()}
    polys = (P.num, P.den) if isinstance(P, PhaseRational) else (P,)
    worst, scale = 0.0, 0.0
    for t, y, x in traj.samples:
        assign = dict(named, t=t)
        vals = [q.eval_complex(assign, x, y) for q in polys]
        sums = [sum(abs(c.eval_complex(assign) * x ** e[0] * y ** e[1])
                    for e, c in q.terms.items()) for q in polys]
        if len(polys) == 1:
            value, size = vals[0], sums[0]
        else:
            value = vals[0] / vals[1]
            size = (sums[0] + abs(value) * sums[1]) / abs(vals[1])
        worst = max(worst, abs(value))
        scale = max(scale, size)
    return worst, 8 * EPS * scale


def _assert_drift_matches(traj, P):
    want, bound = _reference_drift(traj, P)
    got = invariant_drift(traj, P)
    assert abs(got - want) <= bound, (got, want, bound)


def test_drift_matches_reference_on_fixture_trajectories(trajs):
    table = SymbolTable()
    polys = [parse(text, table) for text in
             ("x", "x - 2*y^2 - t", "3*x^2*y - t^2*y + x/(t + 7) - 1/2")]
    completed = [tr for tr in trajs.values() if tr.status == numint.COMPLETED]
    assert len(completed) >= 20
    for tr in completed:
        for P in polys:
            _assert_drift_matches(tr, P)


def test_drift_matches_reference_with_a_radical():
    red = catalog.reduce_parameters(
        "P5", {"alpha": 1, "beta": F(-1, 8), "gamma": 1, "delta": -2})
    tr = integrate(red.instance, (1, 0.4, 0.2), [1, 1 + 1j], tol=1e-8)
    P = parse("kappa1*x*y - y^2 + t*kappa1/3", red.instance.table)
    _assert_drift_matches(tr, P)


def test_drift_matches_reference_for_a_rational_with_t_in_its_denominator(trajs):
    tr = trajs["S2-long-complex"]
    table = catalog.instantiate(*_FAMILIES["S2-1/3"]).table
    P = parse("(x - y^2 + 1)/(t^2*y + x + 3)", table, allow_rational=True)
    assert isinstance(P, PhaseRational)
    _assert_drift_matches(tr, P)


# ---------------------------------------------------------------------------
# closed-form Airy solutions of S2 at alpha = -1/2 on x = 0

mp.mp.dps = 30
_C = -mp.cbrt(mp.mpf(1) / 2)


def _airy_u(t0, y0):
    """t -> (u(t), u'(t)) with u(t0) = 1 and u'(t0) = y0."""
    z0 = _C * mp.mpc(t0)
    A = mp.matrix([[mp.airyai(z0), mp.airybi(z0)],
                   [_C * mp.airyai(z0, 1), _C * mp.airybi(z0, 1)]])
    a, b = mp.lu_solve(A, mp.matrix([1, mp.mpc(y0)]))

    def u(t):
        z = _C * mp.mpc(t)
        return (a * mp.airyai(z) + b * mp.airybi(z),
                _C * (a * mp.airyai(z, 1) + b * mp.airybi(z, 1)))

    return u


@pytest.mark.parametrize("y0", [0.3, -0.2 + 0.1j])
@pytest.mark.parametrize("path", [(1, 1.5 + 0.5j, 2), (1, 2 + 1j, 3 - 0.5j, 2.5)])
def test_airy_endpoint_error_tracks_tol(y0, path):
    s2 = catalog.instantiate(*_FAMILIES["S2-line"])
    u = _airy_u(path[0], y0)
    uu, up = u(path[-1])
    y_ref = complex(up / uu)
    # one constant over six decades of tol: the global error is
    # proportional to tol (measured ratios 0.1 to 12)
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        tr = integrate(s2, (path[0], y0, 0), path, tol=tol)
        assert tr.status == numint.COMPLETED
        assert all(x == 0 for _, _, x in tr.samples)
        err = abs(tr.samples[-1][1] - y_ref)
        assert err <= 20 * tol * (1 + abs(y_ref)), (tol, err)


def test_airy_run_into_a_zero_of_u_is_a_pole():
    t0, y0 = 1, 0.3
    u = _airy_u(t0, y0)
    # y' = -y^2 - t/2 < 0 drives y to -inf where u has its first zero
    t_zero = complex(mp.findroot(lambda t: u(t)[0], 2.5))
    assert 1 < t_zero.real < 5 and abs(t_zero.imag) < 1e-20
    s2 = catalog.instantiate(*_FAMILIES["S2-line"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = integrate(s2, (t0, y0, 0), [t0, 5], tol=1e-10)
    assert tr.status == numint.POLE_DETECTED
    assert abs(tr.t_est - t_zero) < 1e-8
    # away from the pole, the samples follow u'/u
    t, y, _ = [s for s in tr.samples if s[0].real < t_zero.real - 0.5][-1]
    uu, up = u(t)
    assert abs(y - complex(up / uu)) <= 20 * 1e-10 * (1 + abs(y))


if __name__ == "__main__":
    sys.stdout.write(fixture_text(trajectories()))
