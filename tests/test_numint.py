import itertools
import warnings
from fractions import Fraction as F

import pytest

from painlevekit import _accel, catalog, numint
from painlevekit.errors import (ConstraintError, InsufficientSamplesError,
                                NonNumericError, PathError)
from painlevekit.field import SymbolTable, parse
from painlevekit.numint import (PathSpec, Trajectory, fixed_singularities,
                                integrate, invariant_drift, relation_probe)


def _s2(alpha=F(-1, 2)):
    return catalog.instantiate("S2", {"alpha": alpha})


# -- paths --------------------------------------------------------------------


def test_pathspec_basics():
    p = PathSpec([1, 2 + 1j])
    assert p.waypoints == (1 + 0j, 2 + 1j)
    assert p.segments() == [(1 + 0j, 2 + 1j)]
    assert len(PathSpec([3]).segments()) == 0


def test_pathspec_parse():
    p = PathSpec.parse("1, 1+1i, 2i")
    assert p.waypoints == (1 + 0j, 1 + 1j, 2j)


def test_pathspec_rejects_bad_input():
    with pytest.raises(PathError):
        PathSpec([])
    with pytest.raises(PathError):
        PathSpec([1, 1, 2])
    with pytest.raises(PathError):
        PathSpec.parse("1,,2")
    with pytest.raises(PathError):
        PathSpec.parse("1,notanumber")


def test_fixed_singularities_table():
    assert fixed_singularities("P6") == (0j, 1 + 0j)
    assert fixed_singularities("S5") == (0j,)
    assert fixed_singularities("S2") == ()


def test_path_must_avoid_fixed_singularities():
    s6 = catalog.instantiate(
        "S6", {"a1": 1, "a2": F(1, 3), "a3": 0, "a4": F(1, 2)})
    with pytest.raises(PathError, match="waypoint"):
        integrate(s6, (1, 0.3, 0.1), PathSpec([1, 2]))
    # segment 0.5 -> 2 crosses t = 1 even though no waypoint sits there
    with pytest.raises(PathError, match="passes through"):
        integrate(s6, (0.5, 0.3, 0.1), PathSpec([0.5, 2]))


def test_s3prime_path_may_not_cross_zero():
    s3 = catalog.instantiate("S3prime", {"v1": F(1, 3), "v2": F(1, 5)})
    with pytest.raises(PathError):
        integrate(s3, (-1, 0.3, 0.1), PathSpec([-1, 1]))
    # the same crossing is fine for a family with no fixed singularity
    tr = integrate(_s2(), (-1, 0.3, 0), PathSpec([-1, 1]), tol=1e-8)
    assert tr.status == numint.COMPLETED


def test_initial_point_must_sit_on_first_waypoint():
    with pytest.raises(PathError, match="first waypoint"):
        integrate(_s2(), (0.5, 0.3, 0), PathSpec([1, 2]))


# -- integration --------------------------------------------------------------


def test_s2_integration_completes():
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-10)
    assert tr.status == numint.COMPLETED
    assert tr.t_est is None
    assert tr.tolerance == 1e-10
    assert tr.samples[0] == (1 + 0j, 0.3 + 0j, 0j)
    assert abs(tr.samples[-1][0] - 2) < 1e-14
    assert len(tr) > 2


def test_integrate_accepts_path_text_and_lists():
    a = integrate(_s2(), (1, 0.3, 0), "1,2", tol=1e-8)
    b = integrate(_s2(), (1, 0.3, 0), [1, 2], tol=1e-8)
    assert a.samples == b.samples


def test_zero_length_path_single_sample():
    tr = integrate(_s2(), (1, 0.3, 0.7), PathSpec([1]), tol=1e-9)
    assert tr.status == numint.COMPLETED
    assert tr.samples == ((1 + 0j, 0.3 + 0j, 0.7 + 0j),)


def test_tolerance_must_be_positive():
    with pytest.raises(ConstraintError):
        integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=0.0)


def test_second_order_only_family_cannot_integrate():
    p2 = catalog.instantiate("P2", {"alpha": F(1, 2)})
    with pytest.raises(ConstraintError, match="system"):
        integrate(p2, (1, 0.3, 0), PathSpec([1, 2]))


def test_transcendental_parameter_rejected():
    tab = SymbolTable()
    a = tab.declare_param("alpha")
    inst = catalog.instantiate("S2", {"alpha": a})
    with pytest.raises(NonNumericError):
        integrate(inst, (1, 0.3, 0), PathSpec([1, 2]))


def test_radical_parameters_are_numeric():
    # reduction introduces kappa1 = sqrt(2); the compiled system embeds it
    red = catalog.reduce_parameters(
        "P5", {"alpha": 1, "beta": F(-1, 8), "gamma": 1, "delta": -2})
    assert any(name == "kappa1" for name, _ in red.relations)
    tr = integrate(red.instance, (1, 0.4, 0.2), PathSpec([1, 1 + 1j]), tol=1e-8)
    assert tr.status == numint.COMPLETED


def test_p1_hits_movable_pole():
    p1 = catalog.instantiate("P1", {})
    tr = integrate(p1, (0, 1, 1), PathSpec([0, 5]), tol=1e-9)
    assert tr.status == numint.POLE_DETECTED
    assert tr.t_est is not None
    assert 0 < tr.t_est.real < 5
    assert abs(tr.t_est.imag) < 1e-6
    # samples stop at the pole estimate, not the far endpoint
    assert abs(tr.samples[-1][0] - tr.t_est) < 1e-6


@pytest.mark.parametrize("tol", [1e-30, 1e-200, 5e-324])
def test_unreachable_tolerance_aborts_without_a_pole(tol):
    # the step shrinks past the floor at each of these tolerances; from
    # 1e-200 on the error estimate overflows to inf, which rejects a step
    # but is no pole: |y| stays near 0.3
    tr = integrate(_s2(F(1, 2)), (1, 0.3, 0), PathSpec([1, 2]), tol=tol)
    assert tr.status == numint.SINGULARITY_ABORTED
    assert tr.t_est is None
    assert max(abs(y) for _, y, _ in tr.samples) < 1


def test_determinism_is_bit_for_bit():
    a = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-9)
    b = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-9)
    assert a.samples == b.samples
    assert a.to_csv() == b.to_csv()


def test_instance_compiles_its_system_once(monkeypatch):
    calls = []
    compile_system = numint.compile_system

    def counted(instance):
        calls.append(instance)
        return compile_system(instance)

    monkeypatch.setattr(numint, "compile_system", counted)
    inst, fresh = _s2(), _s2()
    a = integrate(inst, (1, 0.3, 0), PathSpec([1, 2]), tol=1e-9)
    b = integrate(inst, (1, 0.3, 0), PathSpec([1, 2]), tol=1e-9)
    c = integrate(fresh, (1, 0.3, 0), PathSpec([1, 2]), tol=1e-9)
    assert calls == [inst, fresh]
    assert a.samples == b.samples == c.samples
    # the cached system is shared by every later integration: one
    # immutable tuple of tuples
    compiled = inst._compiled
    assert isinstance(compiled, tuple)
    assert all(isinstance(part, tuple) for part in compiled)
    hash(compiled)   # raises for a mutable part at any depth
    integrate(inst, (1, 0.3, 0), PathSpec([1, 3]), tol=1e-9)
    assert inst._compiled is compiled


def test_step_cap_aborts_with_one_sample_per_step():
    # no step of this run is rejected before the 50th, so the capped run
    # keeps the start and one sample per step; uncapped, it goes further
    rhs = numint.compile_system(_s2(F(1, 2)))
    args = (_accel.compile_rhs(*rhs), [1, 3], 0.3, 1.18, 1e-12)
    ts, ys, xs, status, t_est = _accel.dopri5_path(*args, maxsteps=50)
    assert status == _accel.SINGULARITY_ABORTED
    assert len(ts) == len(ys) == len(xs) == 51
    assert t_est == ts[-1] and 1 < ts[-1].real < 3
    assert len(_accel.dopri5_path(*args)[0]) > 51


# -- invariant drift -----------------------------------------------------------


def test_drift_of_invariant_is_tiny():
    inst = _s2()
    tr = integrate(inst, (1, 0.3, 0), PathSpec([1, 2]), tol=1e-10)
    assert invariant_drift(tr, parse("x", inst.table)) < 1e-8


def test_drift_of_noninvariant_is_order_one():
    inst = _s2()
    tr = integrate(inst, (1, 0.3, 0), PathSpec([1, 2]), tol=1e-10)
    assert invariant_drift(tr, parse("y", inst.table)) > 0.1


def test_drift_monotone_under_tightening():
    # x - 2y^2 - t has cofactor -2y at alpha = 1/2; start on its zero set
    inst = _s2(F(1, 2))
    P = parse("x - 2*y^2 - t", inst.table)
    y0 = 0.3
    x0 = 2 * y0 ** 2 + 1.0
    drifts = [invariant_drift(
        integrate(inst, (1, y0, x0), PathSpec([1, 2]), tol=tol), P)
        for tol in (1e-6, 1e-8, 1e-10)]
    assert drifts[0] >= drifts[1] >= drifts[2]
    assert drifts[2] < 1e-8


def test_single_sample_drift_is_initial_value():
    inst = _s2()
    P = parse("x - 2*y^2 - t", inst.table)
    tr = integrate(inst, (1, 0.25, 0.5), PathSpec([1]), tol=1e-9)
    want = abs(P.eval_complex({"t": 1 + 0j}, 0.5 + 0j, 0.25 + 0j))
    assert invariant_drift(tr, P) == want


def test_drift_is_inf_where_a_denominator_vanishes():
    inst = _s2()
    tr = integrate(inst, (1, 0.3, 0.2), PathSpec([1, 2]), tol=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invariant_drift(tr, parse("x/(t - 1)", inst.table)) == float("inf")
        P = parse("x/(y - 3/10)", inst.table, allow_rational=True)
        assert invariant_drift(tr, P) == float("inf")


def test_drift_requires_completion():
    p1 = catalog.instantiate("P1", {})
    tr = integrate(p1, (0, 1, 1), PathSpec([0, 5]), tol=1e-9)
    with pytest.raises(ConstraintError, match="completed"):
        invariant_drift(tr, parse("x", p1.table))


def test_drift_rejects_parameter_coefficients():
    tab = SymbolTable()
    tab.declare_param("alpha")
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-8)
    with pytest.raises(NonNumericError):
        invariant_drift(tr, parse("x - alpha*y", tab))


def test_drift_rejects_tangent_variables():
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-8)
    with pytest.raises(ConstraintError, match="u1"):
        invariant_drift(tr, parse("u1*y", SymbolTable()))


def test_drift_accepts_rational_invariants():
    inst = _s2()
    tr = integrate(inst, (1, 0.3, 0), PathSpec([1, 2]), tol=1e-10)
    P = parse("x/(y^2 + 1)", inst.table, allow_rational=True)
    assert invariant_drift(tr, P) < 1e-8


# -- relation probe -------------------------------------------------------------


def test_riccati_relation_recovered():
    # along alpha = -1/2 trajectories with x = 0, y' + y^2 + t/2 vanishes
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-10)
    basis = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1)]
    res = relation_probe(tr, basis=basis)
    assert res.verdict == numint.CANDIDATE_RELATION
    assert res.sigma_min < 1e-6
    assert res.labels() == ("1", "t", "y", "y^2", "y'")
    c = [z / res.coefficients[4] for z in res.coefficients]
    assert abs(c[0]) < 1e-6
    assert abs(c[1] - 0.5) < 1e-6
    assert abs(c[2]) < 1e-6
    assert abs(c[3] - 1) < 1e-6


def test_exact_relation_sigma_near_rounding():
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-10)
    basis = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1)]
    assert relation_probe(tr, basis=basis).sigma_min < 1e-10


def test_synthetic_samples_probe_without_rhs():
    # hand-built samples on y = t^2; no compiled system is needed because
    # the basis never asks for y'
    samples = [(complex(t), complex(t * t), 0j)
               for t in [k / 16 for k in range(33)]]
    tr = Trajectory(samples, numint.COMPLETED, None, 0.0, "synthetic")
    res = relation_probe(tr, basis=[(0, 0, 0), (2, 0, 0), (0, 1, 0)])
    assert res.verdict == numint.CANDIDATE_RELATION
    assert res.sigma_min < 1e-10
    c = res.coefficients
    assert abs(c[0]) < 1e-10
    assert abs(c[2] / c[1] + 1) < 1e-10


def test_no_relation_on_generic_data():
    p1 = catalog.instantiate("P1", {})
    tr = integrate(p1, (0, 0.1, 0.1), PathSpec([0, 0.8]), tol=1e-10)
    res = relation_probe(tr, degree=1)
    assert res.verdict == numint.NO_RELATION_FOUND
    assert res.coefficients is None
    assert res.sigma_min >= 1e-6


def test_degenerate_trajectory():
    tr = integrate(_s2(), (1, 0.3, 0.7), PathSpec([1]), tol=1e-9)
    res = relation_probe(tr, degree=2)
    assert res.verdict == numint.DEGENERATE
    assert res.sigma_min is None
    assert res.coefficients is None


def test_insufficient_samples():
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 1.001]), tol=1e-6)
    with pytest.raises(InsufficientSamplesError, match="at least"):
        relation_probe(tr, degree=3)


@pytest.mark.parametrize("nvars, degree", [(1, 4), (3, 3), (5, 2)])
def test_default_basis_is_every_monomial_up_to_the_degree(nvars, degree):
    want = sorted((e for e in itertools.product(range(degree + 1), repeat=nvars)
                   if sum(e) <= degree), key=lambda e: (sum(e), e))
    assert numint._default_basis(nvars, degree) == want


def test_zero_error_step_warns_nothing():
    # the short path of test_insufficient_samples takes steps whose error
    # estimate is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 1.001]), tol=1e-6)
    assert tr.status == numint.COMPLETED


def test_probe_argument_validation():
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-8)
    with pytest.raises(ConstraintError):
        relation_probe([], degree=2)
    with pytest.raises(ConstraintError):
        relation_probe(tr, degree=0)
    with pytest.raises(ConstraintError):
        relation_probe(tr, degree=2, threshold=0.0)
    with pytest.raises(ConstraintError, match="basis"):
        relation_probe(tr, basis=[(0, 0)])
    # a repeated column gives the vacuous relation m - m = 0
    with pytest.raises(ConstraintError, match="'y\\^2' is repeated"):
        relation_probe(tr, basis=[(0, 0, 0), (0, 2, 0), (1, 0, 0), (0, 2, 0)])


def test_two_trajectory_probe_resamples():
    inst = _s2()
    t1 = integrate(inst, (1, 0.3, 0), PathSpec([1, 3]), tol=1e-10)
    t2 = integrate(inst, (1, -0.2, 0), PathSpec([1, 3]), tol=1e-10)
    assert len(t1) != len(t2)
    res = relation_probe([t1, t2], degree=2)
    assert res.verdict == numint.CANDIDATE_RELATION
    # the found relation is the first trajectory's Riccati; the second
    # trajectory contributes nothing
    lab = dict(zip(res.labels(), res.coefficients))
    assert abs(lab["y2"]) < 1e-6
    assert abs(lab["dy2"]) < 1e-6
    assert abs(lab["dy1"]) > 0.5


def test_probe_refuses_trajectories_on_different_paths():
    # sampled over different t, the pair would be compared at equal
    # arclength fractions of two different segments
    inst = _s2(F(1, 3))
    a = integrate(inst, (1, 0.3, 0.1), PathSpec([1, 2]), tol=1e-10)
    b = integrate(inst, (1, 0.2, 0.1), PathSpec([1, 1 + 1j]), tol=1e-10)
    assert a.waypoints == (1, 2) and b.waypoints == (1, 1 + 1j)
    with pytest.raises(ConstraintError, match="same path"):
        relation_probe([a, b], degree=1)
    with pytest.raises(ConstraintError, match="same path"):
        relation_probe([a, a, b], degree=1)
    # the same waypoints, written differently, are the same path
    c = integrate(inst, (1, 0.2, 0.1), "1+0i,2+0i", tol=1e-10)
    assert relation_probe([a, c], degree=1).verdict == numint.NO_RELATION_FOUND
    # trajectories built by hand carry no waypoints and are not checked
    bare = [Trajectory(tr.samples, tr.status, None, tr.tolerance, tr.family, tr._rhs)
            for tr in (a, b)]
    assert bare[0].waypoints is None
    relation_probe(bare, degree=1)
    relation_probe([a, bare[1]], degree=1)


def _pairwise_probes(trajs):
    return [relation_probe([trajs[i], trajs[j]])
            for i in range(len(trajs)) for j in range(i + 1, len(trajs))]


def test_pairwise_probes_repeat_bit_for_bit():
    inst = _s2()
    trajs = [integrate(inst, (1, y, x), PathSpec([1, 2.5]), tol=1e-12)
             for y, x in ((0.3, 0), (0.1, 0), (0.2, 0.5), (-0.1, 0.3))]
    fresh = [Trajectory(tr.samples, tr.status, tr.t_est, tr.tolerance, tr.family,
                        tr._rhs, tr.waypoints) for tr in trajs]
    runs = [_pairwise_probes(trajs), _pairwise_probes(trajs), _pairwise_probes(fresh)]
    assert all(p.coefficients is not None for p in runs[0])
    for run in runs[1:]:
        for p, q in zip(runs[0], run):
            assert p.sigma_min == q.sigma_min
            assert p.coefficients == q.coefficients
            assert p.basis == q.basis


def test_trajectory_arrays_are_built_once_and_read_only():
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-9)
    arrays = tr.arrays()
    assert all(a is b for a, b in zip(arrays, tr.arrays()))
    for arr, k in zip(arrays, range(3)):
        assert arr.tolist() == [s[k] for s in tr.samples]
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_instance_generates_its_right_hand_side_once(monkeypatch):
    calls = []
    compile_rhs = _accel.compile_rhs

    def counted(*arrays):
        calls.append(arrays)
        return compile_rhs(*arrays)

    monkeypatch.setattr(_accel, "compile_rhs", counted)
    inst = _s2()
    runs = [integrate(inst, (1, y, 0), PathSpec([1, 2]), tol=1e-9)
            for y in (0.3, 0.2, 0.1)]
    assert len(calls) == 1
    assert all(tr.status == numint.COMPLETED for tr in runs)


def test_probe_reports_threshold():
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-10)
    res = relation_probe(tr, degree=1, threshold=1e-9)
    assert res.threshold == 1e-9


# -- csv -----------------------------------------------------------------------


def test_csv_format(tmp_path):
    tr = integrate(_s2(), (1, 0.3, 0), PathSpec([1, 2]), tol=1e-8)
    text = tr.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t_re,t_im,y_re,y_im,x_re,x_im"
    assert len(lines) == len(tr) + 1
    for row, (t, y, x) in zip(lines[1:], tr.samples):
        vals = [float(v) for v in row.split(",")]
        assert len(vals) == 6
        # 17 significant digits reproduce doubles exactly
        assert vals == [t.real, t.imag, y.real, y.imag, x.real, x.imag]
    out = tmp_path / "traj.csv"
    tr.write_csv(out)
    assert out.read_text() == text
