import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from painlevekit.cli import main
from painlevekit.field import SymbolTable, parse_poly


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--json")
    return code, (json.loads(out) if out else None), err


# -- usage errors ---------------------------------------------------------------


def test_missing_param_is_usage_error(capsys):
    code, out, err = _run(capsys, "classify", "--family", "P2")
    assert code == 2
    assert "alpha" in err


def test_unknown_subcommand(capsys):
    assert _run(capsys, "frobnicate")[0] == 2


def test_unknown_flag(capsys):
    assert _run(capsys, "classify", "--family", "P2", "--bogus", "1")[0] == 2


def test_unknown_family(capsys):
    assert _run(capsys, "classify", "--family", "P9")[0] == 2


def test_bad_param_value(capsys):
    code, out, err = _run(capsys, "classify", "--family", "P2",
                          "--param", "alpha=xyz")
    assert code == 2
    assert "rational" in err


def test_bad_param_shape(capsys):
    code, out, err = _run(capsys, "classify", "--family", "P2",
                          "--param", "beta=1")
    assert code == 2
    assert "alpha" in err and "beta" in err


def test_bad_initial_is_usage_error(capsys):
    code, _, err = _run(capsys, "integrate", "--family", "S2",
                        "--param", "alpha=-1/2", "--initial", "1,2",
                        "--path", "1,2")
    assert code == 2
    assert "initial" in err.lower()


# -- non-finite and oversized input: typed errors, no warnings ------------------


def _run_strict(capsys, *argv):
    """main(argv) with every warning raised as an error, as under -W error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _run(capsys, *argv)


_S2_INTEGRATE = ("integrate", "--family", "S2", "--param", "alpha=-1/2")


def test_nan_waypoint_is_rejected(capsys):
    code, out, err = _run_strict(capsys, *_S2_INTEGRATE,
                                 "--initial", "1,0.3,0", "--path", "1,nan")
    assert code == 1 and out == ""
    assert "PathError" in err and "'nan'" in err


def test_nan_initial_value_is_rejected(capsys):
    code, out, err = _run_strict(capsys, *_S2_INTEGRATE,
                                 "--initial", "1,nan,0", "--path", "1,2")
    assert code == 1 and out == ""
    assert "ConstraintError" in err and "'nan'" in err


def test_infinite_tolerance_is_rejected(capsys):
    code, out, err = _run_strict(capsys, *_S2_INTEGRATE, "--initial", "1,0.3,0",
                                 "--path", "1,2", "--tol", "inf")
    assert code == 1 and out == ""
    assert "ConstraintError" in err and "inf" in err


def test_infinite_waypoint_message_quotes_the_input(capsys):
    code, out, err = _run_strict(capsys, *_S2_INTEGRATE,
                                 "--initial", "1,0.3,0", "--path", "1,inf")
    assert code == 1 and out == ""
    assert "PathError" in err and "'inf'" in err and "jnf" not in err


_S2_PROBE = ("probe", "--family", "S2", "--param", "alpha=1/3",
             "--initial", "1,0.1,0.2", "--path", "1,3+2i,6")


def test_infinite_threshold_is_rejected(capsys):
    code, out, err = _run_strict(capsys, *_S2_PROBE, "--threshold", "inf",
                                 "--json")
    assert code == 1 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] == "Error"
    assert "ConstraintError" in rep["warnings"][0]
    assert "threshold inf" in rep["warnings"][0]


def test_nan_threshold_message_quotes_the_input(capsys):
    code, out, err = _run_strict(capsys, *_S2_PROBE, "--threshold", "nan")
    assert code == 1 and out == ""
    assert "ConstraintError" in err and "threshold nan" in err


def test_overflowing_basis_monomial_is_refused(capsys):
    # 2^2000 overflows a double: the column used to reach the SVD as inf
    code, out, err = _run_strict(capsys, "probe", "--family", "S2",
                                 "--param", "alpha=1/3", "--initial", "1,0.3,0.1",
                                 "--path", "1,2", "--basis", "t^2000,1")
    assert code == 1 and out == ""
    assert "ConstraintError" in err and "'t^2000'" in err
    assert "Traceback" not in err


def test_huge_exponent_is_refused(capsys):
    code, out, err = _run_strict(capsys, "verify-invariant", "--family", "S2",
                                 "--param", "alpha=1/2", "--poly", "x^99999999")
    assert code == 1 and out == ""
    assert "ParseError" in err and "99999999" in err


def test_nested_power_is_refused_quickly(capsys):
    start = time.perf_counter()
    code, out, err = _run_strict(capsys, "verify-invariant", "--family", "S2",
                                 "--param", "alpha=1/2", "--poly", "((x+1)^100)^100")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "ParseError" in err and "degree 10000" in err


@pytest.mark.parametrize("argv", [
    ("darboux", "--deg-xy", "99999999999999999999", "--deg-t", "1"),
    ("darboux", "--deg-xy", "1", "--deg-t", "1", "--cofactor-deg", "10000"),
    ("first-integrals", "--deg-xy", "1", "--deg-t", "99999999999999999999"),
])
def test_huge_search_bounds_are_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = _run_strict(capsys, argv[0], "--family", "S2",
                                 "--param", "alpha=1/2", *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "SearchCapExceededError" in err


def test_far_waypoints_around_a_fixed_singularity(capsys):
    # the segment's squared length, 4e600, overflowed a float
    code, out, err = _run_strict(capsys, "integrate", "--family", "S3prime",
                                 "--param", "v1=1/3", "--param", "v2=1/5",
                                 "--initial=-1e300,0.3,0", "--path=-1e300,1e300")
    assert code == 1 and out == ""
    assert "PathError" in err and "fixed singularity t = 0" in err


def test_unwritable_csv_is_usage_error(tmp_path, capsys):
    dest = tmp_path / "missing" / "out.csv"
    code, out, err = _run_strict(capsys, *_S2_INTEGRATE, "--initial", "1,0.3,0",
                                 "--path", "1,1.5", "--csv", str(dest))
    assert code == 2 and out == ""
    assert f"cannot write --csv {str(dest)!r}" in err


def test_huge_initial_value_warns_nothing(capsys):
    # y^2 overflows at the first stage; numpy scalars used to warn here
    code, out, err = _run_strict(capsys, "integrate", "--family", "S2",
                                 "--param", "alpha=1/3", "--initial", "1,1e300,0",
                                 "--path", "1,2", "--json")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] == "PoleDetected"


def test_imaginary_unit_i_still_reads(capsys):
    code, rep, _ = _run_json(capsys, *_S2_INTEGRATE, "--initial", "1,0.3+0.1i,0",
                             "--path", "1,1.5+0.5i,2", "--tol", "1e-8")
    assert code == 0
    assert rep["verdict"] == "Completed"


# -- domain errors ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("darboux", "--deg-xy", "1", "--deg-t", "1", "--cofactor-box", "1"),
    ("verify-invariant", "--poly", "x"),
    ("first-integrals", "--deg-xy", "1", "--deg-t", "1"),
])
def test_search_without_a_first_order_system_is_domain_error(capsys, argv):
    code, out, err = _run(capsys, argv[0], "--family", "P2",
                          "--param", "alpha=1/2", *argv[1:])
    assert code == 1 and out == ""
    assert "ConstraintError: P2 carries no first-order system" in err


def test_symbolic_search_is_domain_error(capsys):
    code, out, err = _run(capsys, "darboux", "--family", "S2",
                          "--param", "alpha=sym:a",
                          "--deg-xy", "1", "--deg-t", "0")
    assert code == 1
    assert "NonNumericError" in err


def test_domain_error_json_report(capsys):
    code, rep, err = _run_json(capsys, "darboux", "--family", "S2",
                               "--param", "alpha=sym:a",
                               "--deg-xy", "1", "--deg-t", "0")
    assert code == 1
    assert rep["verdict"] == "Error"
    assert any("NonNumericError" in w for w in rep["warnings"])


def test_singular_path_is_domain_error(capsys):
    code, _, err = _run(capsys, "integrate", "--family", "S5",
                        "--param", "v1=1/8", "--param", "v2=5/8",
                        "--param", "v3=3/8", "--param", "v4=-9/8",
                        "--initial=-1,0.3,0.1", "--path=-1,1")
    assert code == 1
    assert "PathError" in err


# -- classify ---------------------------------------------------------------------


def test_classify_exceptional_point(capsys):
    code, rep, _ = _run_json(capsys, "classify", "--family", "P2",
                             "--param", "alpha=3/2")
    assert code == 0
    assert rep["verdict"] == "NotStronglyMinimal"
    assert rep["witnesses"] == ["alpha ∈ 1/2+Z"]
    assert rep["citations"] and "1/2+Z" in rep["citations"][0]


def test_classify_generic_point(capsys):
    code, rep, _ = _run_json(capsys, "classify", "--family", "P2",
                             "--param", "alpha=1/3")
    assert code == 0
    assert rep["verdict"] == "StronglyMinimal"
    assert rep["witnesses"] == []


def test_every_nsm_verdict_has_witness_and_citation(capsys):
    cases = [
        ("P2", ["alpha=-1/2"]),
        ("S4", ["v1=1/2", "v2=3/2", "v3=-2"]),
        ("S6", ["a1=1/4", "a2=1/4", "a3=0", "a4=2/3"]),
        ("P4", ["alpha=0", "beta=-2"]),
    ]
    for family, params in cases:
        argv = ["classify", "--family", family]
        for p in params:
            argv += ["--param", p]
        code, rep, _ = _run_json(capsys, *argv)
        assert code == 0
        assert rep["verdict"] == "NotStronglyMinimal"
        assert rep["witnesses"], f"{family} missing witness"
        assert rep["citations"], f"{family} missing citation"


def test_classify_reduces_greek_parameters(capsys):
    code, rep, _ = _run_json(capsys, "classify", "--family", "P5",
                             "--param", "alpha=1", "--param", "beta=-1/8",
                             "--param", "gamma=1", "--param", "delta=-2")
    assert code == 0
    assert rep["verdict"] == "StronglyMinimal"
    assert any("reduced to S5" in w for w in rep["warnings"])
    assert any("kappa1^2 = 2" in w for w in rep["warnings"])
    assert set(rep["reduced_params"]) == {"v1", "v2", "v3", "v4"}
    assert len(rep["branches"]) >= 2


def test_classify_symbolic_parameter(capsys):
    code, rep, _ = _run_json(capsys, "classify", "--family", "P2",
                             "--param", "alpha=sym:a")
    assert code == 0
    assert rep["verdict"] == "StronglyMinimal"
    assert rep["conditions"][0][1] == "GenericNotIn"


# -- instantiate and certificates ---------------------------------------------------


def test_instantiate_forms_reparse(capsys):
    code, rep, _ = _run_json(capsys, "instantiate", "--family", "S2",
                             "--param", "alpha=-1/2")
    assert code == 0
    assert rep["verdict"] == "Instantiated"
    table = SymbolTable()
    for text in rep["forms"]["system"]:
        P = parse_poly(text, table)
        assert str(P) == text
    assert rep["forms"]["hamiltonian"] is None


def test_instantiate_hamiltonian_form(capsys):
    code, rep, _ = _run_json(capsys, "instantiate", "--family", "S3prime",
                             "--param", "v1=1/3", "--param", "v2=1/5")
    assert code == 0
    assert rep["forms"]["hamiltonian_convention"] == "minus"
    table = SymbolTable()
    text = rep["forms"]["hamiltonian"]
    assert str(parse_poly(text, table)) == text


def test_verify_invariant_example(capsys):
    code, rep, _ = _run_json(capsys, "verify-invariant", "--family", "S2",
                             "--param", "alpha=-1/2", "--poly", "x")
    assert code == 0
    assert rep["verdict"] == "Invariant"
    assert rep["certificates"] == [{"P": "x", "G": "2*y"}]


def test_verify_invariant_negative(capsys):
    code, rep, _ = _run_json(capsys, "verify-invariant", "--family", "S2",
                             "--param", "alpha=-1/2", "--poly", "y")
    assert code == 0
    assert rep["verdict"] == "NotInvariant"
    assert rep["residuals"]


def test_darboux_search_reports_within_bounds(capsys):
    code, out, _ = _run(capsys, "darboux", "--family", "S2",
                        "--param", "alpha=1/2", "--deg-xy", "2",
                        "--deg-t", "1", "--cofactor-box", "3")
    assert code == 0
    assert "FoundWithinBounds" in out
    assert "within bounds" in out
    assert "G = -2*y" in out


def test_darboux_empty_within_bounds(capsys):
    code, rep, _ = _run_json(capsys, "darboux", "--family", "S2",
                             "--param", "alpha=1/3", "--deg-xy", "2",
                             "--deg-t", "1", "--cofactor-box", "3")
    assert code == 0
    assert rep["verdict"] == "NoneWithinBounds"
    assert rep["certificates"] == []


def test_darboux_certificates_reparse(capsys):
    code, rep, _ = _run_json(capsys, "darboux", "--family", "S2",
                             "--param", "alpha=-1/2", "--deg-xy", "1",
                             "--deg-t", "0", "--cofactor-box", "3")
    assert code == 0
    table = SymbolTable()
    for cert in rep["certificates"]:
        for key in ("P", "G"):
            assert str(parse_poly(cert[key], table)) == cert[key]


def test_darboux_rescales_denominators_with_warning(capsys):
    code, rep, _ = _run_json(capsys, "darboux", "--family", "S3prime",
                             "--param", "v1=0", "--param", "v2=0",
                             "--deg-xy", "1", "--deg-t", "1",
                             "--cofactor-box", "1", "--cofactor-deg", "1")
    assert code == 0
    assert any("rescaled by" in w for w in rep["warnings"])


def test_first_integrals_none_for_p1(capsys):
    code, rep, _ = _run_json(capsys, "first-integrals", "--family", "P1",
                             "--deg-xy", "2", "--deg-t", "1")
    assert code == 0
    assert rep["verdict"] == "NoneWithinBounds"


def test_tangent_lift_constant_coefficients(capsys):
    code, rep, _ = _run_json(capsys, "tangent-lift",
                             "--poly", "x^2 + y^2 - 1")
    assert code == 0
    # constant coefficients: no inhomogeneous term in the lift
    assert rep["lifted"] == ["2*x*u1 + 2*y*u2"]
    table = SymbolTable()
    assert str(parse_poly(rep["lifted"][0], table)) == rep["lifted"][0]


# -- transforms ---------------------------------------------------------------------


def test_transform_check_p2_to_s2(capsys):
    code, rep, _ = _run_json(capsys, "transform-check", "--map", "p2-to-s2",
                             "--param", "alpha=sym:a")
    assert code == 0
    assert rep["verdict"] == "Match"
    assert rep["residuals"] == ["0", "0"]


def test_transform_check_scaling_printed_misses(capsys):
    args = ["transform-check", "--map", "p3prime-scaling",
            "--param", "alpha=sym:a", "--param", "beta=sym:b",
            "--param", "gamma=sym:gamma", "--param", "delta=sym:delta"]
    code, rep, _ = _run_json(capsys, *args)
    assert code == 0
    assert rep["verdict"] == "Mismatch"
    assert any("lam^2" in w for w in rep["witnesses"])


def test_transform_check_scaling_corrected_matches(capsys):
    args = ["transform-check", "--map", "p3prime-scaling-corrected",
            "--param", "alpha=sym:a", "--param", "beta=sym:b",
            "--param", "gamma=sym:gamma", "--param", "delta=sym:delta"]
    code, rep, _ = _run_json(capsys, *args)
    assert code == 0
    assert rep["verdict"] == "Match"


def test_transform_check_scaling_needs_symbolic_gamma(capsys):
    code, _, err = _run(capsys, "transform-check", "--map", "p3prime-scaling",
                        "--param", "alpha=1", "--param", "beta=2",
                        "--param", "gamma=4", "--param", "delta=-4")
    assert code == 2
    assert "sym:gamma" in err


def test_transform_check_identity_needs_family(capsys):
    code, _, err = _run(capsys, "transform-check", "--map", "identity")
    assert code == 2
    assert "--family" in err


def test_identity_map_on_p6_is_quick(capsys):
    # every cancellation of P6 against itself is of a coprime quotient,
    # which once ran out its gcd budget, about a minute in all
    start = time.perf_counter()
    code, out, err = _run_strict(capsys, "transform-check", "--map", "identity",
                                 "--family", "P6", "--param", "alpha=1/2",
                                 "--param", "beta=2/5", "--param", "gamma=-3",
                                 "--param", "delta=1/3", "--json")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"] == "Match"


def test_hamiltonian_check_first_family_residual(capsys):
    code, rep, _ = _run_json(capsys, "hamiltonian-check", "--family", "P1")
    assert code == 0
    assert rep["verdict"] == "NoConvention"
    assert any("2*t" in r for r in rep["residuals"])


def test_hamiltonian_check_minus_convention(capsys):
    code, rep, _ = _run_json(capsys, "hamiltonian-check", "--family",
                             "S3prime", "--param", "v1=1/3",
                             "--param", "v2=1/5")
    assert code == 0
    assert rep["verdict"] == "ConventionMinus"
    assert rep["residuals"] == ["0", "0"]


# -- numeric commands -----------------------------------------------------------------


def test_integrate_writes_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, rep, _ = _run_json(capsys, "integrate", "--family", "S2",
                             "--param", "alpha=-1/2", "--initial", "1,0.3,0",
                             "--path", "1,2", "--tol", "1e-10",
                             "--csv", str(out))
    assert code == 0
    assert rep["verdict"] == "Completed"
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t_re,t_im,y_re,y_im,x_re,x_im"
    assert len(lines) == rep["samples"] + 1


def test_integrate_reports_pole(capsys):
    code, rep, _ = _run_json(capsys, "integrate", "--family", "P1",
                             "--initial", "0,1,1", "--path", "0,5")
    assert code == 0
    assert rep["verdict"] == "PoleDetected"
    assert rep["t_est"] is not None


def test_drift_command(capsys):
    code, rep, _ = _run_json(capsys, "drift", "--family", "S2",
                             "--param", "alpha=-1/2", "--initial", "1,0.3,0",
                             "--path", "1,2", "--tol", "1e-10", "--poly", "x")
    assert code == 0
    assert rep["drift"] < 1e-8


def test_probe_command_with_basis(capsys):
    code, rep, _ = _run_json(capsys, "probe", "--family", "S2",
                             "--param", "alpha=-1/2", "--initial", "1,0.3,0",
                             "--path", "1,2", "--tol", "1e-10",
                             "--basis", "1,t,y,y^2,y'")
    assert code == 0
    assert rep["verdict"] == "CandidateRelation"
    assert rep["sigma_min"] < 1e-6
    assert rep["basis_labels"] == ["1", "t", "y", "y^2", "y'"]
    assert rep["witnesses"] and "≈ 0" in rep["witnesses"][0]


def test_probe_no_relation(capsys):
    code, rep, _ = _run_json(capsys, "probe", "--family", "P1",
                             "--initial", "0,0.1,0.1", "--path", "0,0.8",
                             "--tol", "1e-10", "--degree", "1")
    assert code == 0
    assert rep["verdict"] == "NoRelationFound"
    assert rep["coefficients"] is None


def test_basis_monomial_zero_on_every_sample_is_refused(capsys):
    # y^2000 underflows to 0 at every sample: its column says nothing
    code, out, err = _run_strict(capsys, "probe", "--family", "S2",
                                 "--param", "alpha=-1/2", "--initial", "1,0.3,0",
                                 "--path", "1,2", "--basis", "1,y^2000")
    assert code == 1 and out == ""
    assert "ConstraintError" in err and "'y^2000'" in err


def test_huge_probe_degree_ends_quickly(capsys):
    start = time.perf_counter()
    code, out, err = _run_strict(capsys, *_S2_PROBE, "--degree", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "InsufficientSamplesError" in err and "12341 basis monomials" in err


def test_huge_probe_degree_on_a_degenerate_path_is_refused(capsys):
    # a one-waypoint path gives equal samples: the probe once built all
    # 176,851 monomials of degree 100 before it answered Degenerate
    start = time.perf_counter()
    code, out, err = _run_strict(capsys, "probe", "--family", "S2",
                                 "--param", "alpha=-1/2", "--initial", "1,0.3,0",
                                 "--path", "1", "--degree", "100")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "ConstraintError" in err and "probe degree 100" in err


def test_bad_basis_is_usage_error(capsys):
    code, _, err = _run(capsys, "probe", "--family", "S2",
                        "--param", "alpha=-1/2", "--initial", "1,0.3,0",
                        "--path", "1,2", "--basis", "1,z^2")
    assert code == 2
    assert "basis" in err


# -- process-level entry ----------------------------------------------------------------


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "painlevekit.cli", "classify",
         "--family", "P1", "--json"],
        capture_output=True, text=True)
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "StronglyMinimal"


def test_large_scale_radicand_classifies_quickly():
    # delta's 42-digit numerator reaches the radicand of mu^2 =
    # -16/(gamma*delta), which root_of decides without factoring it
    r = subprocess.run(
        [sys.executable, "-m", "painlevekit.cli", "classify", "--family", "P3",
         "--param", "alpha=3/4", "--param", "beta=-2", "--param", "gamma=-3/2",
         "--param", "delta=300000000000000000122300000000000000002067"],
        capture_output=True, text=True, timeout=5)
    assert r.returncode == 0


def test_closed_pipe_ends_quietly():
    # `probe ... --degree 40 --json | head -c 300`: the reader leaves long
    # before the 745 kB report is written, which once ended in a
    # BrokenPipeError traceback from _print_json
    proc = subprocess.Popen(
        [sys.executable, "-m", "painlevekit.cli", "probe", "--family", "S2",
         "--param", "alpha=-1/2", "--initial", "1,0.3,0", "--path", "1",
         "--degree", "40", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b"{") and len(head) == 300
    assert err == b""


_NUMERIC_MODULES = ("numpy", "painlevekit._accel", "painlevekit.numint")

# each argv runs through cli.main in one process, in order; the process
# prints which of _NUMERIC_MODULES are loaded after the import and after
# each command
_LOADED_AFTER = """
import contextlib, io, json, sys
mods = json.loads(sys.argv[1])
def loaded():
    return [m for m in mods if m in sys.modules]
import painlevekit.cli as cli
print(json.dumps(loaded()))
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps([code, loaded()]))
"""

_EXACT_COMMANDS = [
    ["classify", "--family", "P2", "--param", "alpha=3/2"],
    ["instantiate", "--family", "P3prime", "--param", "alpha=1",
     "--param", "beta=2", "--param", "gamma=sym:g", "--param", "delta=-4"],
    ["verify-invariant", "--family", "S2", "--param", "alpha=1/2",
     "--poly", "x - 2*y^2 - t"],
    ["first-integrals", "--family", "S4", "--param", "v1=0", "--param", "v2=1",
     "--param", "v3=-1", "--deg-xy", "1", "--deg-t", "1"],
    ["tangent-lift", "--poly", "x*y + 1"],
    ["transform-check", "--map", "p2-to-s2", "--param", "alpha=sym:alpha"],
    ["hamiltonian-check", "--family", "S3prime", "--param", "v1=1/3",
     "--param", "v2=1/5"],
]

_NUMERIC_COMMANDS = [
    ["darboux", "--family", "S2", "--param", "alpha=1/2", "--deg-xy", "1",
     "--deg-t", "1", "--cofactor-box", "1", "--cofactor-deg", "1"],
    ["integrate", "--family", "S2", "--param", "alpha=-1/2",
     "--initial", "1,0.3,0", "--path", "1,1.5"],
]


def _loaded_after(commands):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(_NUMERIC_MODULES),
         json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_exact_commands_leave_numpy_unloaded():
    # every subprocess of an exact command would otherwise pay for
    # importing numpy, which is most of its wall time
    after_import, *after_commands = _loaded_after(_EXACT_COMMANDS)
    assert after_import == []
    assert after_commands == [[0, []]] * len(_EXACT_COMMANDS)
    for argv in _NUMERIC_COMMANDS:
        after_import, after_command = _loaded_after([argv])
        assert after_import == []
        assert after_command[0] == 0 and "numpy" in after_command[1]
