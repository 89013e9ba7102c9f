import json
import subprocess
import sys
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


def test_huge_exponent_is_refused(capsys):
    code, out, err = _run_strict(capsys, "verify-invariant", "--family", "S2",
                                 "--param", "alpha=1/2", "--poly", "x^99999999")
    assert code == 1 and out == ""
    assert "ParseError" in err and "99999999" in err


def test_imaginary_unit_i_still_reads(capsys):
    code, rep, _ = _run_json(capsys, *_S2_INTEGRATE, "--initial", "1,0.3+0.1i,0",
                             "--path", "1,1.5+0.5i,2", "--tol", "1e-8")
    assert code == 0
    assert rep["verdict"] == "Completed"


# -- domain errors ---------------------------------------------------------------


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
