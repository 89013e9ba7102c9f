import itertools
import random
import time
from fractions import Fraction as F

import pytest

from painlevekit import catalog
from painlevekit.catalog import (NOT_STRONGLY_MINIMAL, STRONGLY_MINIMAL,
                                 classify, instantiate, reduce_parameters)
from painlevekit.dvariety import SearchBounds, darboux_search
from painlevekit.errors import (BranchDisagreementError, ConstraintError,
                                NotReducibleError)
from painlevekit.field import PhaseRational, SymbolTable, parse


# -- independent verdict oracles (plain Fraction arithmetic, no package code) --
#
# Written against the classical exceptional sets before the classifier
# existed; the grid tests below compare classify() to these.

def in_z(q: F) -> bool:
    return q.denominator == 1


def in_2z(q: F) -> bool:
    return q.denominator == 1 and q.numerator % 2 == 0


def in_half_plus_z(q: F) -> bool:
    return (q - F(1, 2)).denominator == 1


def oracle_p2(alpha: F) -> bool:
    # True = exceptional (not strongly minimal)
    return in_half_plus_z(alpha)


def oracle_s3prime(v1: F, v2: F) -> bool:
    return in_2z(v1 + v2) or in_2z(v1 - v2)


def oracle_s4(v1: F, v2: F, v3: F) -> bool:
    return in_z(v1 - v2) or in_z(v2 - v3) or in_z(v3 - v1)


def oracle_s5(v1: F, v2: F, v3: F, v4: F) -> bool:
    vs = (v1, v2, v3, v4)
    return any(in_z(vs[i] - vs[j]) for i in range(4) for j in range(i + 1, 4))


def oracle_s6(a1: F, a2: F, a3: F, a4: F) -> bool:
    vs = (a1, a2, a3, a4)
    return any(in_z(vs[i] - vs[j]) or in_z(vs[i] + vs[j])
               for i in range(4) for j in range(i + 1, 4))


def verdict_of(exceptional: bool) -> str:
    return NOT_STRONGLY_MINIMAL if exceptional else STRONGLY_MINIMAL


# -- instantiation -----------------------------------------------------------


def test_s2_alpha_zero_system():
    inst = instantiate("S2", {"alpha": 0})
    tab = inst.table
    assert inst.system[0] == parse("x - y^2 - 1/2*t", tab)
    assert inst.system[1] == parse("2*x*y + 1/2", tab)
    assert inst.second_order is None
    assert inst.hamiltonian is None


def test_p1_forms():
    inst = instantiate("P1", {})
    tab = inst.table
    assert inst.system == (parse("x", tab), parse("6*y^2 + t", tab))
    assert inst.derivation.f == inst.system[0]
    assert inst.derivation.g == inst.system[1]
    assert inst.derivation.e == tab.one()
    assert inst.second_order == PhaseRational.from_poly(parse("6*y^2 + t", tab))


def test_s4_constraint_violation():
    with pytest.raises(ConstraintError, match="v1 \\+ v2 \\+ v3 = 0"):
        instantiate("S4", {"v1": 1, "v2": 2, "v3": 3})


def test_missing_and_extra_parameters():
    with pytest.raises(ConstraintError, match="missing alpha"):
        instantiate("P2", {})
    with pytest.raises(ConstraintError, match="unexpected beta"):
        instantiate("P2", {"alpha": 1, "beta": 2})
    with pytest.raises(ConstraintError, match="unknown family"):
        instantiate("P7", {})


def test_parameter_must_be_constant():
    tab = SymbolTable()
    with pytest.raises(ConstraintError, match="differential constant"):
        instantiate("P2", {"alpha": tab.t()}, table=tab)


def test_p3prime_accepts_both_parameter_shapes():
    tab = SymbolTable()
    v1 = tab.declare_param("v1")
    v2 = tab.declare_param("v2")
    vform = instantiate("P3prime", {"v1": v1, "v2": v2}, table=tab)
    greek = instantiate("P3prime", {"alpha": 4 * v2, "beta": -4 * (v1 - 1),
                                    "gamma": 4, "delta": -4}, table=tab)
    assert vform.second_order == greek.second_order


def test_system_variants_have_derivations():
    cases = {
        "S2": {"alpha": F(1, 3)},
        "S3prime": {"v1": F(2, 5), "v2": F(1, 7)},
        "S4": {"v1": F(1, 3), "v2": F(1, 4), "v3": F(-7, 12)},
        "S5": {"v1": F(1, 2), "v2": F(1, 3), "v3": F(1, 5), "v4": F(-31, 30)},
        "S6": {"a1": F(1, 2), "a2": F(1, 3), "a3": F(1, 5), "a4": F(1, 7)},
    }
    for family, params in cases.items():
        inst = instantiate(family, params)
        assert inst.system is not None
        assert inst.derivation.f == inst.system[0]
        assert inst.derivation.g == inst.system[1]
        assert inst.second_order is None


def test_second_order_families_have_no_system():
    for family, params in (
            ("P2", {"alpha": 1}),
            ("P3", {"alpha": 1, "beta": 2, "gamma": 3, "delta": 4}),
            ("P4", {"alpha": 1, "beta": 2}),
            ("P5", {"alpha": 1, "beta": 2, "gamma": 3, "delta": 4}),
            ("P6", {"alpha": 1, "beta": 2, "gamma": 3, "delta": 4})):
        inst = instantiate(family, params)
        assert inst.system is None and inst.derivation is None
        assert inst.second_order is not None


def test_s5_first_component_uses_y_squared_x():
    # the 2y^2x reading of the misprinted 2x^2x term
    inst = instantiate("S5", {"v1": 0, "v2": 0, "v3": 0, "v4": 0})
    tab = inst.table
    f = inst.system[0]
    assert f.coefficient((1, 2, 0, 0)) == 2 / tab.t()
    assert f.coefficient((3, 0, 0, 0)).is_zero()
    assert any("2y^2*x" in n or "2x^2" in n for n in inst.notes)


def test_p6_bracket_toggle():
    params = {"alpha": 1, "beta": 2, "gamma": 3, "delta": 4}
    tab = SymbolTable()
    verbatim = instantiate("P6", params, table=tab)
    standard = instantiate("P6", params, table=tab, standard_form=True)
    y = PhaseRational.var(tab, "y")
    x = PhaseRational.var(tab, "x")
    diff = verbatim.second_order - standard.second_order
    expected = (1 / (y + 1) - 1 / (y - 1)) * x * x / 2
    assert diff == expected
    assert any("1/(y+1)" in n for n in verbatim.notes)
    assert not any("1/(y+1)" in n for n in standard.notes)


def test_flag_scope_validation():
    with pytest.raises(ConstraintError, match="corrected_hamiltonian"):
        instantiate("P2", {"alpha": 0}, corrected_hamiltonian=True)
    with pytest.raises(ConstraintError, match="standard_form"):
        instantiate("P1", {}, standard_form=True)


_P1_NOTE = ("stored Hamiltonian gives x' = 6y^2 - t under the minus convention,"
            " differing from the system by 2t; pass corrected_hamiltonian=True"
            " for the -ty variant")
_S5_NOTES = ("some printed forms of the matching vector field show 2x^2*x in the"
             " first component; 2y^2*x is used",
             "stored Hamiltonian is stated in the coordinates before the y/(y-1)"
             " substitution; neither sign convention reproduces the"
             " v-coordinate system")
_P6_NOTE = ("second-order form keeps the printed 1/(y+1) term in the first"
            " bracket; pass standard_form=True for the conventional 1/(y-1)")

# family, flags -> (second order?, system?, Hamiltonian?, convention, notes)
_FORMS_BUILT = [
    ("P1", {}, (True, True, True, None, (_P1_NOTE,))),
    ("P1", {"corrected_hamiltonian": True}, (True, True, True, "minus", ())),
    ("P2", {}, (True, False, False, None, ())),
    ("P3", {}, (True, False, False, None, ())),
    ("P3prime", {}, (True, False, False, None, ())),
    ("P4", {}, (True, False, False, None, ())),
    ("P5", {}, (True, False, False, None, ())),
    ("P6", {}, (True, False, False, None, (_P6_NOTE,))),
    ("P6", {"standard_form": True}, (True, False, False, None, ())),
    ("S2", {}, (False, True, False, None, ())),
    ("S3prime", {}, (False, True, True, "minus", ())),
    ("S4", {}, (False, True, False, None, ())),
    ("S5", {}, (False, True, True, None, _S5_NOTES)),
    ("S6", {}, (False, True, False, None, ())),
]


def test_every_family_builds_its_forms():
    assert sorted({fam for fam, _, _ in _FORMS_BUILT}) == sorted(catalog.FAMILIES)
    vals = [F(1, 3), F(1, 5), F(2, 7), F(-1, 2)]
    for family, flags, expected in _FORMS_BUILT:
        names = catalog.parameter_names(family)
        params = dict(zip(names, vals))
        if family in ("S4", "S5"):
            # the last v closes the sum to 0
            params[names[-1]] = -sum(vals[:len(names) - 1])
        inst = instantiate(family, params, **flags)
        built = (inst.second_order is not None, inst.system is not None,
                 inst.hamiltonian is not None, inst.hamiltonian_convention,
                 inst.notes)
        assert built == expected, (family, flags)
        assert (inst.derivation is not None) == (inst.system is not None)


# -- Hamiltonian consistency ---------------------------------------------------


def test_p1_hamiltonian_flagged_inconsistent_as_printed():
    inst = instantiate("P1", {})
    assert inst.hamiltonian is not None
    assert inst.hamiltonian_convention is None
    assert any("2t" in n for n in inst.notes)


def test_p1_corrected_hamiltonian_is_minus_consistent():
    inst = instantiate("P1", {}, corrected_hamiltonian=True)
    assert inst.hamiltonian_convention == "minus"
    assert not any("2t" in n for n in inst.notes)


def test_s3prime_hamiltonian_minus_consistent():
    tab = SymbolTable()
    v1 = tab.declare_param("v1")
    v2 = tab.declare_param("v2")
    inst = instantiate("S3prime", {"v1": v1, "v2": v2}, table=tab)
    assert inst.hamiltonian_convention == "minus"


def test_s5_hamiltonian_flagged_with_note():
    inst = instantiate("S5", {"v1": F(1, 3), "v2": F(1, 5), "v3": F(1, 7),
                              "v4": F(-71, 105)})
    assert inst.hamiltonian is not None
    assert inst.hamiltonian_convention is None
    assert any("substitution" in n for n in inst.notes)


# -- classification: examples --------------------------------------------------


def test_classify_p2_three_halves():
    res = classify("P2", {"alpha": F(3, 2)})
    assert res.verdict == NOT_STRONGLY_MINIMAL
    assert res.witness == "alpha ∈ 1/2+Z"
    assert "Umemura" in res.source


def test_classify_s4_example():
    res = classify("S4", {"v1": F(1, 3), "v2": F(1, 3), "v3": F(-2, 3)})
    assert res.verdict == NOT_STRONGLY_MINIMAL
    assert res.witness == "v1 - v2 ∈ Z"


def test_classify_s6_transcendental():
    tab = SymbolTable()
    params = {f"a{i}": tab.declare_param(f"a{i}") for i in (1, 2, 3, 4)}
    res = classify("S6", params, table=tab)
    assert res.verdict == STRONGLY_MINIMAL
    assert res.witness is None
    assert len(res.conditions) == 12


def test_classify_p1_always_minimal():
    res = classify("P1", {})
    assert res.verdict == STRONGLY_MINIMAL
    assert "Kolchin" in res.source or "Nishioka" in res.source


def test_classify_requires_natural_coordinates():
    for family, params in (
            ("P3", {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1}),
            ("P3prime", {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1}),
            ("P4", {"alpha": 1, "beta": 1}),
            ("P5", {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1}),
            ("P6", {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1})):
        with pytest.raises(ConstraintError, match="reduce_parameters"):
            classify(family, params)


def test_classify_p3prime_v_form_matches_s3prime():
    res1 = classify("P3prime", {"v1": F(1, 2), "v2": F(3, 2)})
    res2 = classify("S3prime", {"v1": F(1, 2), "v2": F(3, 2)})
    assert res1.verdict == res2.verdict == NOT_STRONGLY_MINIMAL
    assert res1.witness == res2.witness == "v1 + v2 ∈ 2Z"


def test_classify_s5_reports_display_note():
    res = classify("S5", {"v1": 0, "v2": F(1, 3), "v3": F(1, 5), "v4": F(-8, 15)})
    assert any("v2 - v3" in n for n in res.notes)


def test_witness_present_iff_not_strongly_minimal():
    samples = [("P2", {"alpha": F(1, 2)}), ("P2", {"alpha": F(1, 3)}),
               ("S4", {"v1": F(1, 5), "v2": F(6, 5), "v3": F(-7, 5)}),
               ("S4", {"v1": F(1, 5), "v2": F(1, 7), "v3": F(-12, 35)})]
    for family, params in samples:
        res = classify(family, params)
        assert (res.witness is not None) == (res.verdict == NOT_STRONGLY_MINIMAL)


# -- classification: fixed grids against the oracles ---------------------------

_P2_GRID = [F(n, d) for d in (1, 2, 3, 6) for n in range(-3, 4)] + [F(9, 2), F(22, 7)]

_PAIR_POOL = [F(0), F(1, 2), F(1), F(2), F(1, 3), F(-1, 2), F(5, 2), F(-2),
              F(7, 3), F(1, 6)]


def test_grid_p2_matches_oracle():
    assert len(_P2_GRID) >= 20
    for a in _P2_GRID:
        res = classify("P2", {"alpha": a})
        assert res.verdict == verdict_of(oracle_p2(a)), a


def test_grid_s3prime_matches_oracle():
    pts = list(itertools.product(_PAIR_POOL[:5], _PAIR_POOL[5:]))
    assert len(pts) >= 20
    for v1, v2 in pts:
        res = classify("S3prime", {"v1": v1, "v2": v2})
        assert res.verdict == verdict_of(oracle_s3prime(v1, v2)), (v1, v2)


def test_grid_s4_matches_oracle():
    pts = []
    for v1, v2 in itertools.product(_PAIR_POOL[:5], _PAIR_POOL[5:]):
        pts.append((v1, v2, -v1 - v2))
    assert len(pts) >= 20
    for v1, v2, v3 in pts:
        res = classify("S4", {"v1": v1, "v2": v2, "v3": v3})
        assert res.verdict == verdict_of(oracle_s4(v1, v2, v3)), (v1, v2, v3)


def test_grid_s5_matches_oracle():
    rng = random.Random(11)
    pts = [(F(1, 3), F(1, 5), F(1, 7), F(-71, 105)),
           (F(1, 3), F(4, 3), F(1, 7), F(-38, 21)),
           (F(0), F(1, 2), F(1, 4), F(-3, 4))]
    while len(pts) < 24:
        v = [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7))) for _ in range(3)]
        pts.append((v[0], v[1], v[2], -sum(v)))
    for v1, v2, v3, v4 in pts:
        res = classify("S5", {"v1": v1, "v2": v2, "v3": v3, "v4": v4})
        assert res.verdict == verdict_of(oracle_s5(v1, v2, v3, v4)), (v1, v2, v3, v4)


def test_grid_s6_matches_oracle():
    rng = random.Random(13)
    pts = [(F(1, 2), F(1, 2), F(1, 3), F(1, 5)),       # a1 - a2 = 0
           (F(1, 2), F(-1, 2), F(1, 3), F(1, 5)),      # a1 + a2 = 0
           (F(1, 3), F(1, 5), F(1, 7), F(1, 11))]
    while len(pts) < 24:
        pts.append(tuple(F(rng.randint(-6, 6), rng.choice((2, 3, 5, 7)))
                         for _ in range(4)))
    for a1, a2, a3, a4 in pts:
        res = classify("S6", {"a1": a1, "a2": a2, "a3": a3, "a4": a4})
        assert res.verdict == verdict_of(oracle_s6(a1, a2, a3, a4)), (a1, a2, a3, a4)


def test_p2_verdict_invariant_under_shifts():
    # the exceptional set 1/2+Z is closed under a -> a+1 and a -> -1-a
    for a in _P2_GRID:
        base = classify("P2", {"alpha": a}).verdict
        assert classify("P2", {"alpha": a + 1}).verdict == base
        assert classify("P2", {"alpha": -1 - a}).verdict == base


def test_classify_generic_through_radicals():
    # radical parameters over transcendental radicands stay generic
    tab = SymbolTable()
    g = tab.declare_param("g")
    s = tab.declare_radical("s", 2 * g)
    res = classify("P2", {"alpha": s}, table=tab)
    assert res.verdict == STRONGLY_MINIMAL
    # rational radicand radicals are certainly irrational
    tab2 = SymbolTable()
    r = tab2.declare_radical("r", 2)
    res2 = classify("P2", {"alpha": r}, table=tab2)
    assert res2.verdict == STRONGLY_MINIMAL
    assert all(m == "NotIn" for _, m in res2.conditions)


# -- cross-module: classifier verdict has a Darboux witness --------------------


def test_s2_exceptional_point_has_invariant_curve():
    res = classify("S2", {"alpha": F(-1, 2)})
    assert res.verdict == NOT_STRONGLY_MINIMAL
    inst = instantiate("S2", {"alpha": F(-1, 2)})
    found = darboux_search(inst.derivation, SearchBounds(1, 0, 3))
    assert any(c.P == parse("x", inst.table) for c in found)


# -- parameter reduction --------------------------------------------------------


def test_reduce_p3prime_at_target_parameters():
    tab = SymbolTable()
    al = tab.declare_param("alpha")
    be = tab.declare_param("beta")
    inst, params, relations = reduce_parameters(
        "P3prime", {"alpha": al, "beta": be, "gamma": 4, "delta": -4}, table=tab)
    assert inst.family == "S3prime"
    assert params["v2"] == al / 4
    assert params["v1"] == 1 - be / 4
    assert [name for name, _ in relations] == ["lam", "mu"]
    assert relations[0][1] == tab.one()
    assert relations[1][1] == tab.one()


def test_reduce_p3prime_symbolic_full():
    tab = SymbolTable()
    ps = {n: tab.declare_param(n) for n in ("alpha", "beta", "gamma", "delta")}
    red = reduce_parameters("P3prime", ps, table=tab)
    assert red.instance.family == "S3prime"
    assert len(red.branches) == 4
    assert relations_mention(red.relations, "mu", -16 / (ps["gamma"] * ps["delta"]))
    assert any("mu^2" in n or "-16" in n for n in red.notes)
    assert classify("S3prime", red.params, table=tab).verdict == STRONGLY_MINIMAL


def relations_mention(relations, name, radicand):
    return any(n == name and r == radicand for n, r in relations)


def test_reduce_p5_delta_example():
    red = reduce_parameters("P5", {"alpha": 3, "beta": -2, "gamma": 1,
                                   "delta": F(-1, 2)})
    # eta^2 = -2*delta = 1, so eta degenerates to the rational 1
    eta_rel = [r for n, r in red.relations if n == "eta"]
    assert eta_rel[0].as_fraction() == 1
    assert red.instance.family == "S5"
    assert sum(red.params.values(), red.instance.table.zero()).is_zero()


def test_reduce_not_reducible():
    with pytest.raises(NotReducibleError):
        reduce_parameters("P3", {"alpha": 1, "beta": 2, "gamma": 0, "delta": 1})
    with pytest.raises(NotReducibleError):
        reduce_parameters("P3prime", {"alpha": 1, "beta": 2, "gamma": 1, "delta": 0})
    with pytest.raises(NotReducibleError):
        reduce_parameters("P5", {"alpha": 1, "beta": 2, "gamma": 1, "delta": 0})


def test_reduce_p4_rational_branches():
    red = reduce_parameters("P4", {"alpha": 1, "beta": -2})
    assert len(red.branches) == 2
    diffs = sorted((b["v2"] - b["v1"]).as_fraction() for b in red.branches)
    assert diffs == [F(-1), F(1)]
    assert classify("S4", red.params).verdict == NOT_STRONGLY_MINIMAL


def test_reduce_p4_radical_branch():
    red = reduce_parameters("P4", {"alpha": F(1, 3), "beta": -1})
    # -beta/2 = 1/2 is not a perfect square: branches carry a radical
    assert len(red.branches) == 2
    assert classify("S4", red.params).verdict == STRONGLY_MINIMAL


def test_reduce_with_a_large_prime_radicand_is_fast():
    # -beta/2 = 10000000000037 is prime: root_of's coprime base decides its
    # square class by gcds, without trial division up to its square root
    start = time.perf_counter()
    red = reduce_parameters("P4", {"alpha": 1, "beta": -2 * 10000000000037})
    assert time.perf_counter() - start < 0.05
    assert [(name, r.as_fraction()) for name, r in red.relations] == [("s", 10000000000037)]


def test_reduce_reuses_a_radical_already_on_the_table():
    # -beta/2 = 2 has the root s the caller declared: no second symbol
    tab = SymbolTable()
    s = tab.declare_radical("s", 2)
    red = reduce_parameters("P4", {"alpha": 1, "beta": -4}, table=tab)
    assert red.params["v1"] == -s / 2
    assert red.params["v2"] == s / 2
    assert tab.names == ("t", "s")


def test_reduce_reuses_radicals_across_calls_on_one_table():
    # the second call finds s1 = sqrt(2), s2 = sqrt(6) on the table and
    # takes sqrt(3) = s1*s2/2 and sqrt(6) = s2 from them
    tab = SymbolTable()
    first = reduce_parameters("P6", {"alpha": 1, "beta": -3, "gamma": 2,
                                     "delta": 0}, table=tab)
    names = tab.names
    second = reduce_parameters("P6", {"alpha": 1, "beta": -3, "gamma": F(3, 2),
                                      "delta": F(5, 2)}, table=tab)
    assert tab.names == names
    s1, s2 = tab.sym("s1"), tab.sym("s2")
    assert second.params["a3"] == (s2 + s1 * s2 / 2) / 2
    assert second.params["a1"] == (1 - s2 + s1) / 2
    assert first.params["a1"] != second.params["a1"]


def test_reduce_reuses_a_symbolic_radical_on_the_table():
    tab = SymbolTable()
    g = tab.declare_param("g")
    s = tab.declare_radical("s", 2 * g)
    red = reduce_parameters("P4", {"alpha": 1, "beta": -16 * g}, table=tab)
    assert red.params["v2"] == s
    assert tab.names == ("t", "g", "s")


def test_reduce_identity_for_natural_forms():
    red = reduce_parameters("S2", {"alpha": F(1, 3)})
    assert red.relations == ()
    assert red.params["alpha"].as_fraction() == F(1, 3)
    assert len(red.branches) == 1


def test_reduce_p6_symbolic_branch_count():
    tab = SymbolTable()
    ps = {n: tab.declare_param(n) for n in ("alpha", "beta", "gamma", "delta")}
    red = reduce_parameters("P6", ps, table=tab)
    assert red.instance.family == "S6"
    assert len(red.branches) == 16
    assert classify("S6", red.params, table=tab).verdict == STRONGLY_MINIMAL
    for b in red.branches:
        # alpha = (a1-a2)^2/2 must hold on every branch
        assert (b["a1"] - b["a2"]) ** 2 / 2 == ps["alpha"]
        assert -((b["a3"] + b["a4"]) ** 2) / 2 == ps["beta"]


def test_reduce_branch_agreement_random_rationals():
    rng = random.Random(29)
    for _ in range(10):
        k = F(rng.randint(1, 5), rng.choice((1, 2, 3)))
        beta = -2 * k * k    # forces rational branches v2-v1 = +-k
        alpha = F(rng.randint(-4, 4), rng.choice((1, 3)))
        red = reduce_parameters("P4", {"alpha": alpha, "beta": beta})
        verdicts = {classify("S4", b).verdict for b in red.branches}
        assert len(verdicts) == 1
    for _ in range(6):
        params = {"alpha": F(rng.randint(-3, 3), 2),
                  "beta": F(rng.randint(-3, 3), 3),
                  "gamma": F(rng.randint(1, 4)),
                  "delta": F(rng.randint(-4, -1))}
        red = reduce_parameters("P5", params)
        verdicts = {classify("S5", b).verdict for b in red.branches}
        assert len(verdicts) == 1


def test_reduce_p5_eta_sign_symmetry_needs_all_six_differences():
    # the eta sign flip swaps which pairwise difference fires; with all six
    # conditions the verdict agrees across branches
    red = reduce_parameters("P5", {"alpha": F(1, 2), "beta": F(-1, 2),
                                   "gamma": 2, "delta": F(-1, 2)})
    verdicts = {classify("S5", b).verdict for b in red.branches}
    assert verdicts == {NOT_STRONGLY_MINIMAL}


def test_reduction_result_unpacks_as_triple():
    inst, params, relations = reduce_parameters("P4", {"alpha": 0, "beta": -2})
    assert inst.family == "S4"
    assert set(params) == {"v1", "v2", "v3"}
    assert relations[0][0] == "s"
