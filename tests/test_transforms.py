import time
from collections import namedtuple
from fractions import Fraction as F

import pytest

from painlevekit import catalog, transforms
from painlevekit.errors import (ConstraintError, MapInverseError,
                                RadicalDeclarationError)
from painlevekit.field import PhasePoly, PhaseRational, SymbolTable, parse
from painlevekit.transforms import (CONVENTION_PLUS, VariableMap, compose,
                                    hamiltonian_check, identity_point_map,
                                    identity_scalar_map, inverse,
                                    p2_to_s2_map, p3_to_p3prime_map,
                                    p3prime_scaling_map, verify_transform)

# minimal instance stand-in for hand-built targets
Plain = namedtuple("Plain", ["table", "family", "second_order", "system"])


def _pair(alpha="alpha"):
    tab = SymbolTable()
    a = tab.declare_param(alpha)
    p2 = catalog.instantiate("P2", {"alpha": a}, table=tab)
    s2 = catalog.instantiate("S2", {"alpha": a}, table=tab)
    return tab, a, p2, s2


# -- dependent maps ----------------------------------------------------------


def test_p2_to_s2_symbolic_match():
    tab, a, p2, s2 = _pair()
    t0 = time.monotonic()
    rep = verify_transform(p2, p2_to_s2_map(tab), s2)
    elapsed = time.monotonic() - t0
    assert rep.is_match()
    assert rep.verdict == "Match"
    assert len(rep.residuals) == 2
    assert all(isinstance(r, PhaseRational) and r.is_zero() for r in rep.residuals)
    assert elapsed < 5.0


def test_p2_to_s2_rational_alpha():
    tab = SymbolTable()
    p2 = catalog.instantiate("P2", {"alpha": F(-1, 2)}, table=tab)
    s2 = catalog.instantiate("S2", {"alpha": F(-1, 2)}, table=tab)
    assert verify_transform(p2, p2_to_s2_map(tab), s2).is_match()


def test_p2_to_s2_wrong_target_residual_is_exact():
    tab, a, p2, _ = _pair()
    s2_off = catalog.instantiate("S2", {"alpha": a + 1}, table=tab)
    rep = verify_transform(p2, p2_to_s2_map(tab), s2_off)
    assert rep.verdict == "Mismatch"
    assert rep.residuals[0].is_zero()
    # the x'-component differs by exactly the alpha shift
    assert rep.residuals[1] == 1


def test_trivial_dependent_rewrite():
    # x = y' carries any second-order equation to its companion system
    tab, a, p2, _ = _pair()
    x = PhaseRational.var(tab, "x")
    vmap = VariableMap.dependent(tab, x, x, label="x = y'")
    companion = Plain(tab, "companion", None,
                      (parse("x", tab), parse("2*y^3 + t*y + alpha", tab)))
    assert verify_transform(p2, vmap, companion).is_match()


def test_dependent_inverse_is_checked():
    tab = SymbolTable()
    y = PhaseRational.var(tab, "y")
    x = PhaseRational.var(tab, "x")
    with pytest.raises(MapInverseError, match="psi"):
        VariableMap.dependent(tab, x + y * y, x + y * y)


# -- identity and validation --------------------------------------------------


def test_identity_maps():
    tab, a, p2, s2 = _pair()
    assert verify_transform(s2, identity_point_map(tab), s2).is_match()
    assert verify_transform(p2, identity_scalar_map(tab), p2).is_match()


def test_point_map_component_count():
    tab = SymbolTable()
    y = PhaseRational.var(tab, "y")
    with pytest.raises(ConstraintError, match="two components"):
        VariableMap.point(tab, (y,))


def test_unknown_kind_rejected():
    tab = SymbolTable()
    with pytest.raises(ConstraintError, match="unknown map kind"):
        VariableMap(tab, "conformal")


def test_time_change_must_move_t():
    tab = SymbolTable()
    y = PhaseRational.var(tab, "y")
    with pytest.raises(ConstraintError, match="depend on t"):
        VariableMap.scalar(tab, y, sigma=2)


def test_time_inverse_is_checked():
    tab = SymbolTable()
    y = PhaseRational.var(tab, "y")
    t = tab.t()
    with pytest.raises(MapInverseError, match="time inverse"):
        VariableMap.scalar(tab, y, sigma=t * t, time_inverse=t)


def test_tables_must_agree():
    tab, a, p2, s2 = _pair()
    other = SymbolTable()
    other.declare_param("alpha")
    foreign = catalog.instantiate("S2", {"alpha": other.sym("alpha")}, table=other)
    with pytest.raises(ConstraintError, match="share one symbol table"):
        verify_transform(p2, p2_to_s2_map(tab), foreign)


def test_missing_forms_are_reported():
    tab, a, p2, s2 = _pair()
    with pytest.raises(ConstraintError, match="no second-order form"):
        verify_transform(s2, identity_scalar_map(tab), s2)
    with pytest.raises(ConstraintError, match="no system form"):
        verify_transform(s2, identity_point_map(tab), p2)


# -- Hamiltonian checks --------------------------------------------------------


def test_s3prime_hamiltonian_minus():
    tab = SymbolTable()
    v1 = tab.declare_param("v1")
    v2 = tab.declare_param("v2")
    inst = catalog.instantiate("S3prime", {"v1": v1, "v2": v2}, table=tab)
    rep = hamiltonian_check(inst.hamiltonian, inst.system)
    assert rep.is_match()
    assert not hamiltonian_check(inst.hamiltonian, inst.system,
                                 CONVENTION_PLUS).is_match()


def test_p1_printed_hamiltonian_residual_is_2t():
    inst = catalog.instantiate("P1", {})
    rep = hamiltonian_check(inst.hamiltonian, inst.system)
    assert rep.verdict == "Mismatch"
    assert rep.residuals[0].is_zero()
    assert rep.residuals[1] == 2 * inst.table.t()


def test_p1_corrected_hamiltonian_matches():
    inst = catalog.instantiate("P1", {}, corrected_hamiltonian=True)
    assert hamiltonian_check(inst.hamiltonian, inst.system).is_match()


def test_zero_hamiltonian_zero_system():
    tab = SymbolTable()
    zero = PhasePoly.zero(tab)
    assert hamiltonian_check(zero, (zero, zero)).is_match()


def test_convention_validated():
    inst = catalog.instantiate("P1", {})
    with pytest.raises(ConstraintError, match="convention"):
        hamiltonian_check(inst.hamiltonian, inst.system, "anti")


# -- scalar maps between the third-family forms ---------------------------------


def _p3prime_pair(relation):
    tab = SymbolTable()
    ps = {n: tab.declare_param(n) for n in ("alpha", "beta", "gamma", "delta")}
    src = catalog.instantiate("P3prime", ps, table=tab)
    vmap = p3prime_scaling_map(tab, relation)
    lam = tab.sym("lam")
    mu = tab.sym("mu")
    return tab, ps, src, vmap, lam, mu


def test_scaling_printed_relations_miss_target():
    tab, ps, src, vmap, lam, mu = _p3prime_pair("printed")
    tgt = catalog.instantiate(
        "P3prime", {"alpha": lam * ps["alpha"], "beta": mu * ps["beta"] / lam,
                    "gamma": 4, "delta": -4}, table=tab)
    rep = verify_transform(src, vmap, tgt)
    assert rep.verdict == "Mismatch"


def test_scaling_corrected_relations_hit_target():
    tab, ps, src, vmap, lam, mu = _p3prime_pair("corrected")
    tgt = catalog.instantiate(
        "P3prime", {"alpha": lam * ps["alpha"], "beta": mu * ps["beta"] / lam,
                    "gamma": 4, "delta": -4}, table=tab)
    rep = verify_transform(src, vmap, tgt)
    assert rep.is_match()
    assert vmap.relations[0][1] == 4 / ps["gamma"]
    assert vmap.relations[1][1] == -16 / (ps["gamma"] * ps["delta"])


def test_scaling_general_parameter_transport():
    tab, ps, src, vmap, lam, mu = _p3prime_pair("general")
    tgt = catalog.instantiate(
        "P3prime", {"alpha": lam * ps["alpha"], "beta": mu * ps["beta"] / lam,
                    "gamma": lam ** 2 * ps["gamma"],
                    "delta": mu ** 2 * ps["delta"] / lam ** 2}, table=tab)
    assert verify_transform(src, vmap, tgt).is_match()
    assert vmap.relations == ()
    # the supplied inverse runs the transport backwards
    assert verify_transform(tgt, inverse(vmap), src).is_match()


def test_scaling_unknown_relation_choice():
    tab = SymbolTable()
    tab.declare_param("gamma")
    tab.declare_param("delta")
    with pytest.raises(ConstraintError, match="relation choice"):
        p3prime_scaling_map(tab, "folklore")


def _greek_table():
    tab = SymbolTable()
    for n in ("alpha", "beta", "gamma", "delta"):
        tab.declare_param(n)
    return tab


def test_scaling_map_reuses_scale_symbols_with_the_same_relations():
    tab = _greek_table()
    first = p3prime_scaling_map(tab, "corrected")
    names = tab.names
    second = p3prime_scaling_map(tab, "corrected")
    assert tab.names == names
    assert second.relations == first.relations


def test_scaling_map_refuses_a_scale_symbol_with_another_relation():
    # mu^2 = 1/(gamma*delta) on the table cannot serve as
    # mu^2 = -16/(gamma*delta)
    tab = _greek_table()
    p3prime_scaling_map(tab, "printed")
    with pytest.raises(RadicalDeclarationError, match="'mu'"):
        p3prime_scaling_map(tab, "corrected")


def test_scaling_map_refuses_a_parameter_named_mu():
    tab = _greek_table()
    tab.declare_param("mu")
    with pytest.raises(RadicalDeclarationError, match="'mu'"):
        p3prime_scaling_map(tab, "corrected")


def test_general_scaling_map_refuses_radical_scale_symbols():
    # after "printed", mu^2 = 1/(gamma*delta) holds on the table, so a
    # "general" map through that mu would hide a relation
    tab = _greek_table()
    p3prime_scaling_map(tab, "printed")
    with pytest.raises(RadicalDeclarationError, match="'lam'"):
        p3prime_scaling_map(tab, "general")


def test_general_scaling_map_reuses_its_parameters():
    tab = _greek_table()
    first = p3prime_scaling_map(tab, "general")
    names = tab.names
    second = p3prime_scaling_map(tab, "general")
    assert tab.names == names
    assert second.relations == first.relations == ()


def test_p3_to_p3prime_halving():
    tab = SymbolTable()
    ps = {n: tab.declare_param(n) for n in ("alpha", "beta", "gamma", "delta")}
    p3 = catalog.instantiate("P3", ps, table=tab)
    p3p = catalog.instantiate("P3prime", ps, table=tab)
    assert verify_transform(p3, p3_to_p3prime_map(tab), p3p).is_match()
    assert verify_transform(p3, p3_to_p3prime_map(tab, alt=True),
                            p3p).verdict == "Mismatch"


# -- composition and inversion ---------------------------------------------------


def test_compose_dependent_then_point():
    tab, a, p2, s2 = _pair()
    y = PhaseRational.var(tab, "y")
    x = PhaseRational.var(tab, "x")
    doubler = VariableMap.point(tab, (y, 2 * x), inverse=(y, x / 2),
                                label="X = 2x")
    target = Plain(tab, "doubled", None,
                   (parse("1/2*x - y^2 - 1/2*t", tab),
                    parse("2*x*y + 2*alpha + 1", tab)))
    assert verify_transform(s2, doubler, target).is_match()
    composed = compose(p2_to_s2_map(tab), doubler)
    assert composed.kind == "dependent"
    assert verify_transform(p2, composed, target).is_match()


def test_compose_point_with_time_change():
    tab = SymbolTable()
    t = tab.t()
    y = PhaseRational.var(tab, "y")
    x = PhaseRational.var(tab, "x")
    src = Plain(tab, "drift", None, (parse("x", tab), parse("t", tab)))
    stretch = VariableMap.point(tab, (y, x), sigma=2 * t, inverse=(y, x),
                                time_inverse=t / 2, label="T = 2t")
    tgt = Plain(tab, "drift2", None, (parse("1/2*x", tab), parse("1/4*t", tab)))
    assert verify_transform(src, stretch, tgt).is_match()
    twice = compose(stretch, stretch)
    assert twice._sigma_elem() == 4 * t
    tgt4 = Plain(tab, "drift4", None, (parse("1/4*x", tab), parse("1/16*t", tab)))
    assert verify_transform(src, twice, tgt4).is_match()


def test_compose_rejects_unsupported_shapes():
    tab, a, p2, s2 = _pair()
    y = PhaseRational.var(tab, "y")
    x = PhaseRational.var(tab, "x")
    scal = identity_scalar_map(tab)
    with pytest.raises(ConstraintError, match="not supported"):
        compose(scal, identity_point_map(tab))
    moving = VariableMap.point(tab, (y + 1, x), inverse=(y - 1, x))
    with pytest.raises(ConstraintError, match="fix y"):
        compose(p2_to_s2_map(tab), moving)
    no_inv = VariableMap.point(tab, (y, 2 * x))
    with pytest.raises(MapInverseError, match="inverse"):
        compose(p2_to_s2_map(tab), no_inv)
    t = tab.t()
    timed = VariableMap.point(tab, (y, x), sigma=2 * t, inverse=(y, x),
                              time_inverse=t / 2)
    with pytest.raises(ConstraintError, match="time change"):
        compose(p2_to_s2_map(tab), timed)


def test_inverse_requires_supplied_data():
    tab, a, p2, s2 = _pair()
    with pytest.raises(MapInverseError, match="reduce order"):
        inverse(p2_to_s2_map(tab))
    y = PhaseRational.var(tab, "y")
    with pytest.raises(MapInverseError, match="no supplied inverse"):
        inverse(VariableMap.scalar(tab, 2 * y))
    t = tab.t()
    half = VariableMap.scalar(tab, 2 * y, sigma=t * t, inverse=y / 2)
    with pytest.raises(MapInverseError, match="time change"):
        inverse(half)


def test_inverse_point_round_trip():
    tab = SymbolTable()
    y = PhaseRational.var(tab, "y")
    x = PhaseRational.var(tab, "x")
    m = VariableMap.point(tab, (y + 1, x - y), inverse=(y - 1, x + y - 1),
                          label="shear")
    mi = inverse(m)
    assert mi.comps[0] == y - 1
    both = compose(m, mi)
    assert both.comps[0] == y
    assert both.comps[1] == x


def test_report_repr_mentions_verdict():
    tab, a, p2, s2 = _pair()
    rep = verify_transform(p2, p2_to_s2_map(tab), s2)
    assert "Match" in repr(rep)
