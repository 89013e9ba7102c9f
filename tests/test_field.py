"""Exact-arithmetic layer: canonical forms, radicals, parsing, membership."""

import ast
import logging
import operator
import pathlib
import threading
from fractions import Fraction

import pytest

from painlevekit import field
from painlevekit.errors import (
    DivisionByZeroError,
    NonNumericError,
    NotDivisibleError,
    ParseError,
    RadicalDeclarationError,
    UnknownSymbolError,
)
from painlevekit.field import (
    FieldElem,
    Membership,
    PhasePoly,
    PhaseRational,
    Rat,
    SymbolTable,
    exact_divide,
    membership_test,
    parse,
    parse_poly,
)


def test_rat_is_exact_fraction():
    assert Rat is Fraction
    assert Rat(2, 4) == Rat(1, 2)


# ---------------------------------------------------------------------------
# symbol table


def test_t_is_first_symbol():
    tab = SymbolTable()
    assert tab.names[0] == "t"
    assert tab.index("t") == 0
    assert tab.kind("t") == "independent-variable"


def test_declare_param_and_kinds():
    tab = SymbolTable()
    a = tab.declare_param("alpha")
    assert tab.kind("alpha") == "transcendental-parameter"
    assert a.d().is_zero()


def test_param_with_named_derivative():
    tab = SymbolTable()
    ap = tab.declare_param("aprime")
    a = tab.declare_param("a", derivative="aprime")
    assert a.d() == ap
    assert ap.d().is_zero()


def test_derivative_symbol_must_exist():
    tab = SymbolTable()
    with pytest.raises(UnknownSymbolError):
        tab.declare_param("a", derivative="nope")


def test_duplicate_and_reserved_names_rejected():
    tab = SymbolTable()
    tab.declare_param("alpha")
    with pytest.raises(RadicalDeclarationError):
        tab.declare_param("alpha")
    with pytest.raises(RadicalDeclarationError):
        tab.declare_param("x")
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("u1", 2)


def test_table_is_append_only_safe():
    # values built before a later declaration stay valid and comparable
    tab = SymbolTable()
    t = tab.t()
    before = (t + 1) * (t - 1)
    tab.declare_param("beta")
    after = t * t - 1
    assert before == after
    b = tab.sym("beta")
    assert (before + b) - b == after


# ---------------------------------------------------------------------------
# field arithmetic and canonical form


def test_gcd_reduction():
    tab = SymbolTable()
    t = tab.t()
    assert (t**2 - 1) / (t + 1) == t - 1
    assert (t**3 - t) / (t**2 - t) == t + 1


def test_monic_denominator_normalization():
    tab = SymbolTable()
    t = tab.t()
    # 1/(2t - 2) and (1/2)/(t - 1) must be the same object up to equality
    assert tab.one() / (2 * t - 2) == tab.const(Fraction(1, 2)) / (t - 1)


def test_equality_and_hash_on_canonical_form():
    tab = SymbolTable()
    t = tab.t()
    a = (t + 1) ** 2
    b = t**2 + 2 * t + 1
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# -- fast paths: less work, the same canonical form


def _counting(monkeypatch, name):
    calls = []
    real = getattr(field, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(field, name, counted)
    return calls


def test_polynomial_product_makes_no_gcd_call(monkeypatch):
    tab = SymbolTable()
    a = tab.declare_param("a")
    t = tab.t()
    p, q = t**2 + a * t - 3, 2 * t - a + 1
    gcds = _counting(monkeypatch, "_pgcd")
    prod = p * q
    assert gcds == []
    monkeypatch.undo()
    assert prod == parse("2*t^3 + a*t^2 + t^2 - a^2*t + a*t - 6*t + 3*a - 3", tab)


def test_radical_free_operands_skip_the_radical_passes(monkeypatch):
    tab = SymbolTable()
    a = tab.declare_param("a")
    tab.declare_radical("s", 2)
    t = tab.t()
    x, y = (t + a) / (t - 1), (t - 1) / (a + 2)
    passes = _counting(monkeypatch, "_clear_radicals")
    _ = x * y, x / y, x + y, x.d()
    assert passes == []


def test_radical_operand_takes_the_radical_passes(monkeypatch):
    tab = SymbolTable()
    s = tab.declare_radical("s", 2)
    x, y = 1 + s, tab.t() + 1
    passes = _counting(monkeypatch, "_clear_radicals")
    assert str(x * y) == "t*s + t + s + 1"
    assert passes
    assert str(x * x) == "2*s + 3"


def test_radical_quotient_times_its_conjugate_factor():
    tab = SymbolTable()
    s = tab.declare_radical("s", 2)
    q = (1 + s) / (1 - s)
    assert str(q) == "-2*s - 3"
    z = q * (1 - s)
    assert z == 1 + s
    assert (z.num, z.den) == ({(0, 1): 1, (): 1}, {(): 1})


def test_denominator_vanishing_through_a_relation_is_division_by_zero():
    tab = SymbolTable()
    tab.declare_radical("s", 2)
    with pytest.raises(DivisionByZeroError):
        FieldElem(tab, {(): Fraction(1)}, {(0, 2): Fraction(1), (): Fraction(-2)})


def test_zero_and_division_guards():
    tab = SymbolTable()
    t = tab.t()
    assert (t - t).is_zero()
    with pytest.raises(DivisionByZeroError):
        tab.one() / (t - t)


def test_pow_including_negative():
    tab = SymbolTable()
    t = tab.t()
    assert t**3 == t * t * t
    assert t**-2 == tab.one() / (t * t)
    assert (t + 1) ** 0 == 1


def test_as_fraction():
    tab = SymbolTable()
    t = tab.t()
    assert tab.const(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    zero = tab.zero().as_fraction()
    assert type(zero) is Fraction and zero == 0
    assert t.as_fraction() is None
    assert ((t + 1) - t).as_fraction() == 1


@pytest.mark.parametrize("bad", [0.1, float("nan"), "1/3", 1j, None])
def test_const_refuses_what_is_not_a_rational(bad):
    # as_elem and PhasePoly.const refuse the same values alike
    tab = SymbolTable()
    for build in (tab.const, lambda c: PhasePoly.const(tab, c)):
        with pytest.raises(TypeError, match="cannot coerce"):
            build(bad)


def test_const_accepts_int_bool_and_fraction():
    tab = SymbolTable()
    assert tab.const(True) == 1 and tab.const(False).is_zero()
    for c in (3, Fraction(-2, 7)):
        z = tab.const(c)
        assert z.as_fraction() == c
        assert all(type(v) is Fraction for v in (*z.num.values(), *z.den.values()))


def test_const_returns_fresh_dicts():
    # the constants share immutable Fractions, never a dict a caller may mutate
    tab = SymbolTable()
    for c in (1, Fraction(3, 4), 0):
        z = tab.const(c)
        z.num[(5,)] = Fraction(9)
        z.den[(5,)] = Fraction(9)
        assert tab.const(c).as_fraction() == c
    one = tab.one()
    assert one.num == {(): 1} and one.den == {(): 1}
    assert field._pconst(1) is not field._pconst(1)


def test_derivation_quotient_rule():
    tab = SymbolTable()
    a = tab.declare_param("a")
    t = tab.t()
    q = (a + t) / (a - t)
    # hand derivative: ((a-t) + (a+t)) / (a-t)^2
    assert q.d() == 2 * a / ((a - t) ** 2)
    assert (t**5).d() == 5 * t**4
    assert tab.const(7).d().is_zero()


def test_substitution():
    tab = SymbolTable()
    t = tab.t()
    h = (t**2 + 1) / t
    assert h.subs("t", tab.const(2)) == Fraction(5, 2)
    with pytest.raises(DivisionByZeroError):
        h.subs("t", tab.zero())


def test_eval_complex_matches_exact():
    tab = SymbolTable()
    a = tab.declare_param("a")
    t = tab.t()
    e = (t**2 - a) / (t + a)
    for tv, av in [(2, 3), (-1, 5), (Fraction(1, 2), Fraction(1, 3))]:
        exact = e.subs("t", tab.const(tv)).subs("a", tab.const(av)).as_fraction()
        approx = e.eval_complex({"t": complex(tv), "a": complex(av)})
        assert abs(approx - complex(exact)) < 1e-12


def test_t_coefficients():
    tab = SymbolTable()
    a = tab.declare_param("a")
    r2 = tab.declare_radical("r2", 2)
    t = tab.t()
    assert (3 * t ** 2 - Fraction(1, 2)).t_coefficients() == {2: 3, 0: Fraction(-1, 2)}
    assert tab.zero().t_coefficients() == {}
    assert tab.const(5).t_coefficients() == {0: 5}
    for z in (1 / t, a, r2, t + a, (t + 1) / 2 + r2):
        assert z.t_coefficients() is None


def test_complex_t_coefficients():
    tab = SymbolTable()
    a = tab.declare_param("a")
    r2 = tab.declare_radical("r2", 2)
    t = tab.t()
    values = {tab.index("r2"): 2 ** 0.5}
    num, den = ((t ** 2 * r2 + 3) / (2 * t + 1)).complex_t_coefficients(values)
    assert den == [0.5, 1]
    assert num == [1.5, 0, complex(2 ** 0.5 / 2)]
    assert tab.zero().complex_t_coefficients({}) == ([0j], [1])
    with pytest.raises(NonNumericError, match="parameter 'a' has no numeric value"):
        (t + a * r2).complex_t_coefficients(values)


def test_no_module_but_field_imports_its_private_names():
    # the sparse-dict representation stays behind field's public methods
    package = pathlib.Path(field.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("field", "painlevekit.field"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from field"


# ---------------------------------------------------------------------------
# radicals


def test_radical_square_rewrites():
    tab = SymbolTable()
    s = tab.declare_radical("s", -2)
    assert s * s == -2
    assert s**3 == -2 * s
    assert s**4 == 4


def test_radical_rationalized_denominator():
    tab = SymbolTable()
    s = tab.declare_radical("s", 2)
    inv = 1 / (1 + s)
    # (1+sqrt2)^-1 = sqrt2 - 1
    assert inv == s - 1
    assert inv * (1 + s) == 1


def test_nested_radical_tower():
    tab = SymbolTable()
    s2 = tab.declare_radical("s2", 2)
    s3 = tab.declare_radical("s3", 3)
    u = tab.declare_radical("u", s2 + s3)
    assert u * u == s2 + s3
    v = 1 / (1 + u)
    assert v * (1 + u) == 1
    # denominator must be radical-free after canonicalization
    assert not any(k >= 1 for e in v.den for k in e[1:])


def test_radical_of_parameter():
    tab = SymbolTable()
    b = tab.declare_param("beta")
    s = tab.declare_radical("s", -2 * b)
    assert s * s == -2 * b
    assert s.d().is_zero()


def test_radical_indices_increase_in_declaration_order():
    tab = SymbolTable()
    a = tab.declare_param("a")
    s2 = tab.declare_radical("s2", 2)
    tab.declare_param("b")
    tab.declare_radical("sa", a)
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("r8", 8)  # 2*s2 is a square root already
    tab.declare_radical("u", s2 + 1)
    idx = tab.radical_indices()
    assert list(idx) == [tab.index(n) for n in ("s2", "sa", "u")]
    assert all(i < j for i, j in zip(idx, idx[1:]))
    assert "r8" not in tab.names


def test_perfect_square_radicand_rejected():
    tab = SymbolTable()
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("s", 4)
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("s", Fraction(9, 16))


def test_zero_radicand_rejected():
    tab = SymbolTable()
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("s", 0)


def test_nonconstant_radicand_rejected():
    tab = SymbolTable()
    t = tab.t()
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("s", t + 1)


def test_multiplicatively_dependent_radicands_rejected():
    tab = SymbolTable()
    tab.declare_radical("r6", 6)
    tab.declare_radical("r3", 3)
    # sqrt(2) = sqrt(6)/sqrt(3) up to rationals
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("r2", 2)
    # sqrt(8) = 2 sqrt(2) is dependent through the pair as well
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("r8", 8)


def test_root_of_finds_roots_already_in_the_field():
    tab = SymbolTable()
    a = tab.declare_param("a")
    r6 = tab.declare_radical("r6", 6)
    r3 = tab.declare_radical("r3", 3)
    s = tab.declare_radical("s", 2 * a)
    assert tab.root_of(Fraction(9, 4)) == Fraction(3, 2)
    assert tab.root_of(0) == 0
    assert tab.root_of(8) == 2 * r6 / r3
    assert tab.root_of(Fraction(-2, 3)) is None
    assert tab.root_of(5) is None
    assert tab.root_of(8 * a) == 2 * s
    assert tab.root_of(-2 * a) is None
    # 3a = (6/4) * 2a: a product of one symbolic radical and rational ones
    assert tab.root_of(3 * a) == r6 * s / 2
    assert tab.root_of(-3 * a) is None
    for q in (Fraction(9, 4), 8, Fraction(50, 3)):
        root = tab.root_of(q)
        assert root * root == q


def test_product_radicands_are_roots_already_in_the_field():
    # u^2 = 2a would make x = u - r2*sa a zero divisor: x*(u + r2*sa) = 0
    tab = SymbolTable()
    a = tab.declare_param("a")
    r2 = tab.declare_radical("r2", 2)
    sa = tab.declare_radical("sa", a)
    assert tab.root_of(2 * a) == r2 * sa
    with pytest.raises(RadicalDeclarationError, match=r"\(r2\*sa\)\^2"):
        tab.declare_radical("u", 2 * a)
    with pytest.raises(RadicalDeclarationError, match="duplicates sa"):
        tab.declare_radical("v", 9 * a)


def test_sign_tracked_in_dependence():
    tab = SymbolTable()
    tab.declare_radical("i", -1)
    tab.declare_radical("r2", 2)
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("rm2", -2)  # sqrt(-2) = i sqrt(2)
    tab2 = SymbolTable()
    tab2.declare_radical("r2", 2)
    tab2.declare_radical("rm2", -2)  # fine without i: ratio is -1, not a square


def test_symbolic_radicand_duplicate_rejected():
    tab = SymbolTable()
    b = tab.declare_param("beta")
    tab.declare_radical("s", -2 * b)
    with pytest.raises(RadicalDeclarationError):
        tab.declare_radical("s2", -8 * b)  # -8b = 4 * (-2b)


# ---------------------------------------------------------------------------
# membership


Z = "Z"
TWO_Z = "2Z"
HALF = "HalfPlusZ"


@pytest.mark.parametrize(
    "value,which,verdict",
    [
        (Fraction(3), Z, Membership.IN),
        (Fraction(-7), Z, Membership.IN),
        (Fraction(1, 2), Z, Membership.NOT_IN),
        (Fraction(4), TWO_Z, Membership.IN),
        (Fraction(3), TWO_Z, Membership.NOT_IN),
        (Fraction(1, 3), TWO_Z, Membership.NOT_IN),
        (Fraction(1, 2), HALF, Membership.IN),
        (Fraction(-5, 2), HALF, Membership.IN),
        (Fraction(1), HALF, Membership.NOT_IN),
        (Fraction(1, 4), HALF, Membership.NOT_IN),
    ],
)
def test_membership_rational(value, which, verdict):
    tab = SymbolTable()
    assert membership_test(tab.const(value), which) == verdict


def test_membership_generic_for_parameters():
    tab = SymbolTable()
    a = tab.declare_param("a")
    t = tab.t()
    assert membership_test(a, Z) == Membership.GENERIC_NOT_IN
    assert membership_test(a + 1, Z) == Membership.GENERIC_NOT_IN
    assert membership_test(t / 2, TWO_Z) == Membership.GENERIC_NOT_IN


def test_membership_certain_for_rational_radicals():
    tab = SymbolTable()
    s = tab.declare_radical("s", 2)
    assert membership_test(s, Z) == Membership.NOT_IN
    assert membership_test(s + 3, Z) == Membership.NOT_IN
    assert membership_test(s / 2 + Fraction(1, 2), HALF) == Membership.NOT_IN


def test_membership_sees_parameters_through_radicals():
    tab = SymbolTable()
    b = tab.declare_param("beta")
    s = tab.declare_radical("s", -2 * b)
    assert membership_test(s, Z) == Membership.GENERIC_NOT_IN
    assert membership_test(1 - s / 2, HALF) == Membership.GENERIC_NOT_IN


def test_membership_radical_combination_collapsing_to_rational():
    tab = SymbolTable()
    s = tab.declare_radical("s", 2)
    assert membership_test(s * s, TWO_Z) == Membership.IN
    assert membership_test(s * s / 2 + Fraction(1, 2), HALF) == Membership.IN


def test_membership_unknown_set_rejected():
    tab = SymbolTable()
    with pytest.raises(ValueError):
        membership_test(tab.one(), "3Z")


# ---------------------------------------------------------------------------
# phase polynomials


def test_phase_poly_basic_algebra():
    tab = SymbolTable()
    x = PhasePoly.var(tab, "x")
    y = PhasePoly.var(tab, "y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.deg_xy() == 2
    assert (p - p).is_zero()


def test_phase_poly_with_field_coefficients():
    tab = SymbolTable()
    t = tab.t()
    x = PhasePoly.var(tab, "x")
    y = PhasePoly.var(tab, "y")
    p = x * x - y * y * y * t
    assert p.coefficient((2, 0, 0, 0)) == 1
    assert p.coefficient((0, 3, 0, 0)) == -t
    assert p.deg_t() == 1


def test_deg_t_rejects_rational_coefficients():
    tab = SymbolTable()
    t = tab.t()
    x = PhasePoly.var(tab, "x")
    p = x.scale(tab.one() / t)
    with pytest.raises(NotDivisibleError):
        p.deg_t()


def test_partials_and_coefficient_derivative():
    tab = SymbolTable()
    t = tab.t()
    p = parse("x^2*y + t*y^3", tab)
    assert p.partial("x") == parse("2*x*y", tab)
    assert p.partial("y") == parse("x^2 + 3*t*y^2", tab)
    assert p.coeff_d() == parse("y^3", tab)


def test_tangent_variables():
    tab = SymbolTable()
    p = parse("u1*x + u2*y^2", tab)
    assert p.has_uvars()
    assert p.partial("u1") == parse("x", tab)


def test_exact_divide_cases():
    tab = SymbolTable()
    t = tab.t()
    p = parse("x^2 - y^2", tab)
    assert exact_divide(p, parse("x - y", tab)) == parse("x + y", tab)
    assert exact_divide(p, parse("x + 1", tab)) is None
    q = parse("t*x^2 + t*x", tab)
    assert exact_divide(q, parse("x + 1", tab)) == parse("t*x", tab)
    with pytest.raises(DivisionByZeroError):
        exact_divide(p, PhasePoly.zero(tab))


def test_phase_rational_cross_equality():
    tab = SymbolTable()
    r = parse("(x^2 - y^2)/(x - y)", tab, allow_rational=True)
    # exact divide collapses it to a polynomial at parse time
    assert isinstance(r, PhasePoly)
    assert r == parse("x + y", tab)
    r2 = parse("(x + y)/(x - y)", tab, allow_rational=True)
    assert isinstance(r2, PhaseRational)
    assert r2 * parse("x - y", tab) == parse("x + y", tab)


def test_phase_equality_with_a_foreign_value_is_false():
    # as for FieldElem, another type or another table compares unequal
    # instead of raising
    tab, other = SymbolTable(), SymbolTable()
    p, r = parse("x + 1", tab), parse("(x + 1)/(y - 2)", tab, allow_rational=True)
    assert isinstance(r, PhaseRational)
    for v in (p, r):
        for foreign in ("x", None, 1.5, parse("x + 1", other), other.one(),
                        PhaseRational.from_poly(parse("x + 1", other))):
            assert not v == foreign and v != foreign
            assert not foreign == v and foreign != v
    assert r == PhaseRational(tab, p, parse("y - 2", tab))
    assert p == PhaseRational.from_poly(p) and p == parse("x + 1", tab)


def test_phase_rational_partial():
    tab = SymbolTable()
    r = parse("y/(x - y)", tab, allow_rational=True)
    # d/dx [y/(x-y)] = -y/(x-y)^2
    expect = parse("-y", tab), parse("(x-y)^2", tab)
    got = r.partial("x")
    assert got.num * expect[1] == expect[0] * got.den


def test_substitute_phase_variables():
    tab = SymbolTable()
    p = parse("x^2 + y", tab)
    sub = p.subs_phase({"x": parse("y + 1", tab, allow_rational=True)})
    assert sub.as_poly() == parse("y^2 + 3*y + 1", tab)


def test_phase_eval_complex():
    tab = SymbolTable()
    t = tab.t()
    p = parse("x^2 - t*y", tab)
    v = p.eval_complex({"t": 2.0 + 0j}, x=3 + 0j, y=1 + 0j)
    assert abs(v - 7.0) < 1e-14


def _common_factor_quotient(tab):
    return parse_poly("(x + t)*(y - 1)", tab), parse_poly("(x + t)*(x + 2)", tab)


def test_cancel_cap_keeps_the_quotient_as_built(monkeypatch):
    tab = SymbolTable()
    num, den = _common_factor_quotient(tab)
    units = []
    spend = field._spend

    def counted(budget, n):
        if budget is not None:
            units.append(n)
        return spend(budget, n)

    monkeypatch.setattr(field, "_spend", counted)
    got = field._phase_cancel(num, den)
    assert (str(got[0]), str(got[1])) == ("y - 1", "x + 2")
    # the gcd of this pair costs 32 units of work: its content gcds are
    # coprime and settled by their mod-p images, which charge nothing
    assert sum(units) == 32
    monkeypatch.setattr(field, "_CANCEL_CAP", 10)
    got = field._phase_cancel(num, den)
    assert got[0] is num and got[1] is den


def test_exhausted_cancel_budget_is_logged(monkeypatch, caplog):
    tab = SymbolTable()
    num, den = _common_factor_quotient(tab)
    with caplog.at_level(logging.DEBUG, logger="painlevekit"):
        field._phase_cancel(num, den)
        assert not caplog.records
        monkeypatch.setattr(field, "_CANCEL_CAP", 10)
        field._phase_cancel(num, den)
    [record] = caplog.records
    assert (record.name, record.levelno) == ("painlevekit.field", logging.DEBUG)
    assert record.msg.startswith("gcd budget")
    assert record.args == (10, 4, 4)


def test_coprime_quotient_is_kept_without_a_prs(monkeypatch):
    tab = SymbolTable()
    num, den = parse_poly("(x + t)*(y - 1)", tab), parse_poly("x + 2", tab)
    prems = _counting(monkeypatch, "_prem")
    got = field._phase_cancel(num, den)
    assert prems == []
    assert got[0] is num and got[1] is den


def test_exact_division_over_z_refuses_a_rational_quotient():
    # (t + 1)/(2t + 2) = 1/2 divides over Q but not over Z, where the
    # reduction stops at the leading term it cannot cancel
    a, b = {(1,): 1, (): 1}, {(1,): 2, (): 2}
    assert field._pdiv_exact(a, b) == {(): Fraction(1, 2)}
    assert field._pdiv_exact(a, b, operator.floordiv) is None


def test_metered_gcd_of_coprime_operands_spends_no_units(monkeypatch):
    # a metered gcd asks the mod-p check as an unmetered one does, and
    # operands it proves coprime charge nothing
    a = field._padd(field._pvar(0), field._pconst(1))
    b = field._padd(field._pvar(1), field._pconst(2))
    checks = _counting(monkeypatch, "_coprime_mod_p")
    budget = [field._CANCEL_CAP]
    assert field._pgcd(a, b, budget) == field._pconst(1)
    assert len(checks) == 1
    assert budget == [field._CANCEL_CAP]


def test_quotient_by_a_monomial_runs_no_prs(monkeypatch):
    tab = SymbolTable()
    a = tab.declare_param("a")
    t = tab.t()
    x = t**2 * a + 3 * a**2 * t
    gcds, prs = _counting(monkeypatch, "_pgcd"), _counting(monkeypatch, "_zgcd")
    q = x / (2 * a * t**2)
    assert gcds and prs == []
    monkeypatch.undo()
    assert q == parse("(t + 3*a)/(2*t)", tab)


def test_rational_operands_take_closed_forms(monkeypatch):
    # a rational times a rational or a radical element, and d() of a
    # polynomial, need neither a cross-cancellation nor a gcd
    tab = SymbolTable()
    a = tab.declare_param("a")
    s = tab.declare_radical("s", a + 1)
    t = tab.t()
    k = tab.const(Fraction(-3, 4))
    z = (t * s + a) / (t + a)
    p = t**3 * a - 2 * a**2 * t + 5
    henrici = _counting(monkeypatch, "_henrici_product")
    gcds = _counting(monkeypatch, "_pgcd")
    got = k * Fraction(2, 3), k * z, z * k, z / k, p.d()
    assert henrici == [] and gcds == []
    monkeypatch.undo()
    assert [str(v) for v in got] == [
        "-1/2", "(-3/4*t*s - 3/4*a)/(t + a)", "(-3/4*t*s - 3/4*a)/(t + a)",
        "(-4/3*t*s - 4/3*a)/(t + a)", "3*t^2*a - 2*a^2"]
    assert got[1] == FieldElem(tab, field._pmul(k.num, z.num), z.den)


def test_metered_gcd_with_a_one_term_operand_spends_no_units(monkeypatch):
    a = {(2, 1): Fraction(1), (1, 2): Fraction(-3, 2), (1, 1, 4): Fraction(5)}
    b = {(3, 1, 1): Fraction(7, 3)}
    g = field._zgcd(field._primitive(a), field._primitive(b))
    units = []
    spend = field._spend

    def counted(budget, n):
        units.append(n)
        return spend(budget, n)

    monkeypatch.setattr(field, "_spend", counted)
    for p, q in ((a, b), (b, a)):
        budget = [field._CANCEL_CAP]
        assert field._pgcd(p, q, budget) == {(1, 1): Fraction(1)} == g
        assert budget == [field._CANCEL_CAP]
    assert units == []


def test_cancel_budget_is_private_to_its_quotient(monkeypatch):
    # thread A is held inside its metered gcd while this thread does
    # FieldElem arithmetic, whose gcds (435 units) exceed A's cap of 200: they
    # must run unmetered and leave A's budget alone.  The sums telescope,
    # so each one cancels a real common factor t + k + 1 and the mod-p
    # coprimality check cannot skip its gcd.
    monkeypatch.setattr(field, "_CANCEL_CAP", 200)
    tab = SymbolTable()
    num, den = _common_factor_quotient(tab)
    t = tab.t()

    def arithmetic():
        s = t * 0
        for k in range(1, 17):
            s = s + 1 / ((t + k) * (t + k + 1))
        return s

    want_a = [str(p) for p in field._phase_cancel(num, den)]
    units = []
    spend = field._spend

    def counted(budget, n):
        if budget is None:
            units.append(n)
        return spend(budget, n)

    monkeypatch.setattr(field, "_spend", counted)
    want_b = str(arithmetic())
    monkeypatch.setattr(field, "_spend", spend)
    assert want_a == ["y - 1", "x + 2"]
    assert want_b == "16/(t^2 + 18*t + 17)"
    assert sum(units) == 435

    inside, b_done = threading.Event(), threading.Event()
    content_in = field._content_in
    got_a = []

    def held(*args, **kwargs):
        if threading.current_thread() is thread_a and not inside.is_set():
            inside.set()
            b_done.wait(10)
        return content_in(*args, **kwargs)

    monkeypatch.setattr(field, "_content_in", held)
    thread_a = threading.Thread(
        target=lambda: got_a.extend(str(p) for p in field._phase_cancel(num, den)))
    thread_a.start()
    try:
        assert inside.wait(10)
        got_b = str(arithmetic())
    finally:
        b_done.set()
        thread_a.join(10)
    assert not thread_a.is_alive()
    assert got_b == want_b
    assert got_a == want_a


# ---------------------------------------------------------------------------
# parsing and printing


ROUNDTRIP = [
    "0",
    "1",
    "-1",
    "t",
    "t^2 - 1",
    "x + y",
    "x^2 + y^2 - 1",
    "2*x*y + 1/2",
    "x - 2*y^2 - t",
    "6*y^2 + t",
    "u1*x + u2*y",
    "1/2*t^2 - 2*y^3 + t*y",
]


@pytest.mark.parametrize("text", ROUNDTRIP)
def test_print_parse_roundtrip(text):
    tab = SymbolTable()
    v = parse(text, tab)
    assert parse(str(v), tab) == v


def test_roundtrip_with_parameters():
    tab = SymbolTable()
    tab.declare_param("alpha")
    v = parse("2*x*y + alpha + 1/2", tab)
    assert parse(str(v), tab) == v


def test_parse_precedence_and_unary_minus():
    tab = SymbolTable()
    t = tab.t()
    assert parse("1/2*t", tab) == t / 2
    assert parse("-t^2", tab) == -(t**2)
    assert parse("--t", tab) == t
    assert parse("2^3", tab) == 8
    assert parse("(1+t)*(1-t)", tab) == 1 - t**2


def test_parse_error_positions():
    tab = SymbolTable()
    with pytest.raises(ParseError) as e:
        parse("2*x*(y", tab)
    assert e.value.position == 6
    with pytest.raises(ParseError) as e:
        parse("x + ", tab)
    assert e.value.position == 4
    with pytest.raises(UnknownSymbolError) as e:
        parse("x + beta", tab)
    assert e.value.position == 4
    with pytest.raises(ParseError) as e:
        parse("x ? y", tab)
    assert e.value.position == 2
    with pytest.raises(ParseError):
        parse("x^-2", tab)


def test_exponent_cap():
    tab = SymbolTable()
    top = field.MAX_EXPONENT
    assert str(parse(f"x^{top}", tab)) == f"x^{top}"
    for text in (f"t^{top + 1}", "x^99999999", "x^" + "9" * 5000):
        with pytest.raises(ParseError) as e:
            parse(text, tab)
        assert e.value.position == 2
        assert "cap" in str(e.value)


def test_power_degree_cap():
    tab = SymbolTable()
    tab.declare_param("a")
    top = field.MAX_EXPONENT
    assert parse(f"(x^2)^{top // 2}", tab) == parse(f"x^{top}", tab)
    for text, pos in (("((x+1)^100)^100", 12), (f"(x^2)^{top // 2 + 1}", 6),
                      ("(t*y)^60*(t^2)^51", 15), ("((a+1)^10)^11", 11),
                      ("(x/(t^3 + 1))^34", 14)):
        with pytest.raises(ParseError) as e:
            parse(text, tab, allow_rational=True)
        assert e.value.position == pos
        assert "degree" in str(e.value) and "cap" in str(e.value)


def test_phase_rational_power_matches_repeated_products():
    tab = SymbolTable()
    v = PhaseRational.from_poly(parse("x*y + 2*y - 3/2", tab))
    prod = PhaseRational.const(tab, 1)
    for k in range(8):
        p = v ** k
        assert p == prod
        if k <= 3:
            # same products as repeated multiplication, so the same term
            # order, which numeric evaluation sums in
            assert list(p.num.terms) == list(prod.num.terms)
        prod = prod * v


def test_overlong_integer_literal_is_a_parse_error():
    tab = SymbolTable()
    with pytest.raises(ParseError) as e:
        parse("1 + " + "9" * 5000, tab)
    assert e.value.position == 4


def test_parse_syntactic_zero_division():
    tab = SymbolTable()
    with pytest.raises(ParseError) as e:
        parse("x/(y - y)", tab)
    assert e.value.position == 1


def test_parse_nonpolynomial_requires_flag():
    tab = SymbolTable()
    with pytest.raises(NotDivisibleError):
        parse("1/x", tab)
    r = parse("1/x", tab, allow_rational=True)
    assert isinstance(r, PhaseRational)


def test_parse_dispatches_field_elements():
    tab = SymbolTable()
    v = parse("(t^2 + 1)/(t - 1)", tab)
    assert isinstance(v, FieldElem)
    assert v * (tab.t() - 1) == tab.t() ** 2 + 1


def test_operations_do_not_mutate():
    tab = SymbolTable()
    t = tab.t()
    e = t + 1
    snapshot = dict(e.num), dict(e.den)
    _ = e * e, e + 5, e / (t - 2), e.d()
    assert (dict(e.num), dict(e.den)) == snapshot
