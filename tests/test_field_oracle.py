"""FieldElem arithmetic checked against sympy, and a fixture of canonical forms.

The property tests draw random elements of Q(t, a, b), and of the same
field extended by one radical s with s^2 = 2/a, and compare +, -, *, /,
d(), _pgcd, exact_divide, coeff_d and common_denominator with sympy's
cancel, gcd, diff and lcm, PhasePoly +, -, *, scale, partial and the term
order of its str(), complex_t_coefficients with eval_complex,
SymbolTable.root_of with factorint, and check that the mod-p coprimality
certificate _coprime_mod_p answers True only for operands whose sympy gcd
is 1, and that equal values of int, Fraction, FieldElem and PhasePoly hash
alike.  A round-trip oracle, parse(str(v)) == v, is expected to fail until
the printer parenthesizes a one-term denominator in several symbols.
Radical results are compared modulo the relation a*s^2 - 2.  Besides the
value, every result must be in canonical form: coprime numerator and
denominator, a monic denominator free of s, s to the power at most 1, and
terms listed by descending grlex (numeric evaluation sums them in that
order).  Over the nested tower s^2 = 2/a, u^2 = 1 + s, whose second
radicand uses the first, +, -, * and / are checked by evaluation at
consistent principal roots, with the same canonical form for both
radicals.

The fixture ``data/canonical_forms.txt`` lists the str() of every
FieldElem built by the exact layer's certification work on fixed inputs:
the P3' scalings, the P3 -> P3' and P2 -> S2 maps, the Hamiltonian checks,
a first-integral search, a classifier grid, and catalog.instantiate of
every family with symbolic parameters.  Each of those elements must also
keep the Rat contract: every coefficient of both its dicts is a Fraction.
Regenerate the fixture with

    PYTHONPATH=src python tests/test_field_oracle.py > tests/data/canonical_forms.txt

only when a change is meant to alter canonical forms.
"""

import cmath
import contextlib
import functools
import math
import pathlib
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from painlevekit import catalog, dvariety, field, transforms
from painlevekit.dvariety import DVectorField, SearchBounds
from painlevekit.errors import RadicalDeclarationError
from painlevekit.field import (FieldElem, PhasePoly, PhaseRational, SymbolTable,
                              exact_divide)

FIXTURE = pathlib.Path(__file__).parent / "data" / "canonical_forms.txt"

# derandomized, bounded and without a deadline, so tier-1 stays
# deterministic and its time bounded
ORACLE = settings(derandomize=True, max_examples=30, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])

QT = SymbolTable()
QT.declare_param("a")
QT.declare_param("b")
RT = SymbolTable()
RT.declare_param("a")
RT.declare_param("b")
RT.declare_radical("s", F(2) / RT.sym("a"))

T, A, B, S = sympy.symbols("t a b s")
GENS = {id(QT): (T, A, B), id(RT): (T, A, B, S)}
RELATION = {id(QT): None, id(RT): A * S ** 2 - 2}


# ---------------------------------------------------------------------------
# strategies


_SMALL_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
# large denominators, some of them primes, one of which is the modulus of
# _coprime_mod_p: what the gcd's clearing of the lcm and the content sees
_LARGE_COEFFS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    st.builds(F, st.integers(-10**6, 10**6),
              st.sampled_from((999_983, 1_000_003, field._COPRIME_P)))).filter(bool)


def _polys(max_exp, min_size=0, max_size=3, coeffs=_SMALL_COEFFS):
    exps = st.tuples(*(st.integers(0, k) for k in max_exp)).map(field._strip)
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=max_size)


def _fractions(table, small=False):
    """(num, den) dicts; a denominator at most linear in s is nonzero in the field.

    Sizes are kept where the primitive PRS gcd stays fast: rationalizing by
    s doubles degrees, and small elements serve where several are multiplied.
    """
    if small:
        return st.tuples(_polys((1,) * len(table), min_size=1, max_size=2),
                         _polys((1,) * len(table), min_size=1, max_size=2))
    if table is QT:
        return st.tuples(_polys((2, 2, 2), min_size=1),
                         _polys((1, 1, 1), min_size=1, max_size=2))
    return st.tuples(_polys((1, 1, 1, 2), min_size=1),
                     _polys((1, 1, 1, 1), min_size=1, max_size=2))


def _elems(table, small=False):
    return _fractions(table, small).map(lambda nd: FieldElem(table, *nd))


def _phase_polys(table):
    mono = st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0),
                            (1, 1, 0, 0), (0, 2, 0, 0)])
    return st.dictionaries(mono, _elems(table, small=True), max_size=2).map(
        lambda terms: PhasePoly(table, terms))


TABLES = st.sampled_from([QT, RT])


# ---------------------------------------------------------------------------
# sympy side


def _sym_poly(p, gens):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(g ** k for g, k in zip(gens, e)))
                       for e, c in p.items()))


def _sym(z: FieldElem):
    gens = GENS[id(z.table)]
    return _sym_poly(z.num, gens) / _sym_poly(z.den, gens)


def _assert_grlex_ordered(z: FieldElem):
    n = len(z.table)
    for p in (z.num, z.den):
        keys = [(sum(e), field._pad(e, n)) for e in p]
        assert keys == sorted(keys, reverse=True)


def _assert_canonical(z: FieldElem, ref):
    """z is the canonical form of the sympy expression ref."""
    gens, relation = GENS[id(z.table)], RELATION[id(z.table)]
    _assert_grlex_ordered(z)
    num, den = _sym_poly(z.num, gens), _sym_poly(z.den, gens)
    if not z.num:
        assert z.den == {(): 1}
    assert sympy.Poly(den, *gens).LC(order="grlex") == 1
    assert sympy.Poly(sympy.gcd(num, den), *gens).is_ground
    rn, rd = sympy.fraction(sympy.together(ref))
    diff = sympy.expand(num * rd - rn * den)
    if relation is not None:
        assert sympy.degree(num, S) <= 1
        assert sympy.degree(den, S) <= 0
        diff = sympy.prem(diff, relation, S)
    assert sympy.expand(diff) == 0


# ---------------------------------------------------------------------------
# arithmetic against sympy


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(_fractions(tab), st.just(tab))))
def test_construction_is_canonical(case):
    (num, den), tab = case
    gens = GENS[id(tab)]
    _assert_canonical(FieldElem(tab, num, den), _sym_poly(num, gens) / _sym_poly(den, gens))


@ORACLE
@given(TABLES.flatmap(_elems))
def test_zero_operands_give_canonical_zero(x):
    zero = x.table.zero()
    for z in (x * zero, zero * x, zero / x if x else zero, x - x, zero.d()):
        _assert_canonical(z, 0)


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(_elems(tab), _elems(tab))))
def test_sum_and_difference_match_sympy(pair):
    x, y = pair
    _assert_canonical(x + y, _sym(x) + _sym(y))
    _assert_canonical(x - y, _sym(x) - _sym(y))


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(_elems(tab), _elems(tab))))
def test_product_matches_sympy(pair):
    x, y = pair
    _assert_canonical(x * y, _sym(x) * _sym(y))


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(_elems(tab), _elems(tab))))
def test_quotient_matches_sympy(pair):
    x, y = pair
    assume(not y.is_zero())
    _assert_canonical(x / y, _sym(x) / _sym(y))


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(*(_elems(tab, small=True) for _ in range(3)))))
def test_cross_cancellation_matches_sympy(triple):
    # (x*g)/(y*g) and (x/g)*(g/y): the factor g must cancel across operands
    x, y, g = triple
    assume(not y.is_zero() and not g.is_zero())
    _assert_canonical((x * g) / (y * g), _sym(x) / _sym(y))
    _assert_canonical((x / g) * (g / y), _sym(x) / _sym(y))


@ORACLE
@given(TABLES.flatmap(_elems))
def test_derivation_matches_sympy(x):
    _assert_canonical(x.d(), sympy.diff(_sym(x), T))


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(_elems(tab), st.just(tab))), _RATIONALS, _RATIONALS)
def test_rational_operands_match_sympy(case, k, k2):
    # the closed forms: a rational scales the other operand, two rationals
    # add as Fractions, and a polynomial's derivation is its numerator's
    x, tab = case
    q = sympy.Rational(k.numerator, k.denominator)
    _assert_canonical(tab.const(k) * x, q * _sym(x))
    _assert_canonical(x * k, _sym(x) * q)
    if k:
        _assert_canonical(x / k, _sym(x) / q)
    _assert_canonical(tab.const(k) + k2, q + sympy.Rational(k2.numerator, k2.denominator))
    _assert_canonical(x.d(), sympy.diff(_sym(x), T))
    poly = FieldElem(tab, x.num, field._pconst(1))
    _assert_canonical(poly.d(), sympy.diff(_sym(poly), T))


def _assert_pgcd_matches_sympy(f, g, h):
    # the metered gcd, which takes no mod-p shortcut, gives the same result
    gens = GENS[id(QT)]
    p, q = field._pmul(f, g), field._pmul(f, h)
    ours = field._pgcd(p, q)
    assert field._pgcd(p, q, [field._CANCEL_CAP]) == ours
    assert all(type(c) is F for c in ours.values())
    ref = sympy.gcd(_sym_poly(p, gens), _sym_poly(q, gens))
    if ref == 0:
        assert ours == {}
        return
    lc = sympy.Poly(ref, *gens).LC(order="grlex")
    assert sympy.expand(_sym_poly(ours, gens) - ref / lc) == 0


@ORACLE
@given(_polys((2, 2, 2)), _polys((2, 2, 2)), _polys((2, 2, 2)))
def test_pgcd_matches_sympy(f, g, h):
    _assert_pgcd_matches_sympy(f, g, h)


@ORACLE
@given(*(_polys((2, 2, 2), coeffs=_LARGE_COEFFS) for _ in range(3)))
def test_pgcd_with_large_denominators_matches_sympy(f, g, h):
    _assert_pgcd_matches_sympy(f, g, h)


_MIXED_COEFFS = st.one_of(st.integers(-5, 5), _SMALL_COEFFS).filter(bool)
# b's exponent tuples reach two symbols past a's four, and may be ()
_ONE_TERM = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=6).map(tuple).map(field._strip),
    _MIXED_COEFFS, min_size=1, max_size=1)


@ORACLE
@given(_polys((2, 2, 2, 2), min_size=1, max_size=4, coeffs=_MIXED_COEFFS), _ONE_TERM)
def test_pgcd_with_a_one_term_operand_is_the_prs_gcd(a, b):
    # the closed form equals the primitive PRS, made monic, and sympy's gcd
    g = field._zgcd(field._primitive(a), field._primitive(b))
    lc = field._plead(g)[1]
    prs = {e: F(c, lc) for e, c in g.items()}
    for p, q in ((a, b), (b, a)):
        assert field._pgcd(p, q) == prs
        assert field._pgcd(p, q, [field._CANCEL_CAP]) == prs
    gens = sympy.symbols("x0:6")
    ref = sympy.Poly(sympy.gcd(_sym_poly(a, gens), _sym_poly(b, gens)), *gens)
    assert sympy.expand(_sym_poly(prs, gens) - ref.as_expr() / ref.LC()) == 0


def _square_class_by_sympy(m):
    primes = {p for p, k in sympy.factorint(abs(m)).items() if k % 2}
    return primes | {-1} if m < 0 else primes


def _cofactor(root, table):
    # root / prod s_i over the radicals root uses: the rational factor
    radicals = table.one()
    for i in root.symbols_used(False):
        radicals = radicals * table.sym(table.names[i])
    return (root / radicals).as_fraction()


# the bound below which 13-base Miller-Rabin is exact (Sorenson and Webster,
# Math. Comp. 2017): root_of uses no primality test, and the inputs below
# reach past the bound to show that nothing in it stops there
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _assert_root_of_matches_factorint(q):
    # sqrt(q) is in Q(sqrt(p) : p in the class of q) as a product of all of
    # them, and it is missing from the field without any one of them
    cls = sorted(_square_class_by_sympy(q.numerator * q.denominator))
    table = SymbolTable()
    for k, p in enumerate(cls):
        table.declare_radical(f"r{k}", p)
    root = table.root_of(q)
    assert root is not None and root * root == q
    assert root.symbols_used(False) == set(range(1, len(cls) + 1))  # t is symbol 0
    assert _cofactor(root, table) >= 0
    for skip in cls:
        table = SymbolTable()
        for k, p in enumerate(cls):
            if p != skip:
                table.declare_radical(f"r{k}", p)
        assert table.root_of(q) is None


@ORACLE
@given(st.lists(st.tuples(st.integers(2, 10**12), st.integers(1, 4)), max_size=4),
       st.sampled_from((1, -1)), st.integers(1, 30))
def test_square_class_matches_factorint(factors, sign, den):
    # random primes up to 10^12 with random exponents, kept below the bound
    m = 1
    for n, k in factors:
        p = sympy.prevprime(n + 1)
        if m * den * p**k < _MR_EXACT_BELOW:
            m *= p**k
    _assert_root_of_matches_factorint(F(sign * m, den))


def test_square_class_of_large_prime_powers_matches_factorint():
    p, r = sympy.prevprime(10**12), sympy.nextprime(10**11)
    for m in (3 * p**2, -2 * p * r, 7**3 * r**2, -2 * 10000000000037, 1009**9 * 10007):
        _assert_root_of_matches_factorint(F(m))


def test_square_class_above_the_miller_rabin_bound_matches_factorint():
    # large primes, their powers and a product of two 13-digit primes, none
    # of which the coprime base needs to split
    p, r = sympy.prevprime(10**12), sympy.nextprime(10**11)
    leaf = sympy.nextprime(7 * 10**24)
    pair = sympy.nextprime(3 * 10**12) * sympy.prevprime(10**13)
    for m in (2 * p * r**3, leaf, -5 * leaf**3, 3 * leaf**2, pair):
        assert abs(m) >= _MR_EXACT_BELOW
        start = time.perf_counter()
        _assert_root_of_matches_factorint(F(m))
        assert time.perf_counter() - start < 5.0


def _reduce_by(rows, cls):
    # rows: F2 echelon of prime classes, {largest prime: class}
    while cls and max(cls) in rows:
        cls = cls ^ rows[max(cls)]
    return cls


_RADICAND_PRIMES = (2, 3, 5, 7, 11, 999_983, 1_000_003, int(sympy.nextprime(10**12)))
_PRODUCTS = st.lists(st.sampled_from(_RADICAND_PRIMES), max_size=4).map(math.prod)
_RADICANDS = st.builds(lambda sign, num, den: F(sign * num, den),
                       st.sampled_from((1, -1)), _PRODUCTS, _PRODUCTS)


@ORACLE
@given(st.lists(_RADICANDS, min_size=1, max_size=6), st.lists(_RADICANDS, min_size=1, max_size=4))
def test_root_of_matches_sympy_span(radicands, queries):
    # a rational radicand is declared, and a rational query has a root,
    # exactly when its class is outside, resp. inside, the F2 span of the
    # declared classes, with sympy's factorint telling the classes; the
    # root squares to the query over a rational factor >= 0
    table, rows = SymbolTable(), {}
    for k, r in enumerate(radicands):
        cls = _reduce_by(rows, frozenset(_square_class_by_sympy(r.numerator * r.denominator)))
        try:
            table.declare_radical(f"r{k}", r)
        except RadicalDeclarationError:
            assert not cls
            continue
        assert cls
        rows[max(cls)] = cls
    for q in queries:
        cls = _reduce_by(rows, frozenset(_square_class_by_sympy(q.numerator * q.denominator)))
        root = table.root_of(q)
        assert (root is not None) == (not cls)
        if root is not None:
            assert root * root == q
            assert _cofactor(root, table) >= 0


def test_root_of_takes_a_positive_rational_factor():
    # with s1^2 = -a*b and s2^2 = b, sqrt(-a) = s1*s2/b, whichever of a
    # and b holds the larger prime
    for a, b in ((2, 3), (3, 2), (7, 15), (15, 7)):
        table = SymbolTable()
        s1 = table.declare_radical("s1", -a * b)
        s2 = table.declare_radical("s2", b)
        assert table.root_of(-a) == s1 * s2 / b


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(st.lists(_elems(tab), max_size=3), st.just(tab))))
def test_common_denominator_matches_sympy_lcm(case):
    elems, tab = case
    gens = GENS[id(tab)]
    ref = functools.reduce(sympy.lcm, (_sym_poly(z.den, gens) for z in elems), sympy.Integer(1))
    ref = ref / sympy.Poly(ref, *gens).LC(order="grlex")
    _assert_canonical(field.common_denominator(tab, elems), ref)


# symbol values with s^2 = 2/a, and the points t is evaluated at
VALUES = {1: 0.7 - 0.3j, 2: -1.2 + 0.4j}
VALUES[3] = cmath.sqrt(2 / VALUES[1])
T_POINTS = (0.3 + 0.8j, -1.1 + 0.2j, 2.5)


@ORACLE
@given(TABLES.flatmap(_elems))
def test_complex_t_coefficients_match_eval_complex(z):
    names = z.table.names
    values = {i: v for i, v in VALUES.items() if i < len(names)}
    num, den = z.complex_t_coefficients(values)
    for tv in T_POINTS:
        got = sum(c * tv ** k for k, c in enumerate(num)) / \
            sum(c * tv ** k for k, c in enumerate(den))
        want = z.eval_complex(dict({names[i]: v for i, v in values.items()}, t=tv))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# a nested tower: s^2 = 2/a and u^2 = 1 + s, the second radicand using the
# first; results are checked by evaluation at consistent principal roots

NT = SymbolTable()
NT.declare_param("a")
NT.declare_radical("s", F(2) / NT.sym("a"))
NT.declare_radical("u", 1 + NT.sym("s"))
NT_GENS = sympy.symbols("t a s u")
NT_POINTS = []
for _t, _a in ((0.3 + 0.8j, 0.7 - 0.3j), (-1.1 + 0.2j, -1.3 + 0.5j)):
    _s = cmath.sqrt(2 / _a)
    NT_POINTS.append({"t": _t, "a": _a, "s": _s, "u": cmath.sqrt(1 + _s)})


def _nested_fractions(divisor=False):
    """(num, den) dicts; a denominator at most linear in s and in u is
    nonzero in the field.  A divisor keeps two terms over a denominator in
    t and a, since the quotient clears its numerator of u and then of s."""
    if divisor:
        return st.tuples(_polys((1, 1, 1, 1), min_size=1, max_size=2),
                         _polys((1, 1), min_size=1, max_size=2))
    return st.tuples(_polys((1, 1, 2, 2), min_size=1),
                     _polys((1, 1, 1, 1), min_size=1, max_size=2))


def _eval_fraction(num, den, point):
    # the uncanonicalized fraction at the point
    values = [point[name] for name in NT.names]

    def ev(p):
        total = 0j
        for e, c in p.items():
            term = complex(c)
            for v, k in zip(values, e):
                term *= v ** k
            total += term
        return total

    return ev(num) / ev(den)


def _assert_nested_canonical(z: FieldElem):
    _assert_grlex_ordered(z)
    s, u = NT.index("s"), NT.index("u")
    assert all(field._exp_get(e, i) <= 1 for e in z.num for i in (s, u))
    assert not any(field._exp_get(e, i) for e in z.den for i in (s, u))
    num, den = _sym_poly(z.num, NT_GENS), _sym_poly(z.den, NT_GENS)
    assert sympy.Poly(den, *NT_GENS).LC(order="grlex") == 1
    assert sympy.Poly(sympy.gcd(num, den), *NT_GENS).is_ground


def _assert_value(z: FieldElem, want, point, scale):
    assert abs(z.eval_complex(point) - want) <= 1e-9 * max(1.0, scale, abs(want))


@ORACLE
@given(_nested_fractions(), _nested_fractions(divisor=True))
def test_nested_tower_arithmetic_matches_evaluation(xf, yf):
    # y is nonzero: its numerator is at most linear in s and in u
    x, y = FieldElem(NT, *xf), FieldElem(NT, *yf)
    total, diff, prod, quot = x + y, x - y, x * y, x / y
    for z in (x, y, total, diff, prod, quot):
        _assert_nested_canonical(z)
    for point in NT_POINTS:
        xv, yv = _eval_fraction(*xf, point), _eval_fraction(*yf, point)
        _assert_value(x, xv, point, abs(xv))
        _assert_value(y, yv, point, abs(yv))
        _assert_value(total, xv + yv, point, abs(xv) + abs(yv))
        _assert_value(diff, xv - yv, point, abs(xv) + abs(yv))
        _assert_value(prod, xv * yv, point, abs(xv) * abs(yv))
        _assert_value(quot, xv / yv, point, abs(xv / yv))


_XY = sympy.symbols("x y")


def _sym_phase(P: PhasePoly):
    X, Y = _XY
    return sympy.Add(*(_sym(c) * X ** e[0] * Y ** e[1] for e, c in P.terms.items()))


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(_phase_polys(tab), _phase_polys(tab))))
def test_exact_divide_matches_sympy(pair):
    p, d = pair
    assume(not d.is_zero())
    assert exact_divide(p * d, d) == p
    q = exact_divide(p, d)
    ratio = sympy.cancel(_sym_phase(p) / _sym_phase(d))
    divisible = not (sympy.fraction(ratio)[1].free_symbols & set(sympy.symbols("x y")))
    if RELATION[id(p.table)] is None:
        # over Q(t, a, b) sympy's verdict is the reference
        assert (q is not None) == divisible
    if q is not None:
        rest = sympy.together(_sym_phase(q) * _sym_phase(d) - _sym_phase(p))
        num = sympy.expand(sympy.fraction(rest)[0])
        if RELATION[id(p.table)] is not None:
            num = sympy.prem(num, RELATION[id(p.table)], S)
        assert sympy.expand(num) == 0


@ORACLE
@given(TABLES.flatmap(_phase_polys))
def test_coeff_d_matches_sympy(P):
    out = P.coeff_d()
    for e, c in P.terms.items():
        dc = out.coefficient(e)
        _assert_canonical(dc, sympy.diff(_sym(c), T))
    assert set(out.terms) <= set(P.terms)


def _assert_phase_matches(P: PhasePoly, ref):
    """P has exactly the nonzero x, y terms of ref, each canonical."""
    want = {(i, j, 0, 0): c for (i, j), c in sympy.Poly(ref, *_XY).as_dict().items()}
    assert set(P.terms) <= set(want) and all(P.terms.values())
    for e, c in want.items():
        # a term of a product may vanish only modulo the relation (s^2 - 2/a)
        _assert_canonical(P.coefficient(e), c)


def _str_exponents(text: str) -> list:
    """The phase exponents of the terms of a PhasePoly's str(), in order."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and text[i:i + 3] in (" + ", " - "):
            terms.append(text[start:i])
            start = i + 3
    terms.append(text[start:])
    out = []
    for term in terms:
        term = term.lstrip("-")
        if term.startswith("("):
            # a coefficient outside Q: the parenthesized element, then *monomial
            close, depth = 0, 0
            for close, ch in enumerate(term):
                depth += (ch == "(") - (ch == ")")
                if depth == 0:
                    break
            term = term[close + 1:].lstrip("*")
        e = [0, 0, 0, 0]
        for factor in term.split("*") if term else ():
            name, _, k = factor.partition("^")
            if name in field.PHASE_VARS:
                e[field.PHASE_VARS.index(name)] = int(k or 1)
        out.append(tuple(e))
    return out


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(
    _phase_polys(tab), _phase_polys(tab),
    st.one_of(st.just(tab.one()), _elems(tab, small=True)))))
def test_phase_sums_and_partials_match_sympy(drawn):
    p, q, c = drawn
    sp, sq = _sym_phase(p), _sym_phase(q)
    X, Y = _XY
    # (p + q) - q cancels every term of q that p lacks, and the product
    # (p + q) * (p - q) its cross terms
    for got, ref in ((p + q, sp + sq), (p - q, sp - sq), (-p, -sp), ((p + q) - q, sp),
                     (p * q, sp * sq), ((p + q) * (p - q), sp**2 - sq**2),
                     (p.scale(c), _sym(c) * sp),
                     (p.partial("x"), sympy.diff(sp, X)), (p.partial("y"), sympy.diff(sp, Y))):
        _assert_phase_matches(got, ref)
    for P in (p, q, p + q):
        if not P:
            assert str(P) == "0"
            continue
        assert _str_exponents(str(P)) == sorted(P.terms, key=lambda e: (sum(e), e), reverse=True)


@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(
    st.just(tab), st.fractions(min_value=-3, max_value=3, max_denominator=3),
    _elems(tab, small=True), _phase_polys(tab))))
def test_equal_values_hash_alike(drawn):
    # a rational FieldElem hashes as its Fraction, a constant PhasePoly as
    # its coefficient; the rest keep a structural hash
    tab, q, e, p = drawn
    vals = [q, tab.const(q), PhasePoly.const(tab, q), e, FieldElem(tab, e.num, e.den),
            PhasePoly.const(tab, e), p, PhasePoly(tab, dict(p.terms))]
    if q.denominator == 1:
        vals.append(int(q))
    for a in vals:
        for b in vals:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({q, tab.const(q), PhasePoly.const(tab, q)}) == 1


def _monomial_quotients(table):
    # one-term denominators in up to three symbols, the form whose str()
    # needs parentheses once it has more than one symbol
    return st.tuples(_polys((1,) * len(table), min_size=1, max_size=2),
                     _polys((2, 2, 2), min_size=1, max_size=1)).map(
        lambda nd: FieldElem(table, *nd))


_ONE_OVER_AB = QT.one() / (QT.sym("a") * QT.sym("b"))


_BARE_DENOMINATOR = pytest.mark.xfail(
    strict=True, reason="field._elem_str leaves a one-term denominator in "
    "several symbols bare: 1/(a*b) prints as 1/a*b, which parses as b/a")


@_BARE_DENOMINATOR
@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(
    _monomial_quotients(tab),
    st.dictionaries(st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)]),
                    _monomial_quotients(tab), max_size=2).map(
        lambda terms: PhasePoly(tab, terms)))))
@example((_ONE_OVER_AB, PhasePoly.var(QT, "x").scale(_ONE_OVER_AB)))
def test_str_parses_back_to_its_value(drawn):
    z, P = drawn
    assert field.parse(str(z), z.table) == z
    assert field.parse(str(P), P.table) == P


@_BARE_DENOMINATOR
@ORACLE
@given(TABLES.flatmap(lambda tab: st.tuples(
    st.dictionaries(st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)]),
                    _monomial_quotients(tab), min_size=1, max_size=2),
    _monomial_quotients(tab), _monomial_quotients(tab)).map(
        lambda drawn: PhaseRational(
            tab, PhasePoly(tab, drawn[0]),
            PhasePoly.var(tab, "y").scale(drawn[1]) + PhasePoly.const(tab, drawn[2])))))
@example(PhaseRational(QT, PhasePoly.var(QT, "x").scale(_ONE_OVER_AB),
                       PhasePoly.var(QT, "y") + 1))
def test_phase_rational_str_parses_back_to_its_value(R):
    assert field.parse(str(R), R.table, allow_rational=True) == R


# ---------------------------------------------------------------------------
# the mod-p coprimality certificate: True only for coprime operands


def _coprime(p, q):
    gens = GENS[id(QT)]
    return not sympy.gcd(_sym_poly(p, gens), _sym_poly(q, gens)).free_symbols


@ORACLE
@given(_polys((2, 2, 2), min_size=1), _polys((2, 2, 2), min_size=1),
       _polys((1, 1, 1), min_size=1, max_size=2))
def test_coprime_mod_p_is_true_only_for_coprime_operands(f, g, h):
    # h, a constant in some examples, gives the operands a common factor
    p, q = field._pmul(f, h), field._pmul(g, h)
    assume(p and q)
    if field._coprime_mod_p(p, q):
        assert _coprime(p, q)


@ORACLE
@given(_polys((2, 2, 2), min_size=1), _polys((2, 2, 2), min_size=1),
       _polys((2, 2, 2), min_size=1))
def test_coprime_mod_p_refuses_a_planted_common_factor(f, g, h):
    assume(not set(h) <= {()})
    p, q = field._pmul(f, h), field._pmul(g, h)
    assume(p and q)
    assert not field._coprime_mod_p(p, q)


def test_coprime_mod_p_refuses_a_leading_coefficient_vanishing_at_its_point():
    # h = (t - c_t)(a - c_a) + 1 has both leading coefficients zero at the
    # fixed point, where its images in t and in a are the constant 1
    c_t, c_a = field._coprime_point(0), field._coprime_point(1)
    t, a, b = (field._pvar(i) for i in range(3))
    h = field._padd(field._pmul(field._psub(t, field._pconst(c_t)),
                                field._psub(a, field._pconst(c_a))),
                    field._pconst(1))
    p = field._pmul(h, field._padd(b, field._pconst(1)))
    q = field._pmul(h, field._padd(b, field._pconst(2)))
    assert not _coprime(p, q)
    assert not field._coprime_mod_p(p, q)
    # plus t, its leading coefficient in t is 1 at the point, and it is seen
    p2 = field._pmul(field._padd(h, t), field._padd(b, field._pconst(1)))
    q2 = field._pmul(field._padd(h, t), field._padd(b, field._pconst(2)))
    assert not field._coprime_mod_p(p2, q2)


def test_coprime_mod_p_refuses_p_in_a_denominator():
    p = field._COPRIME_P
    t = field._pvar(0)
    other = field._padd(t, field._pconst(2))
    assert field._coprime_mod_p(field._padd(t, field._pconst(F(1, 3))), other)
    assert not field._coprime_mod_p(field._padd(t, field._pconst(F(1, p))), other)
    assert _coprime(field._padd(t, field._pconst(F(1, p))), other)


# ---------------------------------------------------------------------------
# canonical forms built by the exact layer, against the fixture


@contextlib.contextmanager
def _recording_elements():
    built = []
    init = FieldElem.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        # the Rat contract: an int would make a coefficient quotient a float
        assert all(type(c) is F for p in (self.num, self.den) for c in p.values()), self
        built.append(self)

    FieldElem.__init__ = record
    try:
        yield built
    finally:
        FieldElem.__init__ = init


_GREEK = ("alpha", "beta", "gamma", "delta")


def _scaling(relation, delta):
    tab = SymbolTable()
    ps = {n: tab.declare_param(n) for n in _GREEK}
    src = catalog.instantiate("P3prime", ps, table=tab)
    vmap = transforms.p3prime_scaling_map(tab, relation)
    lam, mu = tab.sym("lam"), tab.sym("mu")
    if relation == "general":
        tparams = {"alpha": lam * ps["alpha"], "beta": mu * ps["beta"] / lam,
                   "gamma": lam ** 2 * ps["gamma"],
                   "delta": mu ** 2 * ps["delta"] / lam ** 2}
    else:
        tparams = {"alpha": lam * ps["alpha"], "beta": mu * ps["beta"] / lam,
                   "gamma": 4, "delta": delta}
    tgt = catalog.instantiate("P3prime", tparams, table=tab)
    return transforms.verify_transform(src, vmap, tgt)


def _p3_to_p3prime(alt):
    tab = SymbolTable()
    ps = {n: tab.declare_param(n) for n in _GREEK}
    src = catalog.instantiate("P3", ps, table=tab)
    tgt = catalog.instantiate("P3prime", ps, table=tab)
    return transforms.verify_transform(src, transforms.p3_to_p3prime_map(tab, alt=alt), tgt)


def _p2_to_s2():
    tab = SymbolTable()
    a = tab.declare_param("alpha")
    p2 = catalog.instantiate("P2", {"alpha": a}, table=tab)
    s2 = catalog.instantiate("S2", {"alpha": a}, table=tab)
    return transforms.verify_transform(p2, transforms.p2_to_s2_map(tab), s2)


def _hamiltonians():
    tab = SymbolTable()
    v1, v2 = tab.declare_param("v1"), tab.declare_param("v2")
    s3p = catalog.instantiate("S3prime", {"v1": v1, "v2": v2}, table=tab)
    p1 = catalog.instantiate("P1", {})
    return (transforms.hamiltonian_check(s3p.hamiltonian, s3p.system),
            transforms.hamiltonian_check(p1.hamiltonian, p1.system))


def _symbolic_instances():
    for family in catalog.FAMILIES:
        tab = SymbolTable()
        ps = {n: tab.declare_param(n) for n in catalog.parameter_names(family)}
        if family == "S4":
            ps["v3"] = -ps["v1"] - ps["v2"]
        elif family == "S5":
            ps["v4"] = -ps["v1"] - ps["v2"] - ps["v3"]
        catalog.instantiate(family, ps, table=tab)


_CLASSIFY_POINTS = (
    ("P2", {"alpha": F(1, 3)}), ("P2", {"alpha": F(5, 2)}),
    ("S3prime", {"v1": F(1, 3), "v2": F(2, 5)}), ("S3prime", {"v1": F(1, 2), "v2": F(5, 2)}),
    ("S4", {"v1": F(1, 3), "v2": F(2, 5), "v3": F(-11, 15)}),
    ("S4", {"v1": F(1, 2), "v2": F(3, 2), "v3": F(-2)}),
    ("S5", {"v1": F(1, 3), "v2": F(2, 5), "v3": F(-1, 7), "v4": F(-62, 105)}),
    ("S5", {"v1": F(1, 2), "v2": F(3, 2), "v3": F(1, 3), "v4": F(-7, 3)}),
    ("S6", {"a1": F(1, 3), "a2": F(2, 5), "a3": F(3, 7), "a4": F(1, 4)}),
    ("S6", {"a1": F(1, 3), "a2": F(2, 5), "a3": F(4, 3), "a4": F(1, 4)}),
)


def _exact_layer_work():
    for relation, delta in (("printed", -4), ("printed", F(1, 4)),
                            ("corrected", -4), ("general", None)):
        _scaling(relation, delta)
    _p3_to_p3prime(False)
    _p3_to_p3prime(True)
    _p2_to_s2()
    _hamiltonians()
    _symbolic_instances()
    s4 = catalog.instantiate("S4", {"v1": F(1, 3), "v2": F(-2, 5), "v3": F(1, 15)})
    dvariety.first_integral_search(s4.derivation, SearchBounds(3, 2))
    free = SymbolTable()
    dvariety.first_integral_search(DVectorField(free, 1, PhasePoly.var(free, "x"), 0),
                                   SearchBounds(2, 2))
    for family, params in _CLASSIFY_POINTS:
        catalog.classify(family, params)


def canonical_forms() -> str:
    """Sorted distinct str() of the elements the exact-layer work builds."""
    with _recording_elements() as built:
        _exact_layer_work()
    for z in built:
        _assert_grlex_ordered(z)
    return "".join(f"{s}\n" for s in sorted({str(z) for z in built}))


def test_canonical_forms_match_the_fixture():
    assert canonical_forms().encode() == FIXTURE.read_bytes()


if __name__ == "__main__":
    import sys

    sys.stdout.write(canonical_forms())
