"""Derivations, tangent lifts, Darboux certificates, bounded search."""

import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from painlevekit.errors import (
    ConstraintError,
    NonNumericError,
    NotDivisibleError,
    SearchCapExceededError,
)
from painlevekit.field import PhasePoly, SymbolTable, parse
from painlevekit.dvariety import (
    DarbouxCertificate,
    DVectorField,
    SearchBounds,
    _integer_kernel,
    apply_derivation,
    clear_denominators,
    darboux_search,
    first_integral_search,
    rescale,
    tangent_lift,
    verify_darboux,
)


@pytest.fixture
def tab():
    return SymbolTable()


def d1(tab):
    # y'' = 6y^2 + t as a first-order pair
    return DVectorField(tab, 1, parse("x", tab), parse("6*y^2 + t", tab))


def d2(tab, alpha):
    # second family in Hamiltonian form, numeric parameter
    f = parse("x - y^2 - 1/2*t", tab)
    g = parse("2*x*y", tab) + tab.const(Fraction(alpha) + Fraction(1, 2))
    return DVectorField(tab, 1, f, g)


# ---------------------------------------------------------------------------
# apply_derivation


def test_apply_first_family_hamiltonian(tab):
    H = parse("1/2*x^2 - 2*y^3 + t*y", tab)
    assert apply_derivation(d1(tab), H) == parse("y + 2*t*x", tab)


def test_apply_on_invariant_line(tab):
    assert apply_derivation(d2(tab, Fraction(-1, 2)), parse("x", tab)) \
        == parse("2*x*y", tab)
    assert apply_derivation(d2(tab, 0), parse("x", tab)) \
        == parse("2*x*y + 1/2", tab)


def test_apply_to_constant_is_zero(tab):
    D = d1(tab)
    assert apply_derivation(D, PhasePoly.const(tab, 5)).is_zero()


def test_apply_rejects_u_variables(tab):
    with pytest.raises(ConstraintError):
        apply_derivation(d1(tab), parse("u1*x", tab))


def test_vector_field_validation(tab):
    with pytest.raises(ConstraintError):
        DVectorField(tab, 0, parse("x", tab), parse("y", tab))
    with pytest.raises(ConstraintError):
        DVectorField(tab, 1, parse("u1", tab), parse("y", tab))


def test_leibniz_and_linearity_random(tab):
    rng = random.Random(7)
    D = d2(tab, Fraction(1, 2))
    monos = ["1", "x", "y", "t", "x*y", "y^2", "x^2", "t*y"]

    def rand_poly():
        n = rng.randint(1, 4)
        parts = [f"{rng.randint(-3, 3)}*{rng.choice(monos)}" for _ in range(n)]
        return parse("+".join(parts).replace("+-", "-"), tab)

    for _ in range(40):
        P, Q = rand_poly(), rand_poly()
        assert apply_derivation(D, P * Q) == \
            P * apply_derivation(D, Q) + Q * apply_derivation(D, P)
        assert apply_derivation(D, P + Q) == \
            apply_derivation(D, P) + apply_derivation(D, Q)


# ---------------------------------------------------------------------------
# tangent lift


def test_lift_constant_coefficients(tab):
    tl = tangent_lift([parse("x^2 + y^2 - 1", tab)])
    assert tl.lifted == [parse("2*x*u1 + 2*y*u2", tab)]


def test_lift_no_inhomogeneous_term_for_constant_coeffs(tab):
    tl = tangent_lift([parse("x^3 - y + 2", tab), parse("x*y", tab)])
    for lifted in tl:
        # every term must contain u1 or u2
        assert all(e[2] or e[3] for e in lifted.terms)


def test_lift_cubic_curve_with_moving_coefficient():
    tab = SymbolTable()
    tab.declare_param("aprime")
    tab.declare_param("a", derivative="aprime")
    tl = tangent_lift([parse("y^2 - x^3 + (1+a)*x^2 - a*x", tab)])
    expect = parse("(-3*x^2 + 2*(1+a)*x - a)*u1 + 2*y*u2 + aprime*(x^2 - x)", tab)
    assert tl.lifted == [expect]


def test_lift_time_dependent_generator(tab):
    tl = tangent_lift([parse("x - 2*y^2 - t", tab)])
    assert tl.lifted == [parse("u1 - 4*y*u2 - 1", tab)]


def test_lift_empty(tab):
    assert tangent_lift([]).lifted == []


def test_lift_rejects_u_variables(tab):
    with pytest.raises(ConstraintError):
        tangent_lift([parse("u1", tab)])


# ---------------------------------------------------------------------------
# verify_darboux


def test_verify_invariant_line(tab):
    cert = verify_darboux(d2(tab, Fraction(-1, 2)), parse("x", tab))
    assert cert is not None
    assert cert.G == parse("2*y", tab)


def test_verify_invariant_parabola(tab):
    cert = verify_darboux(d2(tab, Fraction(1, 2)), parse("x - 2*y^2 - t", tab))
    assert cert is not None
    assert cert.G == parse("-2*y", tab)


def test_verify_not_invariant(tab):
    assert verify_darboux(d2(tab, 0), parse("x", tab)) is None


def test_verify_rejects_constants(tab):
    D = d1(tab)
    with pytest.raises(ConstraintError):
        verify_darboux(D, PhasePoly.const(tab, 5))
    with pytest.raises(ConstraintError):
        verify_darboux(D, PhasePoly.zero(tab))


def test_verify_allows_t_for_scaled_derivation(tab):
    # with e = t the fiber polynomial t is a legitimate certificate
    D = DVectorField(tab, tab.t(), parse("y", tab), parse("x", tab))
    cert = verify_darboux(D, parse("t", tab))
    assert cert is not None
    assert cert.G == parse("1", tab)


def test_first_integral_has_zero_cofactor(tab):
    # circle Hamiltonian field: y' = 2x, x' = -2y preserves x^2 + y^2
    D = DVectorField(tab, 1, parse("2*x", tab), parse("-2*y", tab))
    cert = verify_darboux(D, parse("x^2 + y^2", tab))
    assert cert is not None
    assert cert.G.is_zero()


def test_certificate_constructor_checks(tab):
    D = d2(tab, Fraction(-1, 2))
    with pytest.raises(ConstraintError):
        DarbouxCertificate(D, parse("x", tab), parse("3*y", tab))


def test_darboux_product_property(tab):
    D = d2(tab, Fraction(-1, 2))
    c1 = verify_darboux(D, parse("x", tab))
    prod = verify_darboux(D, c1.P * c1.P)
    assert prod is not None
    assert prod.G == c1.G + c1.G


# ---------------------------------------------------------------------------
# rescale


def test_rescale_transport(tab):
    D = d2(tab, Fraction(-1, 2))
    Dt = rescale(D, tab.t())
    cert = verify_darboux(Dt, parse("x", tab))
    assert cert.G == parse("2*t*y", tab)


def test_rescale_identity_and_zero(tab):
    D = d1(tab)
    assert rescale(D, 1) == D
    with pytest.raises(ConstraintError):
        rescale(D, 0)


def test_clear_denominators(tab):
    f = parse("2*y^2*x - y^2 + y + t", tab).scale(tab.one() / tab.t())
    g = parse("-2*y*x^2 + 2*y*x - x + 1", tab).scale(tab.one() / tab.t())
    D = DVectorField(tab, 1, f, g)
    Dc, mult = clear_denominators(D)
    assert mult == tab.t()
    assert Dc.e == parse("t", tab)
    assert Dc.f == parse("2*y^2*x - y^2 + y + t", tab)


def test_clear_denominators_noop(tab):
    D = d1(tab)
    Dc, mult = clear_denominators(D)
    assert mult == tab.one()
    assert Dc == D


# ---------------------------------------------------------------------------
# darboux_search


def test_search_finds_line(tab):
    res = darboux_search(d2(tab, Fraction(-1, 2)), SearchBounds(1, 0, 3))
    assert any(c.P == parse("x", tab) and c.G == parse("2*y", tab) for c in res)


def test_search_finds_parabola_normalized(tab):
    res = darboux_search(d2(tab, Fraction(1, 2)), SearchBounds(2, 1, 3))
    target = parse("x - 2*y^2 - t", tab).monic()
    hits = [c for c in res if c.P == target]
    assert len(hits) == 1
    assert hits[0].G == parse("-2*y", tab)


def test_search_empty_for_generic_parameter(tab):
    assert darboux_search(d2(tab, Fraction(1, 3)), SearchBounds(2, 1, 3)) == []


def test_search_results_verified_and_sorted(tab):
    res = darboux_search(d2(tab, Fraction(-1, 2)), SearchBounds(2, 1, 2))
    keys = [str(c.P) for c in res]
    assert keys == sorted(keys)
    for c in res:
        assert verify_darboux(c.derivation, c.P).G == c.G
        # monic normalization
        assert c.P.leading()[1] == tab.one()


def test_search_scaled_derivation_finds_fiber(tab):
    D = DVectorField(tab, tab.t(), parse("y", tab), parse("x", tab))
    res = darboux_search(D, SearchBounds(0, 1, 1, cofactor_deg=1))
    assert any(c.P == parse("t", tab) and c.G == parse("1", tab) for c in res)


def test_search_candidate_cap(tab):
    with pytest.raises(SearchCapExceededError):
        darboux_search(d2(tab, 0), SearchBounds(2, 1, 3, cofactor_deg=4),
                       max_candidates=10_000)


def test_search_matrix_cap(tab):
    with pytest.raises(SearchCapExceededError):
        darboux_search(d2(tab, 0), SearchBounds(2, 1, 3), max_matrix=10)


def test_search_rejects_symbolic_parameters():
    tab = SymbolTable()
    al = tab.declare_param("alpha")
    f = parse("x - y^2 - 1/2*t", tab)
    g = parse("2*x*y", tab) + al
    with pytest.raises(NonNumericError):
        darboux_search(DVectorField(tab, 1, f, g), SearchBounds(1, 0, 1))


def test_search_rejects_t_denominators(tab):
    f = parse("y", tab).scale(tab.one() / tab.t())
    D = DVectorField(tab, 1, f, parse("x", tab))
    with pytest.raises(NotDivisibleError):
        darboux_search(D, SearchBounds(1, 0, 1))


def test_rescale_transport_on_found_certificates(tab):
    res = darboux_search(d2(tab, Fraction(-1, 2)), SearchBounds(1, 0, 3))
    for c in res:
        Dt = rescale(c.derivation, tab.t())
        again = verify_darboux(Dt, c.P)
        assert again.G == parse("t", tab) * c.G


# ---------------------------------------------------------------------------
# first_integral_search


def test_first_integrals_trivial_derivation(tab):
    D = DVectorField(tab, 1, PhasePoly.zero(tab), PhasePoly.zero(tab))
    res = first_integral_search(D, SearchBounds(1, 0))
    assert res == [parse("x", tab), parse("y", tab)]


def test_first_integrals_circle(tab):
    D = DVectorField(tab, 1, parse("2*x", tab), parse("-2*y", tab))
    res = first_integral_search(D, SearchBounds(2, 0))
    assert parse("x^2 + y^2", tab) in res


def test_first_integrals_empty_for_first_family(tab):
    assert first_integral_search(d1(tab), SearchBounds(2, 1)) == []


def test_first_integrals_zero_bounds_empty(tab):
    assert first_integral_search(d1(tab), SearchBounds(0, 0)) == []


# ---------------------------------------------------------------------------
# the exact kernel against sympy

_DENOMINATORS = st.integers(1, 10**6) | st.sampled_from([999983, 2**31 - 1])
_ENTRIES = st.just(Fraction(0)) | st.builds(
    Fraction, st.integers(-10**6, 10**6), _DENOMINATORS)


@st.composite
def _rational_systems(draw):
    """(ncols, rows): `rank` random rational rows, then up to three rows
    that are small integer combinations of them, in a random order; a
    zero entry is as likely as any other, so some rows are sparse."""
    ncols = draw(st.integers(1, 6))
    rank = draw(st.integers(0, ncols))
    nrows = draw(st.integers(rank, rank + 3))
    rows = [draw(st.lists(_ENTRIES, min_size=ncols, max_size=ncols))
            for _ in range(rank)]
    for _ in range(nrows - rank):
        mix = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        rows.append([sum((m * row[c] for m, row in zip(mix, rows)), Fraction(0))
                     for c in range(ncols)])
    return ncols, draw(st.permutations(rows))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_rational_systems())
@example((3, []))                                           # no rows
@example((3, [[Fraction(0)] * 3] * 2))                      # all-zero rows
@example((2, [[Fraction(1, 999983), Fraction(2)],           # full column rank
              [Fraction(3), Fraction(-5, 2**31 - 1)],
              [Fraction(7, 10**6), Fraction(0)]]))
def test_integer_kernel_matches_sympy_nullspace(system):
    ncols, rows = system
    den = lcm(1, *(v.denominator for row in rows for v in row))
    int_rows = [[int(v * den) for v in row] for row in rows]
    given_rows = [list(row) for row in int_rows]
    oracle = sympy.Matrix(len(rows), ncols,
                          [sympy.Rational(v.numerator, v.denominator)
                           for row in rows for v in row]).nullspace()
    want = [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in oracle]
    assert _integer_kernel(int_rows, ncols) == want
    assert int_rows == given_rows
