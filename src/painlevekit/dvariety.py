"""Algebraic d-varieties on the affine plane.

A planar vector field D = e*d + f*d/dy + g*d/dx (d the coefficient-field
derivation, with dt = 1 and parameters constant) acts on polynomials in
the phase variables.  This module provides:

* apply_derivation    the action e*P^d + f*dP/dy + g*dP/dx
* tangent_lift        the shifted tangent equations in u1, u2
* verify_darboux      exact divisibility check D(P) = G*P
* darboux_search      bounded search over integer-coefficient cofactors:
                      eigenvalue prefilter, eigenvector test (full mod-p
                      rank as fallback), exact kernel
* first_integral_search  the G = 0 special case
* rescale             multiply D by a nonzero factor (certificate transport)

The search is complete only relative to its bounds: an empty result means
"no invariant found within bounds", never a nonexistence proof.

Only darboux_search computes numerically, so only it imports numpy and
_accel, inside the function: the exact commands of the CLI and the
catalog, which needs DVectorField, never pay for loading numpy.  It calls
_accel.darboux_candidate_flags through the module, not through a bound
name, so that the attribute stays the one place to wrap the filter (the
per-layer tracer of perfbench/ does).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from .errors import (
    ConstraintError,
    NonNumericError,
    NotDivisibleError,
    SearchCapExceededError,
)
from .field import (
    FieldElem,
    PhasePoly,
    SymbolTable,
    as_elem,
    as_phase,
    exact_divide,
)


class DVectorField:
    """D = e*d + f*d/dy + g*d/dx with polynomial components.

    e is the coefficient of the plain field derivation (1 for the
    families as printed, t or t(t-1) after clearing denominators);
    f and g are the y' and x' components.
    """

    __slots__ = ("table", "e", "f", "g")

    def __init__(self, table: SymbolTable, e, f, g):
        self.table = table
        self.e = as_phase(table, e)
        self.f = as_phase(table, f)
        self.g = as_phase(table, g)
        if self.e.is_zero():
            raise ConstraintError("derivation needs a nonzero e component")
        for name, comp in (("e", self.e), ("f", self.f), ("g", self.g)):
            if comp.has_uvars():
                raise ConstraintError(f"component {name} may not contain u1/u2")

    def apply(self, P: PhasePoly) -> PhasePoly:
        return apply_derivation(self, P)

    def components(self):
        return self.e, self.f, self.g

    def __eq__(self, other):
        if not isinstance(other, DVectorField):
            return NotImplemented
        return (self.e, self.f, self.g) == (other.e, other.f, other.g)

    def __repr__(self):
        return f"DVectorField(e={self.e}, f={self.f}, g={self.g})"


def apply_derivation(D: DVectorField, P: PhasePoly) -> PhasePoly:
    """e*P^d + f*dP/dy + g*dP/dx; the derivation of P along the field."""
    P = as_phase(D.table, P)
    if P.has_uvars():
        raise ConstraintError("P may not contain u1/u2")
    return D.e * P.coeff_d() + D.f * P.partial("y") + D.g * P.partial("x")


class TangentLift:
    """Shifted tangent equations for a generating set."""

    __slots__ = ("generators", "lifted")

    def __init__(self, generators: list, lifted: list):
        self.generators = list(generators)
        self.lifted = list(lifted)

    def __iter__(self):
        return iter(self.lifted)

    def __repr__(self):
        return f"TangentLift({self.lifted})"


def tangent_lift(generators: list) -> TangentLift:
    """Lift each generator P to (dP/dx)u1 + (dP/dy)u2 + P^d.

    With constant coefficients the inhomogeneous term P^d vanishes and
    the equations are the ordinary tangent-bundle ones.
    """
    lifted = []
    for P in generators:
        if P.has_uvars():
            raise ConstraintError("generators may not contain u1/u2")
        u1 = PhasePoly.var(P.table, "u1")
        u2 = PhasePoly.var(P.table, "u2")
        lifted.append(P.partial("x") * u1 + P.partial("y") * u2 + P.coeff_d())
    return TangentLift(generators, lifted)


def _is_differential_constant(P: PhasePoly) -> bool:
    # phase-constant with derivation-killed coefficient (e.g. 5, alpha);
    # t or radical-in-t content keeps a polynomial meaningful
    return P.is_constant() and P.constant_value().d().is_zero()


class DarbouxCertificate:
    """Pair (P, G) with D(P) = G*P, re-checked at construction."""

    __slots__ = ("P", "G", "derivation")

    def __init__(self, D: DVectorField, P: PhasePoly, G: PhasePoly):
        if apply_derivation(D, P) != G * P:
            raise ConstraintError("certificate does not satisfy D(P) = G*P")
        self.P = P
        self.G = G
        self.derivation = D

    def __eq__(self, other):
        if not isinstance(other, DarbouxCertificate):
            return NotImplemented
        return self.P == other.P and self.G == other.G

    def __repr__(self):
        return f"DarbouxCertificate(P={self.P}, G={self.G})"


def verify_darboux(D: DVectorField, P: PhasePoly) -> Optional[DarbouxCertificate]:
    """Certificate with the cofactor G when D(P) = G*P, else None."""
    P = as_phase(D.table, P)
    if P.is_zero():
        raise ConstraintError("P must be nonzero")
    if _is_differential_constant(P):
        raise ConstraintError("P must not be a constant")
    if P.has_uvars():
        raise ConstraintError("P may not contain u1/u2")
    DP = apply_derivation(D, P)
    G = exact_divide(DP, P)
    if G is None:
        return None
    return DarbouxCertificate(D, P, G)


def rescale(D: DVectorField, c: Union[FieldElem, PhasePoly, int, Fraction]) -> DVectorField:
    """Multiply every component by c; Darboux certificates transport with
    cofactor c*G."""
    c = as_phase(D.table, c)
    if c.is_zero():
        raise ConstraintError("rescale factor must be nonzero")
    return DVectorField(D.table, c * D.e, c * D.f, c * D.g)


def clear_denominators(D: DVectorField):
    """Rescale by the least common t-denominator of all coefficients.

    Returns (rescaled field, multiplier as FieldElem).  The multiplier is
    1 when components are already polynomial in t.
    """
    table = D.table
    from .field import _pconst, _pdiv_exact, _pgcd, _pmul

    n = len(table)
    common = _pconst(1)
    for comp in D.components():
        for coef in comp.terms.values():
            den = coef.den
            g = _pgcd(common, den, n)
            common = _pdiv_exact(_pmul(common, den), g, n)
    mult = FieldElem(table, common, _pconst(1))
    if mult == table.one():
        return D, table.one()
    return rescale(D, mult), mult


class SearchBounds:
    """Degree and coefficient bounds for the bounded Darboux search.

    deg_xy, deg_t bound the invariant P; cofactor_box bounds the integer
    coefficients enumerated for the cofactor G; cofactor_deg (total degree
    of G in x, y, t) defaults to the standard accounting
    deg_xy(G) <= max(deg_xy(f), deg_xy(g)) - 1, deg_t(G) <= max component
    t-degree when left unset.
    """

    __slots__ = ("deg_xy", "deg_t", "cofactor_box", "cofactor_deg")

    def __init__(self, deg_xy: int, deg_t: int, cofactor_box: int = 3,
                 cofactor_deg: Optional[int] = None):
        if deg_xy < 0 or deg_t < 0 or cofactor_box < 0 or \
                (cofactor_deg is not None and cofactor_deg < 0):
            raise ConstraintError("bounds must be nonnegative")
        self.deg_xy = deg_xy
        self.deg_t = deg_t
        self.cofactor_box = cofactor_box
        self.cofactor_deg = cofactor_deg

    def __repr__(self):
        return (f"SearchBounds(deg_xy={self.deg_xy}, deg_t={self.deg_t}, "
                f"cofactor_box={self.cofactor_box}, cofactor_deg={self.cofactor_deg})")


def _require_rational_in_t(D: DVectorField):
    table = D.table
    for comp in D.components():
        for coef in comp.terms.values():
            used = coef.symbols_used(transitive=True)
            if any(i != 0 for i in used):
                raise NonNumericError(
                    "search requires numeric parameters; instantiate with rationals")
            if any(e for e in coef.den if e):
                raise NotDivisibleError(
                    "components have denominators in t; clear them with rescale "
                    "(certificates transport)")


def _poly_monomials(deg_xy: int, deg_t: int):
    return ((i, j, k)
            for i in range(deg_xy + 1)
            for j in range(deg_xy + 1 - i)
            for k in range(deg_t + 1))


def _cofactor_monomials(D: DVectorField, bounds: SearchBounds):
    if bounds.cofactor_deg is not None:
        d = bounds.cofactor_deg
        return ((i, j, k)
                for i in range(d + 1)
                for j in range(d + 1 - i)
                for k in range(d + 1 - i - j))
    gxy = max(D.f.deg_xy(), D.g.deg_xy()) - 1
    gt = max(comp.deg_t() for comp in D.components())
    return _poly_monomials(max(gxy, 0), gt)


def _within_cap(monos, max_matrix: int) -> list:
    """The monomials, sorted.  Each is a row or a column of the system, so
    more than max_matrix of them pass the matrix cap whatever the other
    dimension; the count stops there, so no bound builds a longer list."""
    out = sorted(itertools.islice(monos, max_matrix + 1))
    if len(out) > max_matrix:
        raise SearchCapExceededError(
            f"more than {max_matrix} monomials within the bounds exceed "
            "the matrix cap")
    return out


def _mono_poly(table: SymbolTable, i: int, j: int, k: int) -> PhasePoly:
    coef = table.t() ** k if k else table.one()
    return PhasePoly(table, {(i, j, 0, 0): coef})


def _poly_to_rows(P: PhasePoly) -> dict:
    """Decompose into {(i, j, k): Fraction} over x^i y^j t^k monomials."""
    out = {}
    for e, c in P.terms.items():
        if any(ee for ee in c.den if ee):
            raise NotDivisibleError("coefficient not polynomial in t")
        den = c.den.get((), Fraction(1))
        for te, f in c.num.items():
            k = te[0] if te else 0
            out[(e[0], e[1], k)] = f / den
    return out


def _normalize_found(P: PhasePoly) -> PhasePoly:
    """Scale so the grlex-leading coefficient over x, y, t jointly is 1.

    Only used on search results, whose coefficients are polynomial in t;
    plain monic() would collapse pure-t polynomials like the fiber t.
    """
    best = None
    best_coef = None
    for e, c in P.terms.items():
        den = c.den.get((), Fraction(1))
        for te, f in c.num.items():
            k = te[0] if te else 0
            key = (e[0] + e[1] + k, (e[0], e[1], k))
            if best is None or key > best:
                best = key
                best_coef = f / den
    return P.scale(P.table.const(1 / best_coef))


def _fraction_kernel(rows: list, ncols: int) -> list:
    """Kernel basis of a dense Fraction matrix (list of row lists)."""
    if not rows:
        return [[Fraction(int(i == c)) for i in range(ncols)] for c in range(ncols)]
    M = [list(r) for r in rows]
    nrows = len(M)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if M[i][c]:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(nrows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -M[pr][c]
        basis.append(v)
    return basis


def _build_system(D: DVectorField, bounds: SearchBounds, gmonos: list,
                  max_matrix: int):
    """Exact matrices for D(P) - G*P = 0 over the monomial bases.

    G runs over the span of the cofactor monomials gmonos; with none, the
    system is D(P) = 0.  Returns (cols, A, Bidx) where A maps
    P-coefficients to D(P)-coefficients and Bidx[m] gives, for each column
    c, the one row whose (gmonos[m] * P)-coefficient is P's coefficient c.
    SearchCapExceededError when the matrix would have more than max_matrix
    entries; where the monomial counts alone show that, before building it.
    """
    table = D.table
    cols = _within_cap(_poly_monomials(bounds.deg_xy, bounds.deg_t), max_matrix)
    C = len(cols)
    # the rows take in gmonos (times P's constant) and, since G runs over
    # the constants too, a row for each of P's monomials
    R = max(len(gmonos), C if gmonos else 1)
    if R * C > max_matrix:
        raise SearchCapExceededError(
            f"system matrix of at least {R}x{C} exceeds the cap {max_matrix}")
    acols = []
    row_keys = set()
    for (i, j, k) in cols:
        DP = apply_derivation(D, _mono_poly(table, i, j, k))
        rows = _poly_to_rows(DP)
        acols.append(rows)
        row_keys.update(rows)
        for (gi, gj, gk) in gmonos:
            row_keys.add((i + gi, j + gj, k + gk))
    rows = sorted(row_keys)
    R = len(rows)
    if R * C > max_matrix:
        raise SearchCapExceededError(
            f"system matrix {R}x{C} exceeds the cap {max_matrix}")
    ridx = {key: n for n, key in enumerate(rows)}
    A = [[Fraction(0)] * C for _ in range(R)]
    for c, rowdict in enumerate(acols):
        for key, val in rowdict.items():
            A[ridx[key]][c] = val
    Bidx = [[ridx[(i + gi, j + gj, k + gk)] for (i, j, k) in cols]
            for (gi, gj, gk) in gmonos]
    return cols, A, Bidx


def _kernel_polys(table: SymbolTable, cols: list, M: list):
    """Normalized nonconstant polynomials from the kernel basis of M, whose
    columns are the coefficients of the monomials cols."""
    for vec in _fraction_kernel(M, len(cols)):
        P = PhasePoly(table, {})
        for c, v in enumerate(vec):
            if v:
                i, j, k = cols[c]
                P = P + _mono_poly(table, i, j, k).scale(table.const(v))
        if P.is_zero() or _is_differential_constant(P):
            continue
        yield _normalize_found(P)


def darboux_search(D: DVectorField, bounds: SearchBounds,
                   max_candidates: int = 2_000_000,
                   max_matrix: int = 40_000) -> list:
    """All Darboux certificates with P within bounds and an enumerated
    integer-coefficient cofactor.

    Three stages, the first two in ``_accel.darboux_candidate_flags``:

    1. eigenvalue prefilter: the constant cofactor coefficient is not
       enumerated but solved for, as an eigenvalue mod p of the square
       block the other coefficients fix;
    2. eigenvector, with full rank as fallback: each survivor of stage 1
       whose square block has a one-dimensional eigenspace there is
       decided by whether the whole system annihilates its eigenvector;
       the others by an elimination of the whole system mod p;
    3. exact kernel: Fraction elimination for each survivor of stage 2,
       then re-verification of every polynomial found.

    Stages 1 and 2 are sound: they only discard candidates whose system
    is provably of full rank.  Results are normalized (P monic in grlex),
    deduplicated, and sorted.
    """
    import numpy as np

    from . import _accel

    _require_rational_in_t(D)
    table = D.table
    gmonos = _within_cap(_cofactor_monomials(D, bounds), max_matrix)
    cols, A, Bidx = _build_system(D, bounds, gmonos, max_matrix)
    R, C = len(A), len(cols)
    m = len(gmonos)
    width = 2 * bounds.cofactor_box + 1
    n_candidates = width ** m
    if n_candidates > max_candidates:
        raise SearchCapExceededError(
            f"{n_candidates} cofactor candidates exceed the cap {max_candidates}; "
            "lower cofactor_box or set cofactor_deg")

    # integer scaling for the modular stage
    denlcm = 1
    for row in A:
        for v in row:
            if v:
                denlcm = lcm(denlcm, v.denominator)
    A_mod = np.array([[int(v * denlcm) % _accel.MOD_P for v in row] for row in A],
                     np.int64)
    B_mod = np.zeros((m, R, C), np.int64)
    for mi, ridx in enumerate(Bidx):
        B_mod[mi, ridx, np.arange(C)] = denlcm % _accel.MOD_P

    # m >= 1: the constant (0, 0, 0) is always a cofactor monomial
    vals = np.arange(-bounds.cofactor_box, bounds.cofactor_box + 1, dtype=np.int64)
    cand = np.stack(np.meshgrid(*([vals] * m), indexing="ij"), axis=-1).reshape(-1, m)
    flags = _accel.darboux_candidate_flags(A_mod, B_mod, cand, _accel.MOD_P)

    found = {}
    for idx in np.nonzero(flags)[0]:
        gvec = cand[idx]
        M = [list(Arow) for Arow in A]
        for coef, ridx in zip(gvec, Bidx):
            if coef:
                for c, r in enumerate(ridx):
                    M[r][c] -= Fraction(int(coef))
        for P in _kernel_polys(table, cols, M):
            key = str(P)
            if key in found:
                continue
            cert = verify_darboux(D, P)
            if cert is not None:
                found[key] = cert
    return [found[k] for k in sorted(found)]


def first_integral_search(D: DVectorField, bounds: SearchBounds,
                          max_matrix: int = 40_000) -> list:
    """Polynomials P within bounds with D(P) = 0, constants excluded."""
    _require_rational_in_t(D)
    cols, A, _ = _build_system(D, bounds, [], max_matrix)
    out = {str(P): P for P in _kernel_polys(D.table, cols, A)}
    results = [out[k] for k in sorted(out)]
    for P in results:
        assert apply_derivation(D, P).is_zero()
    return results
