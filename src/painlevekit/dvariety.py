"""Algebraic d-varieties on the affine plane.

A planar vector field D = e*d + f*d/dy + g*d/dx (d the coefficient-field
derivation, with dt = 1 and parameters constant) acts on polynomials in
the phase variables.  This module provides:

* apply_derivation    the action e*P^d + f*dP/dy + g*dP/dx
* tangent_lift        the shifted tangent equations in u1, u2
* verify_darboux      exact divisibility check D(P) = G*P
* darboux_search      bounded search over integer-coefficient cofactors:
                      eigenvalue prefilter, full mod-p rank, exact kernel
* first_integral_search  the G = 0 special case
* rescale             multiply D by a nonzero factor (certificate transport)

The search is complete only relative to its bounds: an empty result means
"no invariant found within bounds", never a nonexistence proof.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

import numpy as np

from . import _accel
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
    out = []
    for i in range(deg_xy + 1):
        for j in range(deg_xy + 1 - i):
            for k in range(deg_t + 1):
                out.append((i, j, k))
    out.sort()
    return out


def _cofactor_monomials(D: DVectorField, bounds: SearchBounds):
    if bounds.cofactor_deg is not None:
        d = bounds.cofactor_deg
        out = [(i, j, k)
               for i in range(d + 1)
               for j in range(d + 1 - i)
               for k in range(d + 1 - i - j)]
    else:
        gxy = max(D.f.deg_xy(), D.g.deg_xy()) - 1
        if gxy < 0:
            gxy = 0
        gt = max(comp.deg_t() for comp in D.components())
        out = [(i, j, k)
               for i in range(gxy + 1)
               for j in range(gxy + 1 - i)
               for k in range(gt + 1)]
    out.sort()
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


def _build_system(D: DVectorField, bounds: SearchBounds, gmonos: list):
    """Exact matrices for D(P) - G*P = 0 over the monomial bases.

    G runs over the span of the cofactor monomials gmonos; with none, the
    system is D(P) = 0.  Returns (cols, A, Bmats, rows) where A maps
    P-coefficients to D(P)-coefficients and Bmats[m] maps them to
    (gmonos[m] * P)-coefficients.
    """
    table = D.table
    cols = _poly_monomials(bounds.deg_xy, bounds.deg_t)
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
    ridx = {key: n for n, key in enumerate(rows)}
    R, C = len(rows), len(cols)
    A = [[Fraction(0)] * C for _ in range(R)]
    for c, rowdict in enumerate(acols):
        for key, val in rowdict.items():
            A[ridx[key]][c] = val
    Bmats = []
    for (gi, gj, gk) in gmonos:
        B = np.zeros((R, C), np.int64)
        for c, (i, j, k) in enumerate(cols):
            B[ridx[(i + gi, j + gj, k + gk)], c] = 1
        Bmats.append(B)
    return cols, A, Bmats, rows


def _check_matrix_cap(rows: list, cols: list, max_matrix: int):
    R, C = len(rows), len(cols)
    if R * C > max_matrix:
        raise SearchCapExceededError(
            f"system matrix {R}x{C} exceeds the cap {max_matrix}")


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
    2. full mod-p rank: an elimination of the whole system for each
       survivor of stage 1;
    3. exact kernel: Fraction elimination for each survivor of stage 2,
       then re-verification of every polynomial found.

    Stages 1 and 2 are sound: they only discard candidates whose system
    is provably of full rank.  Results are normalized (P monic in grlex),
    deduplicated, and sorted.
    """
    _require_rational_in_t(D)
    table = D.table
    gmonos = _cofactor_monomials(D, bounds)
    cols, A, Bmats, rows = _build_system(D, bounds, gmonos)
    _check_matrix_cap(rows, cols, max_matrix)
    R, C = len(rows), len(cols)
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
    B_mod = np.stack([(B * denlcm) % _accel.MOD_P for B in Bmats]) if m else \
        np.zeros((0, R, C), np.int64)

    if m == 0:
        cand = np.zeros((1, 0), np.int64)
    else:
        vals = np.arange(-bounds.cofactor_box, bounds.cofactor_box + 1, dtype=np.int64)
        cand = np.stack(np.meshgrid(*([vals] * m), indexing="ij"), axis=-1).reshape(-1, m)
    flags = _accel.darboux_candidate_flags(A_mod, B_mod, cand, _accel.MOD_P)

    found = {}
    for idx in np.nonzero(flags)[0]:
        gvec = cand[idx]
        M = [list(Arow) for Arow in A]
        for mi, coef in enumerate(gvec):
            if coef:
                B = Bmats[mi]
                nz = np.nonzero(B)
                for r, c in zip(*nz):
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
    cols, A, _, rows = _build_system(D, bounds, [])
    _check_matrix_cap(rows, cols, max_matrix)
    out = {str(P): P for P in _kernel_polys(D.table, cols, A)}
    results = [out[k] for k in sorted(out)]
    for P in results:
        assert apply_derivation(D, P).is_zero()
    return results
