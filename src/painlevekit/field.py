"""Exact arithmetic for the coefficient field K = Q(t, parameters).

The field is Q(t) extended by named transcendental parameters and by
square roots declared through relations s^2 = r.  SymbolTable.root_of
alone decides whether a square root is already in the field (a rational
multiple of a product of declared radicals); declare_radical refuses a
radicand that has one, and every module that takes square roots asks the
table rather than deciding for itself.  For a rational radicand it needs
no primes: it refines |num*den| of the radicand and of the declared
rational radicands into a coprime base by gcds alone, reads each square
class as a bitmask over that base, and returns the product of declared
radicals times a rational root >= 0.  Values are represented as reduced
fractions of sparse multivariate polynomials with Fraction coefficients.
Integer coefficients are used in one place, the polynomial gcd: _pgcd
clears the denominators of its operands once, runs the primitive PRS over
Z[symbols], and makes the result monic over Q at the end (an operand of
one term needs no PRS: the gcd is then a monomial).  The dict kernel
(_padd, _pmul, _pdiv_exact, ...) uses only +, *, / and truth tests on
coefficients, so it serves Z, Q and K alike: PhasePoly runs on it too.  The
representation is private to this module: other modules read coefficients
through FieldElem.t_coefficients, FieldElem.complex_t_coefficients and
common_denominator, so a change of format touches this file alone.
Canonical form:

* graded-lexicographic monomial order on the table's symbol order,
* every radical symbol appears with exponent <= 1 (squares rewritten
  through their relations),
* the denominator is free of radical symbols (conjugate rationalization),
* gcd(numerator, denominator) = 1 and the denominator's leading
  coefficient is 1,
* the terms of both dicts are listed by descending grlex (eval_complex
  and complex_t_coefficients sum them in this order, which fixes the
  bits of every numeric value built from them).

Radicals are cleared in one sweep, last declared first.  A radicand uses
only symbols declared before its radical, so at radical s, with s^2 = n/d,
rewriting s^(2k+e) as n^k * d^(m-k) * s^e (numerator and denominator
scaled by d^m) and then multiplying by the conjugate a - b*s of a
denominator a + b*s bring back no radical the sweep has passed.

Canonicalization skips the work that cannot change this form:

* operands in which no radical symbol occurs skip the radical sweep,
  which would leave them as they are;
* a rational constant denominator c needs no gcd, since gcd(num, c) = 1:
  the numerator is divided by c;
* a product or quotient of two radical-free canonical elements
  n1/d1 * n2/d2 cancels only g1 = gcd(n1, d2) and g2 = gcd(n2, d1), each
  skipped when one side is a constant.  Henrici's lemma (JACM 1956; Knuth,
  TAOCP vol. 2, 4.5.1) makes (n1/g1 * n2/g2) / (d1/g2 * d2/g1) coprime
  in the UFD Q[symbols], and monic factors keep the denominator monic.
  For a quotient the divisor is inverted first, scaled so that its new
  denominator is monic.  Operands with radicals take the full path: their
  product may hold s^2, and rewriting it through s^2 = r and clearing s
  from the denominator change both sides after any cross-cancellation;
* a rational operand, told by as_fraction from the shape of its dicts,
  takes a closed form: two rationals add and multiply as one Fraction, a
  rational k != 0 times n/d is (k*n)/d, already canonical (a unit keeps
  the gcd 1, the denominator monic and free of radicals, and the term
  order), a quotient by k is the product with 1/k, and d() of an element
  over 1 is that of its numerator.  The canonical-forms fixture of
  tests/test_field_oracle.py records every element built, intermediates
  included, so a shortcut must not skip building one whose str() nothing
  else builds: a difference still negates its subtrahend, and d() of any
  other derivation constant still runs the quotient rule;
* a gcd with a one-term operand, such as a denominator a*b, is the
  componentwise minimum of the exponents of both operands, since a
  monomial's only divisors are monomials;
* coprime by a mod-p image: every gcd that would run the PRS, metered or
  not, first maps both operands to F_p[v], p = 2^31 - 1, for each symbol v
  both use, the other symbols at fixed values, and takes the gcd to be 1
  when every image gcd has degree 0.  A common factor uses some such v,
  and where the image of an operand's leading coefficient in v is nonzero,
  the factor's image keeps its degree in v and divides both images
  (Gauss's lemma over Z_(p); Brown, J. ACM 1971).

A small recursive-descent parser and a canonical printer round-trip the
text grammar: rational literals, symbol names, + - * / ^ and parentheses,
with ^ taking nonnegative integer exponents up to MAX_EXPONENT (100), and
a power refused when its degree in any one symbol would pass that cap.
Expressions may also use the reserved phase variables x, y, u1, u2, in
which case parsing yields a PhasePoly (polynomial in the phase variables
over K).

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import add, floordiv, sub, truediv
from typing import Optional, Union

from .errors import (
    DegenerateRadicalError,
    DivisionByZeroError,
    NonNumericError,
    NotDivisibleError,
    ParseError,
    RadicalDeclarationError,
    UnknownSymbolError,
)

# Exact rational scalar. Fraction already maintains gcd-reduced form with
# a positive denominator, which is exactly the Rat contract.
Rat = Fraction

PHASE_VARS = ("x", "y", "u1", "u2")

KIND_IVAR = "independent-variable"
KIND_PARAM = "transcendental-parameter"
KIND_RADICAL = "radical"

# ---------------------------------------------------------------------------
# sparse polynomial layer: dict {exponent tuple: coefficient}
#
# Exponent tuples are stored with trailing zeros stripped so that values
# survive later symbol declarations on the same table (append-only).


def _strip(e: tuple) -> tuple:
    k = len(e)
    while k and e[k - 1] == 0:
        k -= 1
    return e[:k]


def _pad(e: tuple, n: int) -> tuple:
    return e + (0,) * (n - len(e))


def _exp_get(e: tuple, i: int) -> int:
    return e[i] if i < len(e) else 0


def _pconst(c) -> dict:
    c = Fraction(c)
    return {(): c} if c else {}


def _pvar(i: int) -> dict:
    return {_strip((0,) * i + (1,)): Fraction(1)}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _psub(a: dict, b: dict) -> dict:
    return _padd(a, _pneg(b))


def _emul(e1: tuple, e2: tuple) -> tuple:
    # both stripped: the last entry of the longer one keeps the sum stripped
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    return tuple(map(add, e1, e2 + (0,) * (len(e1) - len(e2))))


def _pmul(a: dict, b: dict) -> dict:
    # a constant factor, most often 1, scales the other in its term order
    if _is_const(a):
        return _pscale(b, a[()])
    if _is_const(b):
        return _pscale(a, b[()])
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = _emul(e1, e2)
            c = c1 * c2
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _pscale(a: dict, c) -> dict:
    if not c:
        return {}
    return dict(a) if c == 1 else {e: cc * c for e, cc in a.items()}


def _plead(a: dict) -> tuple:
    # leading (exponent, coefficient) under grlex: a stripped exponent
    # compares as its zero-padded form does, its last entry being nonzero
    _, e = max(zip(map(sum, a), a))
    return e, a[e]


def _pdiv_exact(a: dict, b: dict, quo=truediv) -> Optional[dict]:
    """Exact division a/b; None when not divisible.

    Single-divisor reduction is a complete divisibility test: a is a
    multiple of b iff the remainder vanishes.  quo divides coefficients:
    truediv over Q, floordiv over Z in the gcd.
    """
    if not b:
        raise DivisionByZeroError("polynomial division by zero")
    if b == {(): 1}:
        # the divisor 1: the terms of a, listed as the reduction would
        return _grlex_sorted(a)
    q: dict = {}
    r = dict(a)
    eb, cb = _plead(b)
    while r:
        er, cr = _plead(r)
        if len(er) < len(eb):
            return None
        diff = tuple(map(sub, er, eb + (0,) * (len(er) - len(eb))))
        if any(d < 0 for d in diff):
            return None
        e = _strip(diff)
        c = quo(cr, cb)
        q[e] = c
        r = _padd(r, _pmul({e: -c}, b))
        if er in r:
            return None  # over Z: cb does not divide cr
    return q


def _pderiv_formal(a: dict, i: int) -> dict:
    # formal d/d(symbol i), no chain rule
    out: dict = {}
    for e, c in a.items():
        k = _exp_get(e, i)
        if k:
            ee = list(_pad(e, i + 1))
            ee[i] = k - 1
            out[_strip(tuple(ee))] = c * k
    return out


def _is_const(a: dict) -> bool:
    # a nonzero rational constant
    return len(a) == 1 and () in a


def _grlex_sorted(a: dict) -> dict:
    # the terms of a listed by descending grlex, as canonical forms keep them
    return {e: a[e] for _, e in sorted(zip(map(sum, a), a), reverse=True)}


def _vars_used(a: dict) -> set:
    out = set()
    for e in a:
        for i, k in enumerate(e):
            if k:
                out.add(i)
    return out


def _deg_in(a: dict, v: int) -> int:
    return max((e[v] for e in a if len(e) > v), default=0)


def _coeff_in(a: dict, v: int, k: int) -> dict:
    out = {}
    for e, c in a.items():
        if len(e) <= v:
            if not k:
                out[e] = c
        elif e[v] == k:
            out[_strip(e[:v] + (0,) + e[v + 1:])] = c
    return out


class _CancelBudgetExceeded(Exception):
    pass


_CANCEL_CAP = 400_000


def _spend(budget, units: int):
    """Charge units to a metered gcd; budget is [units left] or None."""
    if budget is not None:
        budget[0] -= units
        if budget[0] < 0:
            raise _CancelBudgetExceeded()


def _prem(a: dict, b: dict, v: int, budget=None) -> dict:
    # pseudo-remainder of a by b in variable v
    db = _deg_in(b, v)
    lb = _coeff_in(b, v, db)
    r = dict(a)
    while r and _deg_in(r, v) >= db:
        dr = _deg_in(r, v)
        lr = _coeff_in(r, v, dr)
        _spend(budget, len(lb) * len(r) + len(lr) * len(b))
        shift = {_strip((0,) * v + (dr - db,)): 1}
        r = _psub(_pmul(lb, r), _pmul(_pmul(lr, shift), b))
    return r


def _content_in(a: dict, v: int, budget=None) -> dict:
    # gcd over Z[symbols] of the coefficients of a in symbol v
    g: dict = {}
    for k in range(_deg_in(a, v) + 1):
        c = _coeff_in(a, v, k)
        if c:
            g = _zgcd(g, c, budget)
    return g


_COPRIME_P = 2**31 - 1


def _coprime_point(i: int) -> int:
    # the fixed value of symbol i in _coprime_mod_p (a Park-Miller term)
    return pow(16807, i + 1, _COPRIME_P)


def _mod_p_gcd_degree(f: list, g: list, p: int) -> int:
    """Degree of gcd(f, g) in F_p[v]; f, g dense from degree 0, no zero top."""
    while g:
        inv = pow(g[-1], -1, p)
        dg = len(g) - 1
        f = list(f)
        while len(f) > dg:
            q = f[-1] * inv % p
            off = len(f) - 1 - dg
            for j in range(dg):
                f[off + j] = (f[off + j] - q * g[j]) % p
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _coprime_mod_p(a: dict, b: dict) -> bool:
    """True proves gcd(a, b) = 1 in Q[symbols]; False means only "not shown".

    For each symbol v that both use, every other symbol i is set to
    _coprime_point(i) and Euclid runs on the images in F_p[v], p = 2^31 - 1.
    A common factor h uses some such v, and when the image of lc_v(a) or of
    lc_v(b) is nonzero, the image of h keeps its degree in v and divides
    both images (Gauss's lemma over Z_(p); Brown, J. ACM 1971).  So image
    gcds of degree 0 for every such v leave h no variable.
    """
    p = _COPRIME_P
    images = []
    for poly in (a, b):
        terms = []
        for e, c in poly.items():
            den = c.denominator % p
            if not den:
                return False
            num = c.numerator % p
            terms.append((e, num if den == 1 else num * pow(den, -1, p) % p))
        images.append(terms)
    shared = _vars_used(a) & _vars_used(b)
    for v in shared:
        dense = []
        for terms in images:
            out = [0] * (1 + max(_exp_get(e, v) for e, _ in terms))
            for e, c in terms:
                val = c
                for i, k in enumerate(e):
                    if k and i != v:
                        val = val * pow(_coprime_point(i), k, p) % p
                out[_exp_get(e, v)] += val
            dense.append([c % p for c in out])
        f, g = dense
        if not (f[-1] or g[-1]):
            return False
        while f and not f[-1]:
            f.pop()
        while g and not g[-1]:
            g.pop()
        if _mod_p_gcd_degree(f, g, p) != 0:
            return False
    return True


def _primitive(a: dict) -> dict:
    # a over Z: denominators, integer content and a negative leading sign removed
    if not a:
        return {}
    den = math.lcm(*(c.denominator for c in a.values()))
    a = {e: c.numerator * (den // c.denominator) for e, c in a.items()}
    g = math.gcd(*a.values())
    if _plead(a)[1] < 0:
        g = -g
    return {e: c // g for e, c in a.items()}


def _pgcd(a: dict, b: dict, budget=None) -> dict:
    """Monic gcd in Q[symbols], by _zgcd on the primitive parts over Z.

    When both are nonzero and one has a single term, the gcd is closed
    form: a monomial's only divisors are monomials, so it is the largest
    monomial dividing every term of both, the componentwise minimum of
    their exponents (Knuth, TAOCP vol. 2, 4.6.1).  That takes O(terms)
    work and charges no units, metered or not.

    Otherwise _zgcd runs: with a budget ([units left]) its work is metered
    and _CancelBudgetExceeded is raised once it runs out; without one the
    gcd runs to the end, as canonicalization needs.
    """
    if a and b and (len(a) == 1 or len(b) == 1):
        # zip stops at the shortest tuple: stripped zeros are minima there
        return {_strip(tuple(map(min, zip(*a, *b)))): Fraction(1)}
    g = _zgcd(_primitive(a), _primitive(b), budget)
    if not g:
        return {}
    _, lc = _plead(g)
    return {e: Fraction(c, lc) for e, c in g.items()}


def _zgcd(a: dict, b: dict, budget=None) -> dict:
    """Primitive gcd of a and b in Z[symbols], by the primitive PRS (Knuth,
    TAOCP vol. 2, 4.6.1, Algorithm E).  Every call, metered or not, asks
    _coprime_mod_p first and returns 1 at once, charging no units, for
    operands it proves coprime.  The content gcds of the PRS are calls of
    _zgcd too, so the check settles the coprime ones.
    """
    if not a:
        return _primitive(b)
    if not b:
        return _primitive(a)
    used = _vars_used(a) | _vars_used(b)
    if not used:
        return {(): 1}
    if _coprime_mod_p(a, b):
        return {(): 1}
    _spend(budget, len(a) + len(b))
    v = max(used)
    ca, cb = _content_in(a, v, budget), _content_in(b, v, budget)
    pa = _pdiv_exact(a, ca, floordiv)
    pb = _pdiv_exact(b, cb, floordiv)
    cg = _zgcd(ca, cb, budget)
    if _deg_in(pa, v) < _deg_in(pb, v):
        pa, pb = pb, pa
    while pb:
        r = _prem(pa, pb, v, budget)
        if r:
            # the content in v, and then the integer content, would grow
            # without bound through univariate pseudo-remainders
            r = _primitive(_pdiv_exact(r, _content_in(r, v, budget), floordiv))
        pa, pb = pb, r
    pp = _pdiv_exact(pa, _content_in(pa, v, budget), floordiv)
    return _primitive(_pmul(cg, pp))


# ---------------------------------------------------------------------------
# symbol table


def _rat_sqrt(q: Fraction) -> Optional[Fraction]:
    """The nonnegative rational square root of q, or None if q has none."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _coprime_base(ms) -> list:
    """Pairwise coprime integers > 1 of which each positive m in ms is a
    product of powers: factor refinement (Bach, Driscoll and Shallit, J.
    Algorithms 1993) replaces two elements with gcd g > 1 by g, a/g and
    b/g, which lowers the product of all elements, until none share a
    factor."""
    base = []
    todo = list(ms)
    while todo:
        a = todo.pop()
        if a == 1:
            continue
        for k, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[k]
                todo += (g, a // g, b // g)
                break
        else:
            base.append(a)
    return base


def _class_bits(q: Fraction, base: list) -> int:
    """The class of q != 0 in Q*/Q*^2 as a bitmask over a coprime base of
    |num*den| whose elements are no squares: bit 0 for the sign, bit j+1
    for base[j] to an odd power.  For pairwise coprime b_j, a product of
    powers b_j^e_j is a square exactly when every b_j of odd e_j is one,
    so the mask is 0 exactly for positive squares."""
    m = q.numerator * q.denominator  # q and m differ by the square den^2
    bits = int(m < 0)
    m = abs(m)
    for j, b in enumerate(base):
        e = 0
        while m % b == 0:
            m //= b
            e += 1
        bits |= (e & 1) << (j + 1)
    return bits


class SymbolTable:
    """Ordered symbols of the coefficient field.

    The independent variable t is always the first symbol.  Parameters are
    transcendental by convention (no relations); radicals carry a defining
    relation s^2 = r whose right-hand side may only involve earlier
    symbols and must be constant under the derivation.

    The table is append-only; values created before a declaration remain
    valid afterwards.
    """

    def __init__(self):
        self._names: list = ["t"]
        self._kinds: list = [KIND_IVAR]
        self._index = {"t": 0}
        self._relations: dict = {}    # radical index -> FieldElem radicand
        self._radicals: tuple = ()    # radical indices, in declaration order
        self._derivs: dict = {}       # index -> FieldElem (defaults: t->1, else 0)
        self._rational_radicands: list = []  # (radical index, Fraction radicand)

    # -- declarations ------------------------------------------------------

    def _check_name(self, name: str):
        if not name.isidentifier():
            raise RadicalDeclarationError(f"bad symbol name {name!r}")
        if name in PHASE_VARS:
            raise RadicalDeclarationError(f"{name!r} is a reserved phase variable")
        if name in self._index:
            raise RadicalDeclarationError(f"symbol {name!r} already declared")

    def declare_param(self, name: str, derivative: Optional[str] = None) -> "FieldElem":
        """Declare a transcendental parameter; optionally name its derivative.

        The derivative, when given, must itself be a declared symbol; this
        supports towers like a with da/dt = a' where a' is another
        transcendental.
        """
        self._check_name(name)
        if derivative is not None and derivative not in self._index:
            raise UnknownSymbolError(f"derivative symbol {derivative!r} not declared", 0)
        self._names.append(name)
        self._kinds.append(KIND_PARAM)
        i = len(self._names) - 1
        self._index[name] = i
        if derivative is not None:
            self._derivs[i] = self.sym(derivative)
        return self.sym(name)

    def declare_radical(self, name: str, radicand: Union["FieldElem", str, int, Fraction]) -> "FieldElem":
        """Declare s with s^2 = radicand.

        Rejected when the radicand is zero, depends on t or on any symbol
        with a nonzero derivative (radicals must be differential constants),
        or already has a square root in the field (root_of is not None):
        a rational square, a rational radicand that is a square times a
        product of earlier rational radicands, or a radicand that is an
        earlier one times such a rational.
        """
        self._check_name(name)
        if isinstance(radicand, str):
            radicand = parse(radicand, self)
            if not isinstance(radicand, FieldElem):
                raise RadicalDeclarationError("radicand must be a coefficient-field element")
        r = as_elem(self, radicand)
        if r.is_zero():
            raise RadicalDeclarationError("zero radicand")
        if not r.d().is_zero():
            raise RadicalDeclarationError(f"radicand of {name!r} is not a differential constant")
        q = r.as_fraction()
        root = self.root_of(r)
        if root is not None:
            if q is None:
                names = [self._names[j] for j in sorted(root.symbols_used(False))]
                used = names[0] if len(names) == 1 else "(" + "*".join(names) + ")"
                raise RadicalDeclarationError(
                    f"radicand duplicates {used}^2 up to a square rational")
            if root.as_fraction() is not None:
                raise RadicalDeclarationError(
                    f"radicand {q} is a perfect square; declare the rational root instead")
            raise RadicalDeclarationError(
                f"radicand {q} is a square times a product of earlier radicands")
        self._names.append(name)
        self._kinds.append(KIND_RADICAL)
        i = len(self._names) - 1
        self._index[name] = i
        self._relations[i] = r
        self._radicals += (i,)
        if q is not None:
            self._rational_radicands.append((i, q))
        return self.sym(name)

    def root_of(self, radicand) -> Optional["FieldElem"]:
        """A square root of the radicand already in the field, or None.

        The one place that decides whether a square root needs a new
        radical.  A rational q has one when its square class (Q*/Q*^2) is a
        product of the classes of declared rational radicands r_i, i in E:
        then prod s_i * sqrt(q / prod r_i), the second factor the rational
        root >= 0 (0 has 0).  The declared classes are independent, so E
        is unique, and the root does not depend on the order of
        declaration.  Any other r has s_j * sqrt(r / r_j) for the first
        radical s_j whose ratio r / r_j is rational with a root of that
        first kind, so a product of one symbolic radical with rational ones
        is found (2*a with sqrt(2) and sqrt(a) declared).  A product of
        several symbolic radicands (a*b with sqrt(a) and sqrt(b) declared)
        is missed.
        """
        r = as_elem(self, radicand)
        q = r.as_fraction()
        if q is not None:
            return self._rational_root(q)
        for j, rj in self._relations.items():
            ratio = (r / rj).as_fraction()
            if ratio is None:
                continue
            root = self._rational_root(ratio)
            if root is not None:
                return self.sym(self._names[j]) * root
        return None

    def _rational_root(self, q: Fraction) -> Optional["FieldElem"]:
        """root_of for a rational q.

        The classes are bitmasks over a coprime base of |num*den| of q and
        of the rational radicands (_class_bits), and an F2 echelon on them,
        each row keyed by its leading bit and carrying the mask of the
        radicands it sums, finds E.
        """
        if not q:
            return self.zero()
        rads = self._rational_radicands
        ms = (abs(x.numerator * x.denominator) for x in (q, *(r for _, r in rads)))
        base = [b for b in _coprime_base(ms) if math.isqrt(b) ** 2 != b]
        rows: dict = {}

        def eliminate(bits, used):
            while bits and bits.bit_length() in rows:
                row_bits, row_used = rows[bits.bit_length()]
                bits, used = bits ^ row_bits, used ^ row_used
            return bits, used

        for k, (_, r) in enumerate(rads):
            bits, used = eliminate(_class_bits(r, base), 1 << k)
            rows[bits.bit_length()] = (bits, used)
        bits, used = eliminate(_class_bits(q, base), 0)
        if bits:
            return None
        exps, square = [0] * len(self._names), Fraction(1)
        for k, (i, r) in enumerate(rads):
            if used >> k & 1:
                exps[i] = 1
                square *= r
        # c * prod s_i with c != 0 rational: one term over 1, canonical
        return FieldElem(self, {_strip(tuple(exps)): _rat_sqrt(q / square)}, _pconst(1),
                         _canonical=True)

    # -- lookups -----------------------------------------------------------

    @property
    def names(self) -> tuple:
        return tuple(self._names)

    def __len__(self):
        return len(self._names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol {name!r}", 0) from None

    def kind(self, name: str) -> str:
        return self._kinds[self.index(name)]

    def relation(self, name: str) -> Optional["FieldElem"]:
        return self._relations.get(self.index(name))

    def radical_indices(self) -> tuple:
        """The radical indices, increasing: declaration order is index order."""
        return self._radicals

    def derivative_of(self, i: int) -> "FieldElem":
        if i == 0:
            return self.one()
        return self._derivs.get(i, self.zero())

    # -- constructors ------------------------------------------------------

    def sym(self, name: str) -> "FieldElem":
        return FieldElem(self, _pvar(self.index(name)), _pconst(1))

    def t(self) -> "FieldElem":
        return self.sym("t")

    def zero(self) -> "FieldElem":
        return self.const(0)

    def one(self) -> "FieldElem":
        return self.const(1)

    def const(self, c) -> "FieldElem":
        # c or 0 over 1 is already canonical
        return FieldElem(self, _pconst(c), _pconst(1), _canonical=True)


# ---------------------------------------------------------------------------
# field elements


def as_elem(table: SymbolTable, v) -> "FieldElem":
    if isinstance(v, FieldElem):
        if v.table is not table:
            raise ValueError("mixing symbol tables")
        return v
    if isinstance(v, (int, Fraction)):
        return table.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to FieldElem")


class FieldElem:
    """Element of K = Q(t, params, radicals), kept in canonical form."""

    __slots__ = ("table", "num", "den", "_hash")

    def __init__(self, table: SymbolTable, num: dict, den: dict, _canonical: bool = False):
        self.table = table
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = _canonicalize(table, num, den)
        self._hash = None

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def as_fraction(self) -> Optional[Fraction]:
        """The value as a rational constant, or None if symbols remain.

        A canonical element is rational exactly when its numerator is 0 or
        a constant c and its denominator is constant, hence 1 (it is
        monic): a test of the dicts' shapes, with no arithmetic, cheap
        enough to guard the rational closed forms of + * / and d().
        """
        num = self.num
        if _is_const(self.den) and (not num or _is_const(num)):
            return num[()] if num else Fraction(0)
        return None

    def symbols_used(self, transitive: bool = True) -> set:
        """Indices of symbols the value depends on.

        With transitive=True, radical symbols pull in the symbols of their
        radicands, so "depends on a parameter" is visible even through
        square roots.
        """
        out = _vars_used(self.num) | _vars_used(self.den)
        if transitive:
            # a radicand uses only earlier symbols: one descending pass
            for i in reversed(self.table.radical_indices()):
                if i in out:
                    out |= self.table._relations[i].symbols_used(False)
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (PhasePoly, PhaseRational)):
            return NotImplemented
        o = as_elem(self.table, other)
        k, q = self.as_fraction(), o.as_fraction()
        if k is not None and q is not None:
            return self.table.const(k + q)
        return FieldElem(self.table,
                         _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                         _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.table, _pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        if isinstance(other, (PhasePoly, PhaseRational)):
            return NotImplemented
        return self + (-as_elem(self.table, other))

    def __rsub__(self, other):
        return as_elem(self.table, other) - self

    def __mul__(self, other):
        if isinstance(other, (PhasePoly, PhaseRational)):
            return NotImplemented
        o = as_elem(self.table, other)
        table = self.table
        k, q = self.as_fraction(), o.as_fraction()
        if k is not None and q is not None:
            return table.const(k * q)
        if k is not None or q is not None:
            return _scaled(o, k) if q is None else _scaled(self, q)
        if not _uses_radicals(table, self.num, self.den, o.num, o.den):
            return FieldElem(table, *_henrici_product(self.num, self.den, o.num, o.den),
                             _canonical=True)
        return FieldElem(table, _pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (PhasePoly, PhaseRational)):
            return NotImplemented
        o = as_elem(self.table, other)
        if o.is_zero():
            raise DivisionByZeroError("division by zero field element")
        q = o.as_fraction()
        if q is not None:
            return _scaled(self, 1 / q)
        table = self.table
        if not _uses_radicals(table, self.num, self.den, o.num, o.den):
            # o inverted: den/num, scaled so that its new denominator is monic
            _, lc = _plead(o.num)
            inv_num, inv_den = (o.den, o.num) if lc == 1 else \
                (_pscale(o.den, 1 / lc), _pscale(o.num, 1 / lc))
            return FieldElem(table, *_henrici_product(self.num, self.den, inv_num, inv_den),
                             _canonical=True)
        return FieldElem(table, _pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        return as_elem(self.table, other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.table.one() / self ** (-k)
        out = self.table.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.table.const(other)
        if not isinstance(other, FieldElem) or other.table is not self.table:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()), frozenset(self.den.items())))
        return self._hash

    # -- calculus ------------------------------------------------------------

    def d(self) -> "FieldElem":
        """Derivation of the field: quotient rule over the symbol derivatives."""
        dn = _poly_d(self.table, self.num)
        if _is_const(self.den):
            return dn  # a denominator 1: the quotient rule leaves dn
        dd = _poly_d(self.table, self.den)
        den_elem = FieldElem(self.table, self.den, _pconst(1))
        num_elem = FieldElem(self.table, self.num, _pconst(1))
        return (dn * den_elem - num_elem * dd) / (den_elem * den_elem)

    def subs(self, name: str, value) -> "FieldElem":
        """Exact substitution of a symbol by a field element."""
        i = self.table.index(name)
        v = as_elem(self.table, value)
        num = _elem_subs_poly(self.table, self.num, i, v)
        den = _elem_subs_poly(self.table, self.den, i, v)
        if den.is_zero():
            raise DivisionByZeroError("substitution made the denominator vanish")
        return num / den

    def t_coefficients(self) -> Optional[dict]:
        """The value as a polynomial in t alone, {degree: coefficient}, or
        None when it has a denominator in t or uses any other symbol."""
        if set(self.den) != {()} or any(len(e) > 1 for e in self.num):
            return None  # a constant denominator is 1, being monic
        return {(e[0] if e else 0): c for e, c in self.num.items()}

    def complex_t_coefficients(self, values: dict) -> tuple:
        """(num, den): dense ascending complex coefficients in t of the
        numerator and the denominator, with symbol i set to values[i].

        Each coefficient sums its terms from 0j in canonical order.  A
        symbol after t without a value, such as a transcendental
        parameter, raises NonNumericError.
        """
        def dense(p: dict) -> list:
            out = [0j] * (max((e[0] for e in p if e), default=0) + 1)
            for e, c in p.items():
                z = complex(c)
                for i, k in enumerate(e[1:], 1):
                    if not k:
                        continue
                    if i not in values:
                        raise NonNumericError(
                            f"parameter {self.table.names[i]!r} has no numeric value; "
                            "numerical integration needs rational or radical values")
                    z *= values[i] ** k
                out[e[0] if e else 0] += z
            return out

        return dense(self.num), dense(self.den)

    def eval_complex(self, assign: dict) -> complex:
        """Numeric evaluation; assign maps symbol names to complex values."""
        idx = {self.table.index(k): complex(v) for k, v in assign.items()}
        for i in self.symbols_used(False):
            if i not in idx:
                raise ValueError(f"no value for symbol {self.table.names[i]!r}")

        def ev(p: dict) -> complex:
            s = 0j
            for e, c in p.items():
                term = complex(c)
                for i, k in enumerate(e):
                    if k:
                        term *= idx[i] ** k
                s += term
            return s

        dv = ev(self.den)
        if dv == 0:
            raise ZeroDivisionError("denominator vanished at the evaluation point")
        return ev(self.num) / dv

    def __repr__(self):
        return f"FieldElem({self})"

    def __str__(self):
        return _elem_str(self.table, self.num, self.den)


def _scaled(z: FieldElem, k: Fraction) -> FieldElem:
    """k * z, canonical as built: a nonzero k keeps num and den coprime, the
    denominator monic and free of radicals, and the terms in their order."""
    if not k:
        return z.table.zero()
    return FieldElem(z.table, _pscale(z.num, k), z.den, _canonical=True)


def common_denominator(table: SymbolTable, elems) -> FieldElem:
    """The monic lcm of the denominators of elems (1 for none)."""
    common = _pconst(1)
    for z in elems:
        common = _pdiv_exact(_pmul(common, z.den), _pgcd(common, z.den))
    return FieldElem(table, common, _pconst(1))


def _poly_d(table: SymbolTable, p: dict) -> FieldElem:
    # derivation applied to a plain polynomial, as a field element
    out = table.zero()
    for i in sorted(_vars_used(p)):
        dsym = table.derivative_of(i)
        if dsym.is_zero():
            continue
        part = FieldElem(table, _pderiv_formal(p, i), _pconst(1))
        out = out + part * dsym
    return out


def _elem_subs_poly(table: SymbolTable, p: dict, i: int, v: FieldElem) -> FieldElem:
    out = table.zero()
    for e, c in p.items():
        k = _exp_get(e, i)
        ee = list(_pad(e, max(len(e), i + 1)))
        ee[i] = 0
        term = FieldElem(table, {_strip(tuple(ee)): c}, _pconst(1))
        out = out + term * v ** k
    return out


# -- canonicalization -------------------------------------------------------


def _uses_radicals(table: SymbolTable, *polys) -> bool:
    """Whether a radical symbol of the table occurs in any of polys."""
    rads = table.radical_indices()
    return bool(rads) and any(_exp_get(e, i) for p in polys for e in p for i in rads)


def _canonicalize(table: SymbolTable, num: dict, den: dict):
    if not den:
        raise DivisionByZeroError("zero denominator")
    if _uses_radicals(table, num, den):
        num, den = _clear_radicals(table, num, den)
        if not den:
            raise DivisionByZeroError("denominator vanishes through the radical relations")
    if not num:
        return {}, _pconst(1)
    if _is_const(den):
        # gcd(num, c) = 1: dividing by c is the whole reduction
        c = den[()]
        if c == 1:
            return _grlex_sorted(num), _pconst(1)
        return _grlex_sorted({e: cc / c for e, cc in num.items()}), _pconst(1)
    g = _pgcd(num, den)
    num = _pdiv_exact(num, g)
    den = _pdiv_exact(den, g)
    _, lc = _plead(den)
    if lc != 1:
        num = _pscale(num, 1 / lc)
        den = _pscale(den, 1 / lc)
    return num, den


def _fold_radical(p: dict, i: int, r: "FieldElem", m: int) -> dict:
    """p * d^m with each s^(2k+e) rewritten as n^k * d^(m-k) * s^e.

    s is symbol i, with s^2 = r = n/d, and p has degree at most 2m + 1 in s.
    """
    parts: dict = {}
    for e, c in p.items():
        k, rem = divmod(_exp_get(e, i), 2)
        if k:
            e = _strip(e[:i] + (rem,) + e[i + 1:])
        parts.setdefault(k, {})[e] = c
    num_pows, den_pows = [_pconst(1)], [_pconst(1)]
    for _ in range(m):
        num_pows.append(_pmul(num_pows[-1], r.num))
        den_pows.append(_pmul(den_pows[-1], r.den))
    out: dict = {}
    for k, part in parts.items():
        out = _padd(out, _pmul(part, _pmul(num_pows[k], den_pows[m - k])))
    return out


def _clear_radicals(table: SymbolTable, num: dict, den: dict):
    """num/den with radical exponents <= 1 and no radical in the denominator.

    One sweep over the radicals, last declared first.  A radicand uses only
    symbols declared before its radical, so neither rewriting s^2 nor
    multiplying by the conjugate of a denominator a + b*s brings back a
    radical the sweep has passed.
    """
    relations = table._relations
    for i in reversed(table.radical_indices()):
        r = relations[i]
        m = max(_deg_in(num, i), _deg_in(den, i)) // 2
        if m:
            num, den = _fold_radical(num, i, r, m), _fold_radical(den, i, r, m)
        b = _coeff_in(den, i, 1)
        if b:
            conj = _psub(_coeff_in(den, i, 0), _pmul(b, _pvar(i)))
            num = _fold_radical(_pmul(num, conj), i, r, 1)
            den = _fold_radical(_pmul(den, conj), i, r, 1)
            if not den:
                raise DegenerateRadicalError(
                    "conjugate norm vanished; the radicand is a square in the field")
    return num, den


def _cancel_common(a: dict, b: dict):
    """a/g and b/g for the monic g = gcd(a, b); no gcd when one is constant."""
    if _is_const(a) or _is_const(b):
        return a, b
    g = _pgcd(a, b)
    if _is_const(g):
        return a, b
    return _pdiv_exact(a, g), _pdiv_exact(b, g)


def _henrici_product(n1: dict, d1: dict, n2: dict, d2: dict):
    """Canonical (num, den) of (n1/d1)*(n2/d2) for canonical, radical-free factors.

    Each factor is coprime with a monic denominator, so once g1 = gcd(n1, d2)
    and g2 = gcd(n2, d1) are cancelled the two cross products are coprime
    too, and their denominator stays monic (Henrici 1956).
    """
    if not n1 or not n2:
        return {}, _pconst(1)
    n1, d2 = _cancel_common(n1, d2)
    n2, d1 = _cancel_common(n2, d1)
    return _grlex_sorted(_pmul(n1, n2)), _grlex_sorted(_pmul(d1, d2))


# ---------------------------------------------------------------------------
# phase polynomials: Q(t, params)[x, y, u1, u2]


def as_phase(table: SymbolTable, v) -> "PhasePoly":
    if isinstance(v, PhasePoly):
        if v.table is not table:
            raise ValueError("mixing symbol tables")
        return v
    if isinstance(v, (int, Fraction, FieldElem)):
        return PhasePoly.const(table, as_elem(table, v))
    raise TypeError(f"cannot coerce {type(v).__name__} to PhasePoly")


def as_rational(table: SymbolTable, v) -> "PhaseRational":
    if isinstance(v, PhaseRational):
        if v.table is not table:
            raise ValueError("mixing symbol tables")
        return v
    return PhaseRational.from_poly(as_phase(table, v))


class PhasePoly:
    """Sparse polynomial in x, y, u1, u2 with FieldElem coefficients.

    Keys are 4-tuples of exponents in the order (x, y, u1, u2); no zero
    coefficients are stored.  Sums, products, scaling, exact division,
    partials and the term order run on the module's dict kernel.
    """

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: SymbolTable, terms: dict, _clean: bool = False):
        self.table = table
        if _clean:
            self.terms = terms
        else:
            self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, table: SymbolTable, c) -> "PhasePoly":
        c = as_elem(table, c)
        return cls(table, {} if c.is_zero() else {(0, 0, 0, 0): c}, _clean=True)

    @classmethod
    def var(cls, table: SymbolTable, name: str) -> "PhasePoly":
        i = PHASE_VARS.index(name)
        e = tuple(1 if j == i else 0 for j in range(4))
        return cls(table, {e: table.one()}, _clean=True)

    @classmethod
    def zero(cls, table: SymbolTable) -> "PhasePoly":
        return cls(table, {}, _clean=True)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return set(self.terms) <= {(0, 0, 0, 0)}

    def constant_value(self) -> FieldElem:
        return self.terms.get((0, 0, 0, 0), self.table.zero())

    def has_uvars(self) -> bool:
        return any(e[2] or e[3] for e in self.terms)

    def deg_xy(self) -> int:
        return max((e[0] + e[1] for e in self.terms), default=0)

    def deg_t(self) -> int:
        """Largest t-degree across coefficient numerators.

        Meaningful for coefficients polynomial in t; denominators in t
        count as not-polynomial and raise.
        """
        if any(_deg_in(c.den, 0) for c in self.terms.values()):
            raise NotDivisibleError("coefficient has a denominator in t")
        return max((_deg_in(c.num, 0) for c in self.terms.values()), default=0)

    def coefficient(self, e: tuple) -> FieldElem:
        return self.terms.get(tuple(e), self.table.zero())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PhaseRational):
            return NotImplemented
        return PhasePoly(self.table, _padd(self.terms, as_phase(self.table, other).terms),
                         _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return PhasePoly(self.table, _pneg(self.terms), _clean=True)

    def __sub__(self, other):
        if isinstance(other, PhaseRational):
            return NotImplemented
        return self + (-as_phase(self.table, other))

    def __rsub__(self, other):
        return as_phase(self.table, other) - self

    def __mul__(self, other):
        if isinstance(other, PhaseRational):
            return NotImplemented
        # _emul of two 4-tuples is a 4-tuple, and no 4-tuple key is the
        # constant () that _pmul's shortcut looks for
        return PhasePoly(self.table, _pmul(self.terms, as_phase(self.table, other).terms),
                         _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = PhasePoly.const(self.table, 1)
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, other):
        # exact division only; scalars always divide
        if isinstance(other, (int, Fraction, FieldElem)):
            c = as_elem(self.table, other)
            if c.is_zero():
                raise DivisionByZeroError("division by zero")
            return self.scale(self.table.one() / c)
        o = as_phase(self.table, other)
        q = exact_divide(self, o)
        if q is None:
            raise NotDivisibleError("inexact phase-polynomial division")
        return q

    def scale(self, c: FieldElem) -> "PhasePoly":
        return PhasePoly(self.table, _pscale(self.terms, as_elem(self.table, c)), _clean=True)

    def __eq__(self, other):
        try:
            o = as_phase(self.table, other)
        except (TypeError, ValueError):
            # another type or another table: False, as FieldElem answers
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- calculus ------------------------------------------------------------

    def partial(self, name: str) -> "PhasePoly":
        return _phase_poly(self.table, _pderiv_formal(self.terms, PHASE_VARS.index(name)))

    def coeff_d(self) -> "PhasePoly":
        """P^d: the derivation applied to every coefficient."""
        return PhasePoly(self.table, {e: c.d() for e, c in self.terms.items()})

    def subs_phase(self, assign: dict) -> "PhaseRational":
        """Substitute PhaseRational values for phase variables."""
        out = PhaseRational.const(self.table, 0)
        for e, c in self.terms.items():
            term = PhaseRational(self.table, PhasePoly.const(self.table, c),
                                 PhasePoly.const(self.table, 1))
            for i, name in enumerate(PHASE_VARS):
                if e[i]:
                    v = assign.get(name)
                    if v is None:
                        v = PhaseRational.from_poly(PhasePoly.var(self.table, name))
                    term = term * v ** e[i]
            out = out + term
        return out

    def subs_t(self, value) -> "PhasePoly":
        return PhasePoly(self.table, {e: c.subs("t", value) for e, c in self.terms.items()})

    def eval_complex(self, assign: dict, x: complex, y: complex,
                     u1: complex = 0j, u2: complex = 0j) -> complex:
        s = 0j
        for e, c in self.terms.items():
            s += c.eval_complex(assign) * x ** e[0] * y ** e[1] * u1 ** e[2] * u2 ** e[3]
        return s

    # -- ordering / printing ---------------------------------------------------

    def sorted_terms(self) -> list:
        return list(_grlex_sorted(self.terms).items())

    def leading(self):
        return _plead(self.terms)

    def monic(self) -> "PhasePoly":
        if not self.terms:
            return self
        _, c = self.leading()
        return self.scale(self.table.one() / c)

    def __repr__(self):
        return f"PhasePoly({self})"

    def __str__(self):
        return _join_terms(_phase_term(e, c) for e, c in self.sorted_terms())


def exact_divide(p: PhasePoly, d: PhasePoly) -> Optional[PhasePoly]:
    """Quotient q with p = q*d, or None when the division is not exact.

    Single-divisor reduction under grlex; since coefficients live in a
    field, the remainder vanishes iff d divides p.
    """
    q = _pdiv_exact(p.terms, d.terms)
    return None if q is None else _phase_poly(p.table, q)


def _phase_poly(table: SymbolTable, terms: dict) -> PhasePoly:
    # a kernel result: its keys stripped, so padded back to 4-tuples; no zero
    # coefficient, since c*k (k > 0) and cr/cb of nonzero c, cr are nonzero
    return PhasePoly(table, {_pad(e, 4): c for e, c in terms.items()}, _clean=True)


class PhaseRational:
    """Quotient of two phase polynomials; equality via cross-multiplication.

    Used for rational right-hand sides (families III-VI) and for the
    substitution engine.  Kept lightly reduced: common polynomial factors
    are cancelled when cheap, exactness never depends on it.
    """

    __slots__ = ("table", "num", "den")

    def __init__(self, table: SymbolTable, num: PhasePoly, den: PhasePoly, reduce: bool = True):
        if den.is_zero():
            raise DivisionByZeroError("zero denominator in phase rational")
        self.table = table
        if reduce and not num.is_zero():
            num, den = _phase_cancel(num, den)
        if num.is_zero():
            den = PhasePoly.const(table, 1)
        self.num, self.den = num, den

    @classmethod
    def from_poly(cls, p: PhasePoly) -> "PhaseRational":
        return cls(p.table, p, PhasePoly.const(p.table, 1), reduce=False)

    @classmethod
    def const(cls, table: SymbolTable, c) -> "PhaseRational":
        return cls.from_poly(PhasePoly.const(table, c))

    @classmethod
    def var(cls, table: SymbolTable, name: str) -> "PhaseRational":
        return cls.from_poly(PhasePoly.var(table, name))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> Optional[PhasePoly]:
        if self.den.is_constant():
            return self.num.scale(self.table.one() / self.den.constant_value())
        q = exact_divide(self.num, self.den)
        return q

    def _coerce(self, other) -> "PhaseRational":
        return as_rational(self.table, other)

    def __add__(self, other):
        o = self._coerce(other)
        return PhaseRational(self.table, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return PhaseRational(self.table, -self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return PhaseRational(self.table, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise DivisionByZeroError("division by zero phase rational")
        return PhaseRational(self.table, self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return PhaseRational.const(self.table, 1) / self ** (-k)
        # square and multiply from the top bit of k: for k up to 3 these are
        # the products of repeated multiplication, in the same order
        out = PhaseRational.const(self.table, 1)
        for bit in bin(k)[2:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def partial(self, name: str) -> "PhaseRational":
        return PhaseRational(self.table,
                             self.num.partial(name) * self.den - self.num * self.den.partial(name),
                             self.den * self.den)

    def coeff_d(self) -> "PhaseRational":
        return PhaseRational(self.table,
                             self.num.coeff_d() * self.den - self.num * self.den.coeff_d(),
                             self.den * self.den)

    def subs_phase(self, assign: dict) -> "PhaseRational":
        dv = self.den.subs_phase(assign)
        if dv.is_zero():
            raise DivisionByZeroError("substitution produced a zero denominator")
        return self.num.subs_phase(assign) / dv

    def subs_t(self, value) -> "PhaseRational":
        return PhaseRational(self.table, self.num.subs_t(value), self.den.subs_t(value))

    def eval_complex(self, assign: dict, x: complex, y: complex) -> complex:
        dv = self.den.eval_complex(assign, x, y)
        if dv == 0:
            raise ZeroDivisionError("phase rational denominator vanished")
        return self.num.eval_complex(assign, x, y) / dv

    def __repr__(self):
        return f"PhaseRational({self})"

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _phase_cancel(num: PhasePoly, den: PhasePoly):
    """Cancel common factors of num/den, seen as polynomials over Q.

    Coefficient denominators are cleared first; radicals are treated as
    free variables, which can only miss cancellations, never create wrong
    ones.  The cancellation is cosmetic, so its gcd is metered: past
    _CANCEL_CAP units of work the quotient is kept as built, with a DEBUG
    record on the painlevekit logger.  Sides that their mod-p images prove
    coprime (see _zgcd), or a side of one term (see _pgcd), cost no units.
    """
    table = num.table
    n = len(table)
    if den.is_constant():
        return num, den

    def flatten(p: PhasePoly):
        # joint dict over (4 phase exps) + symbol exps, Fraction coefficients
        out = {}
        mult = _pconst(1)
        for c in p.terms.values():
            mult = _pmul(mult, c.den)
        for e, c in p.terms.items():
            # distinct (e, se) make distinct keys, and _pmul stores no zeros
            for se, f in _pmul(c.num, _pdiv_exact(mult, c.den)).items():
                out[_strip(e + _pad(se, n))] = f
        return out, mult

    fn, mn = flatten(num)
    fd, md = flatten(den)
    try:
        g = _pgcd(fn, fd, [_CANCEL_CAP])
    except _CancelBudgetExceeded:
        # as in _accel: no DEBUG record is wanted before logging is imported
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger(__name__).debug(
                "gcd budget of %d units ran out; quotient of %d over %d terms "
                "kept as built", _CANCEL_CAP, len(fn), len(fd))
        return num, den
    if set(g) <= {()}:
        return num, den

    def unflatten(p: dict, scale_den: dict) -> PhasePoly:
        terms: dict = {}
        for key, f in p.items():
            full = _pad(key, n + 4)
            pe = full[:4]
            se = _strip(full[4:])
            c = FieldElem(table, {se: f}, scale_den)
            cur = terms.get(pe)
            terms[pe] = c if cur is None else cur + c
        return PhasePoly(table, terms)

    qn = _pdiv_exact(fn, g)
    qd = _pdiv_exact(fd, g)
    return unflatten(qn, mn), unflatten(qd, md)


# ---------------------------------------------------------------------------
# membership tests


class Membership:
    IN = "In"
    NOT_IN = "NotIn"
    GENERIC_NOT_IN = "GenericNotIn"


SET_Z = "Z"
SET_2Z = "2Z"
SET_HALF_PLUS_Z = "HalfPlusZ"


def membership_test(v: FieldElem, which: str) -> str:
    """Decide membership of v in Z, 2Z, or 1/2+Z.

    Rational constants are decided arithmetically.  Dependence on t or on
    a transcendental parameter (also through a radicand) yields
    GenericNotIn: for parameters in general position the value misses
    every arithmetic progression.  Dependence on radicals over purely
    rational radicands yields NotIn: declaration-time independence checks
    make such values irrational.
    """
    if which not in (SET_Z, SET_2Z, SET_HALF_PLUS_Z):
        raise ValueError(f"unknown set {which!r}")
    q = v.as_fraction()
    if q is not None:
        if which == SET_Z:
            return Membership.IN if q.denominator == 1 else Membership.NOT_IN
        if which == SET_2Z:
            return Membership.IN if q.denominator == 1 and q.numerator % 2 == 0 \
                else Membership.NOT_IN
        return Membership.IN if (q - Fraction(1, 2)).denominator == 1 else Membership.NOT_IN
    table = v.table
    used = v.symbols_used(transitive=True)
    for i in used:
        if table._kinds[i] in (KIND_IVAR, KIND_PARAM):
            return Membership.GENERIC_NOT_IN
    # only radicals with (transitively) rational radicands remain
    return Membership.NOT_IN


# ---------------------------------------------------------------------------
# printing


def _mono_str(e: tuple, names) -> str:
    parts = []
    for i, k in enumerate(e):
        if k == 1:
            parts.append(names[i])
        elif k > 1:
            parts.append(f"{names[i]}^{k}")
    return "*".join(parts)


def _rat_term(c: Fraction, mono: str) -> tuple:
    # (negative, text of |c|*mono) for a rational c != 0
    mag = abs(c)
    if not mono:
        return c < 0, str(mag)
    return c < 0, mono if mag == 1 else f"{mag}*{mono}"


def _join_terms(terms) -> str:
    # signed (negative, text) terms, the first one carrying its own sign
    out = []
    for neg, body in terms:
        if out:
            out.append(" - " if neg else " + ")
        elif neg:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


def _poly_str(table: SymbolTable, p: dict) -> str:
    names = table.names
    return _join_terms(_rat_term(c, _mono_str(e, names)) for e, c in _grlex_sorted(p).items())


def _elem_str(table: SymbolTable, num: dict, den: dict) -> str:
    ns = _poly_str(table, num)
    if _is_const(den):
        return ns  # a constant denominator is 1, being monic
    ds = _poly_str(table, den)
    if len(num) > 1 or (num and next(iter(num.values())) < 0):
        ns = f"({ns})"
    if len(den) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _phase_term(e: tuple, c: FieldElem) -> tuple:
    mono = _mono_str(e, PHASE_VARS)
    q = c.as_fraction()
    if q is not None:
        return _rat_term(q, mono)
    return False, f"({c})*{mono}" if mono else f"({c})"


# ---------------------------------------------------------------------------
# parser

# Largest exponent the parser accepts after ^, and largest degree in any
# one symbol that a power may reach.  The catalog's forms use at most 4;
# the cap keeps a typo like x^99999999 or ((x+1)^100)^100 from looping
# for hours.
MAX_EXPONENT = 100


def _max_degree(v: PhaseRational) -> int:
    """Largest exponent of any one symbol, phase variable or coefficient
    symbol, in the numerator or denominator of v."""
    deg = 0
    for p in (v.num, v.den):
        for e, c in p.terms.items():
            deg = max(deg, *e, *(k for q in (c.num, c.den) for ce in q for k in ce))
    return deg


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    """expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
    factor := '-'* atom ('^' int)? ; atom := int | name | '(' expr ')'"""

    def __init__(self, text: str, table: SymbolTable):
        self.toks = _tokenize(text)
        self.k = 0
        self.table = table

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}", t.pos)
        return self.take()

    def parse(self) -> PhaseRational:
        v = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.pos)
        return v

    def expr(self):
        v = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            w = self.term()
            v = v + w if op.kind == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            w = self.factor()
            if op.kind == "*":
                v = v * w
            else:
                if w.is_zero():
                    raise ParseError("division by zero expression", op.pos)
                v = v / w
        return v

    def factor(self):
        neg = False
        while self.peek().kind == "-":
            self.take()
            neg = not neg
        v = self.atom()
        if self.peek().kind == "^":
            caret = self.take()
            t = self.peek()
            if t.kind != "int":
                raise ParseError("exponent must be a nonnegative integer", caret.pos + 1)
            self.take()
            if len(t.text.lstrip("0")) > len(str(MAX_EXPONENT)) or int(t.text) > MAX_EXPONENT:
                raise ParseError(f"exponent {t.text} is above the cap {MAX_EXPONENT}", t.pos)
            k = int(t.text)
            deg = _max_degree(v) * k
            if deg > MAX_EXPONENT:
                raise ParseError(f"power of degree {deg} is above the cap {MAX_EXPONENT}",
                                 t.pos)
            v = v ** k
        return -v if neg else v

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.take()
            try:
                return PhaseRational.const(self.table, int(t.text))
            except ValueError:  # past Python's limit on digits in int()
                raise ParseError(f"integer literal of {len(t.text)} digits is too long",
                                 t.pos) from None
        if t.kind == "name":
            self.take()
            if t.text in PHASE_VARS:
                return PhaseRational.var(self.table, t.text)
            if t.text not in self.table._index:
                raise UnknownSymbolError(f"unknown symbol {t.text!r}", t.pos)
            return PhaseRational.const(self.table, self.table.sym(t.text))
        if t.kind == "(":
            self.take()
            v = self.expr()
            self.expect(")")
            return v
        raise ParseError(f"expected a value, found {t.text!r}" if t.text else "unexpected end of input",
                         t.pos)


def parse(text: str, table: SymbolTable, allow_rational: bool = False):
    """Parse an expression to FieldElem or PhasePoly in canonical form.

    With allow_rational=True a quotient with phase variables in the
    denominator is returned as PhaseRational instead of raising.
    """
    v = _Parser(text, table).parse()
    if v.den.is_constant():
        den_c = v.den.constant_value()
        if v.num.is_constant():
            return v.num.constant_value() / den_c
        return v.num.scale(table.one() / den_c)
    q = v.as_poly()
    if q is not None:
        if q.is_constant():
            return q.constant_value()
        return q
    if allow_rational:
        return v
    raise NotDivisibleError("expression is not polynomial in the phase variables")


def parse_elem(text: str, table: SymbolTable) -> FieldElem:
    v = parse(text, table)
    if isinstance(v, PhasePoly):
        raise ParseError("expected a coefficient-field expression without phase variables", 0)
    return v


def parse_poly(text: str, table: SymbolTable) -> PhasePoly:
    v = parse(text, table)
    if isinstance(v, FieldElem):
        return PhasePoly.const(table, v)
    return v
