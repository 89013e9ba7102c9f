"""The six Painleve families: equations, systems, derivations, classifiers.

Every display is entered verbatim from the classical sources (Okamoto's
Hamiltonian forms, the Umemura-Watanabe and Watanabe invariant-curve
classifications).  Known misprints are kept as printed and flagged in
instance notes, with corrected variants available behind explicit flags;
nothing is silently repaired.

Family tags: P1..P6 are the second-order equations; S2, S3prime, S4, S5,
S6 are the polynomial Hamiltonian systems in natural (v or a)
coordinates.  The classifier operates on natural coordinates only, and
in_natural_coordinates alone decides which parameters those are;
reduce_parameters converts (alpha, beta, gamma, delta) input, tracking
the square-root branches the conversion introduces.  Its square roots
come from SymbolTable.root_of, so a radical already on the table
(declared by the caller or by an earlier reduction) is reused, and only
a root not yet in the field becomes a new radical symbol.

Each fact about a family is written once: _PARAMS lists its parameter
names in order; _FORMS its builders of the second-order form, the system
and the Hamiltonian, which instantiate calls with the parameters in that
order; _CLASSIFIER its classifier and the CITATIONS entry of the
exceptional set; and _conditions that set's arithmetic conditions.
"""

import functools
import itertools
from fractions import Fraction

from . import transforms
from .dvariety import DVectorField
from .errors import BranchDisagreementError, ConstraintError, NotReducibleError
from .field import (SET_2Z, SET_HALF_PLUS_Z, SET_Z, FieldElem, Membership,
                    PhasePoly, PhaseRational, SymbolTable, as_elem,
                    membership_test)

P1 = "P1"
P2 = "P2"
P3 = "P3"
P3PRIME = "P3prime"
P4 = "P4"
P5 = "P5"
P6 = "P6"
S2 = "S2"
S3PRIME = "S3prime"
S4 = "S4"
S5 = "S5"
S6 = "S6"

FAMILIES = (P1, P2, P3, P3PRIME, P4, P5, P6, S2, S3PRIME, S4, S5, S6)

STRONGLY_MINIMAL = "StronglyMinimal"
NOT_STRONGLY_MINIMAL = "NotStronglyMinimal"
UNKNOWN = "Unknown"

# required parameter names; P3prime also accepts the v form (see _param_shape)
_PARAMS = {
    P1: (),
    P2: ("alpha",),
    S2: ("alpha",),
    P3: ("alpha", "beta", "gamma", "delta"),
    P3PRIME: ("alpha", "beta", "gamma", "delta"),
    S3PRIME: ("v1", "v2"),
    P4: ("alpha", "beta"),
    S4: ("v1", "v2", "v3"),
    P5: ("alpha", "beta", "gamma", "delta"),
    S5: ("v1", "v2", "v3", "v4"),
    P6: ("alpha", "beta", "gamma", "delta"),
    S6: ("a1", "a2", "a3", "a4"),
}

CITATIONS = {
    P1: "Kolchin; Nishioka: irreducibility of the first Painleve equation",
    P2: "Umemura, Watanabe: classical solutions of the second Painleve equation"
        " (exceptional set alpha in 1/2+Z)",
    P3PRIME: "Umemura, Watanabe: classical solutions of the third Painleve equation,"
             " primed form (exceptional set v1 +- v2 in 2Z)",
    P4: "Umemura, Watanabe: classical solutions of the fourth Painleve equation"
        " (exceptional set: a pairwise difference of v in Z)",
    P5: "Watanabe: classical solutions of the fifth Painleve equation"
        " (exceptional set: a pairwise difference of v in Z)",
    P6: "Watanabe: birational canonical transformations of the sixth Painleve"
        " equation (exceptional set +-ai +-aj in Z)",
    "hamiltonian": "Okamoto: polynomial Hamiltonian structure of the Painleve equations",
}

_NOTE_P6_BRACKET = ("second-order form keeps the printed 1/(y+1) term in the first"
                    " bracket; pass standard_form=True for the conventional 1/(y-1)")
_NOTE_P1_HAMILTONIAN = ("stored Hamiltonian gives x' = 6y^2 - t under the minus"
                        " convention, differing from the system by 2t; pass"
                        " corrected_hamiltonian=True for the -ty variant")
_NOTE_S5_TYPO = ("some printed forms of the matching vector field show 2x^2*x in"
                 " the first component; 2y^2*x is used")
_NOTE_S5_EXCEPTIONAL = ("the printed exceptional set lists v1 - v3 twice and omits"
                        " v2 - v3; all six pairwise differences are checked")
_NOTE_MU_CORRECTED = ("the printed scale relation mu^2 = 1/(gamma*delta) does not"
                      " reach (gamma, delta) = (4, -4); the reduction uses"
                      " mu^2 = -16/(gamma*delta)")


class PainleveInstance:
    """One family member: parameter assignment plus every available form.

    second_order is the rational right side R(y, y', t) with the phase
    variable x standing for y'; system is the (y'-component,
    x'-component) pair; derivation is the matching vector field with
    e = 1.  hamiltonian_convention records which sign convention the
    stored Hamiltonian satisfies against the stored system ("minus",
    "plus", or None when neither holds).  The numeric form of the system
    and the right-hand-side function generated from it, both made by the
    first numint.integrate on the instance, are kept for the next ones.
    """

    __slots__ = ("family", "table", "params", "second_order", "system",
                 "derivation", "hamiltonian", "hamiltonian_convention", "notes",
                 "_compiled", "_rhs")

    def __init__(self, family, table, params, second_order, system,
                 derivation, hamiltonian, hamiltonian_convention, notes):
        self.family = family
        self.table = table
        self.params = dict(params)
        self.second_order = second_order
        self.system = system
        self.derivation = derivation
        self.hamiltonian = hamiltonian
        self.hamiltonian_convention = hamiltonian_convention
        self.notes = tuple(notes)
        # numint.compile_system's tuples and the function
        # _accel.compile_rhs makes of them; None until integrated
        self._compiled = None
        self._rhs = None

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"PainleveInstance({self.family}, {ps})"


class ClassificationResult:
    """Strong-minimality verdict with the arithmetic condition that fired."""

    __slots__ = ("verdict", "witness", "source", "conditions", "notes")

    def __init__(self, verdict, witness, source, conditions, notes=()):
        self.verdict = verdict
        self.witness = witness
        self.source = source
        self.conditions = tuple(conditions)
        self.notes = tuple(notes)

    def __repr__(self):
        w = f", witness={self.witness!r}" if self.witness else ""
        return f"ClassificationResult({self.verdict}{w})"


class ReductionResult:
    """reduce_parameters output; iterates as (instance, params, relations).

    branches holds the parameter assignment of every square-root sign
    choice (the first entry is the principal branch the instance uses).
    relations are (symbol, radicand) pairs, meaning symbol^2 = radicand.
    """

    __slots__ = ("instance", "params", "relations", "branches", "notes")

    def __init__(self, instance, params, relations, branches, notes=()):
        self.instance = instance
        self.params = params
        self.relations = tuple(relations)
        self.branches = tuple(branches)
        self.notes = tuple(notes)

    def __iter__(self):
        return iter((self.instance, self.params, self.relations))


def _param_shape(family, params):
    """Validate parameter names; returns the accepted name tuple."""
    given = set(params)
    want = _PARAMS[family]
    if family == P3PRIME and given == {"v1", "v2"}:
        return ("v1", "v2")
    if given == set(want):
        return want
    missing = sorted(set(want) - given)
    extra = sorted(given - set(want))
    bits = []
    if missing:
        bits.append("missing " + ", ".join(missing))
    if extra:
        bits.append("unexpected " + ", ".join(extra))
    alt = " (or v1, v2)" if family == P3PRIME else ""
    raise ConstraintError(f"{family} takes parameters {', '.join(want) or 'none'}{alt}: "
                          + "; ".join(bits))


def parameter_names(family, given=None) -> tuple:
    """Accepted parameter names; with given names, validate them too."""
    if family not in FAMILIES:
        raise ConstraintError(f"unknown family {family!r}")
    if given is None:
        return _PARAMS[family]
    return _param_shape(family, dict.fromkeys(given))


def _coerce_params(family, params, table):
    shape = _param_shape(family, params)
    tables = {v.table for v in params.values() if isinstance(v, FieldElem)}
    if len(tables) > 1:
        raise ValueError("parameter values mix symbol tables")
    if tables:
        owner = tables.pop()
        if table is not None and table is not owner:
            raise ValueError("parameter values belong to a different symbol table")
        table = owner
    if table is None:
        table = SymbolTable()
    out = {}
    for name in shape:
        v = as_elem(table, params[name])
        if not v.d().is_zero():
            raise ConstraintError(f"parameter {name} must be a differential constant")
        out[name] = v
    if family == S4 and sum(out.values(), table.zero()) != table.zero():
        raise ConstraintError("S4 requires v1 + v2 + v3 = 0")
    if family == S5 and sum(out.values(), table.zero()) != table.zero():
        raise ConstraintError("S5 requires v1 + v2 + v3 + v4 = 0")
    return table, out


# -- displays ----------------------------------------------------------------


def _vars(table):
    y = PhaseRational.var(table, "y")
    x = PhaseRational.var(table, "x")
    return y, x, table.t()


def _pvars(table):
    return PhasePoly.var(table, "y"), PhasePoly.var(table, "x"), table.t()


def _r_p1(table):
    y, x, t = _vars(table)
    return 6 * y * y + t


def _r_p2(table, alpha):
    y, x, t = _vars(table)
    return 2 * y ** 3 + t * y + alpha


def _r_p3(table, a, b, g, d):
    y, x, t = _vars(table)
    return x * x / y - x / t + (a * y * y + b) / t + g * y ** 3 + d / y


def _r_p3prime(table, a, b, g, d):
    y, x, t = _vars(table)
    return (x * x / y - x / t + (y * y / (4 * t * t)) * (g * y + a)
            + b / (4 * t) + d / (4 * y))


def _r_p4(table, a, b):
    y, x, t = _vars(table)
    return (x * x / (2 * y) + Fraction(3, 2) * y ** 3 + 4 * t * y * y
            + 2 * (t * t - a) * y + b / y)


def _r_p5(table, a, b, g, d):
    y, x, t = _vars(table)
    one = 1
    return ((1 / (2 * y) + 1 / (y - one)) * x * x - x / t
            + ((y - one) ** 2 / (t * t)) * (a * y + b / y)
            + g * y / t + d * y * (y + one) / (y - one))


def _r_p6(table, a, b, g, d, standard_form=False):
    # (1/2)(1/y + 1/mid + 1/(y-t)) x^2 - (1/t + 1/(t-1) + 1/(y-t)) x
    #   + [y(y-1)(y-t)/(t^2(t-1)^2)] (a + b t/y^2 + g(t-1)/(y-1)^2
    #                                   + d t(t-1)/(y-t)^2),
    # assembled over the common denominator 2 t^2 (t-1)^2 y mid (y-1)(y-t)
    # so no large quotient cancellation is ever attempted
    y, x, t = _pvars(table)
    mid = (y - 1) if standard_form else (y + 1)
    w = y - t
    ym1 = y - 1
    tsq = t * t * (t - 1) * (t - 1)
    num = (tsq * x * x * ym1 * (mid * w + y * w + y * mid)
           - 2 * t * (t - 1) * x * y * mid * ym1 * ((t - 1) * w + t * w + t * (t - 1))
           + 2 * a * y * y * mid * ym1 * ym1 * w * w
           + 2 * b * t * mid * ym1 * ym1 * w * w
           + 2 * g * (t - 1) * y * y * mid * w * w
           + 2 * d * t * (t - 1) * y * y * mid * ym1 * ym1)
    den = 2 * tsq * y * mid * ym1 * w
    return PhaseRational(table, num, den, reduce=False)


def _sys_p1(table):
    y, x, t = _pvars(table)
    return x, 6 * y * y + t


def _sys_s2(table, alpha):
    y, x, t = _pvars(table)
    return x - y * y - t / 2, 2 * x * y + alpha + Fraction(1, 2)


def _sys_s3prime(table, v1, v2):
    y, x, t = _pvars(table)
    it = 1 / t
    f = (2 * y * y * x - y * y + v1 * y + t).scale(it)
    g = (-2 * y * x * x + 2 * y * x - v1 * x + (v1 + v2) / 2).scale(it)
    return f, g


def _sys_s4(table, v1, v2, v3):
    y, x, t = _pvars(table)
    f = 2 * x * y - y * y - 2 * t * y + 2 * (v1 - v2)
    g = 2 * x * y - x * x + 2 * t * x + 2 * (v1 - v3)
    return f, g


def _sys_s5(table, v1, v2, v3, v4):
    y, x, t = _pvars(table)
    it = 1 / t
    w = v1 - v2 - v3 + v4
    f = (2 * y * y * x - 2 * y * x + t * y * y - t * y + w * y + (v2 - v1)).scale(it)
    g = (-2 * y * x * x + x * x - 2 * t * x * y + t * x - w * x + (v3 - v1) * t).scale(it)
    return f, g


def _sys_s6(table, a1, a2, a3, a4):
    y, x, t = _pvars(table)
    it = 1 / (t * (t - 1))
    c1 = a1 + a2 - 2 * a3
    c2 = 2 * a3 * table.t() - a1 - a2 + a3 + a4
    f = (2 * y * (y - 1) * (y - t) * x + c1 * y * y + c2 * y - (a3 + a4) * t).scale(it)
    g = (-3 * y * y * x * x + 2 * (1 + t) * y * x * x - t * x * x
         - 2 * c1 * y * x - c2 * x - (a3 - a2) * (a3 - a1)).scale(it)
    return f, g


def _h_p1(table, corrected=False):
    y, x, t = _pvars(table)
    sign = -1 if corrected else 1
    return x * x / 2 - 2 * y ** 3 + sign * t * y


def _h_s3prime(table, v1, v2):
    y, x, t = _pvars(table)
    h = y * y * x * x - (y * y - v1 * y - t) * x - ((v1 + v2) / 2) * y
    return h.scale(1 / table.t())


def _h_s5(table, v1, v2, v3, v4):
    # H_V with eta = 1, written through kappa0 = v2-v1, kappa1 = v3-v4,
    # theta = -2(v1+v2)
    y, x, t = _pvars(table)
    k0 = v2 - v1
    k1 = v3 - v4
    theta = -2 * (v1 + v2)
    kap = ((k0 + theta) ** 2 - k1 ** 2) / 4
    h = (y * (y - 1) ** 2 * x * x
         - (k0 * (y - 1) ** 2 + theta * y * (y - 1) + t * y) * x
         + kap * (y - 1))
    return h.scale(1 / table.t())


# each family's builders of its second-order form, first-order system and
# Hamiltonian, called with its parameters in _PARAMS order
_FORMS = {
    P1: (_r_p1, _sys_p1, _h_p1),
    P2: (_r_p2, None, None),
    S2: (None, _sys_s2, None),
    P3: (_r_p3, None, None),
    P3PRIME: (_r_p3prime, None, None),
    S3PRIME: (None, _sys_s3prime, _h_s3prime),
    P4: (_r_p4, None, None),
    S4: (None, _sys_s4, None),
    P5: (_r_p5, None, None),
    S5: (None, _sys_s5, _h_s5),
    P6: (_r_p6, None, None),
    S6: (None, _sys_s6, None),
}


def instantiate(family, params, *, table=None, corrected_hamiltonian=False,
                standard_form=False):
    """Build a PainleveInstance with every form the family admits.

    Flags: corrected_hamiltonian flips the suspect ty sign in the first
    family's Hamiltonian; standard_form swaps the printed 1/(y+1) for
    1/(y-1) in the sixth family's second-order display.  Each flag is
    only accepted where it means something.
    """
    if family not in FAMILIES:
        raise ConstraintError(f"unknown family {family!r}")
    if corrected_hamiltonian and family != P1:
        raise ConstraintError("corrected_hamiltonian only applies to P1")
    if standard_form and family != P6:
        raise ConstraintError("standard_form only applies to P6")
    table, p = _coerce_params(family, params, table)

    build_r, build_sys, build_h = _FORMS[family]
    if corrected_hamiltonian:
        build_h = functools.partial(_h_p1, corrected=True)
    if standard_form:
        build_r = functools.partial(_r_p6, standard_form=True)
    if family == P3PRIME and tuple(sorted(p)) == ("v1", "v2"):
        # the (gamma, delta) = (4, -4) member, parameters in v form
        args = [4 * p["v2"], -4 * (p["v1"] - 1), table.const(4), table.const(-4)]
    else:
        args = [p[n] for n in _PARAMS[family]]
    second_order = build_r(table, *args) if build_r else None
    system = build_sys(table, *args) if build_sys else None
    hamiltonian = build_h(table, *args) if build_h else None

    notes = []
    if family == P1 and not corrected_hamiltonian:
        notes.append(_NOTE_P1_HAMILTONIAN)
    if family == S5:
        notes.append(_NOTE_S5_TYPO)
    if family == P6 and not standard_form:
        notes.append(_NOTE_P6_BRACKET)

    derivation = None
    if system is not None:
        derivation = DVectorField(table, table.one(), system[0], system[1])

    convention = None
    if hamiltonian is not None:
        for conv in (transforms.CONVENTION_MINUS, transforms.CONVENTION_PLUS):
            if transforms.hamiltonian_check(hamiltonian, system, conv).is_match():
                convention = conv
                break
        if convention is None:
            if family == S5:
                notes.append("stored Hamiltonian is stated in the coordinates"
                             " before the y/(y-1) substitution; neither sign"
                             " convention reproduces the v-coordinate system")
            elif family != P1:
                notes.append("stored Hamiltonian matches neither sign convention")

    return PainleveInstance(family, table, p, second_order, system, derivation,
                            hamiltonian, convention, notes)


# -- classification -----------------------------------------------------------


def _conditions(family, p):
    if family in (P2, S2):
        return [("alpha ∈ 1/2+Z", p["alpha"], SET_HALF_PLUS_Z)]
    if family == S3PRIME:
        return [("v1 + v2 ∈ 2Z", p["v1"] + p["v2"], SET_2Z),
                ("v1 - v2 ∈ 2Z", p["v1"] - p["v2"], SET_2Z)]
    if family == S4:
        return [("v1 - v2 ∈ Z", p["v1"] - p["v2"], SET_Z),
                ("v2 - v3 ∈ Z", p["v2"] - p["v3"], SET_Z),
                ("v3 - v1 ∈ Z", p["v3"] - p["v1"], SET_Z)]
    if family in (S5, S6):
        out = []
        for a, b in itertools.combinations(_PARAMS[family], 2):
            out.append((f"{a} - {b} ∈ Z", p[a] - p[b], SET_Z))
            if family == S6:
                out.append((f"{a} + {b} ∈ Z", p[a] + p[b], SET_Z))
        return out
    raise ConstraintError(f"no classifier conditions for {family}")


# the classifier of each family given in its natural coordinates, and the
# CITATIONS entry of its exceptional set
_CLASSIFIER = {P1: (P1, P1), P2: (P2, P2), S2: (P2, P2),
               S3PRIME: (S3PRIME, P3PRIME), S4: (S4, P4), S5: (S5, P5),
               S6: (S6, P6)}


def _classifier_family(family, shape):
    """(classifier, citation key) of a family whose parameters have the
    given (sorted) names, or None when they are not natural coordinates.
    P3prime given by (v1, v2) is in S3prime's."""
    if family == P3PRIME and shape == ("v1", "v2"):
        family = S3PRIME
    return _CLASSIFIER.get(family)


def in_natural_coordinates(family, params) -> bool:
    """Whether classify takes params of family as they are, with no
    reduce_parameters first."""
    return _classifier_family(family, tuple(sorted(params))) is not None


def classify(family, params, *, table=None) -> ClassificationResult:
    """Strong-minimality verdict from the exceptional-set arithmetic.

    NotStronglyMinimal when a membership condition certainly holds;
    StronglyMinimal when every condition certainly or generically fails.
    Parameters must be in the family's natural coordinates.
    """
    if family not in FAMILIES:
        raise ConstraintError(f"unknown family {family!r}")
    table, p = _coerce_params(family, params, table)
    found = _classifier_family(family, tuple(sorted(p)))
    if found is None:
        raise ConstraintError(
            f"classify needs natural coordinates; apply reduce_parameters to {family} first")
    tag, cited = found
    source = CITATIONS[cited]
    notes = [_NOTE_S5_EXCEPTIONAL] if tag == S5 else []
    if tag == P1:
        return ClassificationResult(STRONGLY_MINIMAL, None, source, (), notes)
    conds = _conditions(tag, p)
    results = []
    witness = None
    for label, elem, setname in conds:
        m = membership_test(elem, setname)
        results.append((label, m))
        if m == Membership.IN and witness is None:
            witness = label
    if witness is not None:
        return ClassificationResult(NOT_STRONGLY_MINIMAL, witness, source,
                                    results, notes)
    if all(m in (Membership.NOT_IN, Membership.GENERIC_NOT_IN) for _, m in results):
        return ClassificationResult(STRONGLY_MINIMAL, None, source, results, notes)
    return ClassificationResult(UNKNOWN, None, source, results, notes)


# -- parameter reduction --------------------------------------------------------


def _fresh_name(table, name):
    candidate = name
    k = 1
    while candidate in table.names:
        k += 1
        candidate = f"{name}{k}"
    return candidate


class _RootBuilder:
    """Takes principal square roots through the table, which reuses the
    radicals it already holds, and keeps every root's sign choice for
    branch enumeration."""

    def __init__(self, table):
        self.table = table
        self.roots = []     # (name, radicand, plus root, branchable)

    @property
    def relations(self):
        """(name, radicand) of every root taken, meaning name^2 = radicand."""
        return [(name, radicand) for name, radicand, _, _ in self.roots]

    def sqrt(self, name, radicand: FieldElem) -> FieldElem:
        if radicand.is_zero():
            root = self.table.zero()
            self.roots.append((name, radicand, root, False))
            return root
        root = self.table.root_of(radicand)
        if root is None:
            root = self.table.declare_radical(_fresh_name(self.table, name), radicand)
        self.roots.append((name, radicand, root, True))
        return root

    def branches(self):
        """All sign assignments, principal (all +) first; zero roots do
        not branch."""
        axes = [i for i, r in enumerate(self.roots) if r[3]]
        out = []
        for signs in itertools.product((1, -1), repeat=len(axes)):
            assign = {}
            for i, (nm, _, plus, _b) in enumerate(self.roots):
                assign[nm] = plus
            for ax, s in zip(axes, signs):
                nm, _, plus, _b = self.roots[ax]
                assign[nm] = plus if s == 1 else -plus
            out.append(assign)
        return out


def _require_nonzero(value: FieldElem, what: str):
    if value.is_zero():
        raise NotReducibleError(f"reduction needs {what} != 0")


def _identity_reduction(family, params, table):
    inst = instantiate(family, params, table=table)
    return ReductionResult(inst, inst.params, (), (inst.params,),
                           ("parameters already in natural coordinates",))


def reduce_parameters(family, params, *, table=None) -> ReductionResult:
    """Convert (alpha, beta, ...) input to natural v/a coordinates.

    Square roots taken along the way are those SymbolTable.root_of finds
    in the field (exact rationals, or radicals already on the table), or
    else new radical symbols.  All sign branches are enumerated and
    classified; a verdict disagreement between branches raises, since the
    exceptional sets are branch-symmetric.
    The principal (all plus) branch populates the returned instance.
    """
    if family not in FAMILIES:
        raise ConstraintError(f"unknown family {family!r}")
    table, p = _coerce_params(family, params, table)
    if in_natural_coordinates(family, p):
        return _identity_reduction(family, p, table)

    notes = []
    rb = _RootBuilder(table)

    if family in (P3, P3PRIME):
        _require_nonzero(p["gamma"], "gamma")
        _require_nonzero(p["delta"], "delta")
        lam = rb.sqrt("lam", 4 / p["gamma"])
        mu = rb.sqrt("mu", -16 / (p["gamma"] * p["delta"]))
        notes.append(_NOTE_MU_CORRECTED)
        if family == P3:
            notes.append("the halving Y = t*y, T = t^2 relates this to the primed"
                         " family with unchanged parameters")

        def build(r):
            lam_v, mu_v = r["lam"], r["mu"]
            return {"v1": 1 - (mu_v / lam_v) * p["beta"] / 4,
                    "v2": lam_v * p["alpha"] / 4}

        target = S3PRIME
    elif family == P4:
        v3 = (p["alpha"] - 1) / 3
        s = rb.sqrt("s", -p["beta"] / 2)

        def build(r):
            v2 = (-v3 + r["s"]) / 2
            v1 = (-v3 - r["s"]) / 2
            return {"v1": v1, "v2": v2, "v3": v3}

        target = S4
    elif family == P5:
        _require_nonzero(p["delta"], "delta")
        eta = rb.sqrt("eta", -2 * p["delta"])
        k0 = rb.sqrt("kappa0", -2 * p["beta"])
        k1 = rb.sqrt("kappa1", 2 * p["alpha"])
        notes.append("time rescaling by eta takes delta to -1/2 and eta to 1;"
                     " gamma enters through theta = -gamma/eta - 1")

        def build(r):
            theta = -p["gamma"] / r["eta"] - 1
            return {"v1": -(2 * r["kappa0"] + theta) / 4,
                    "v2": (2 * r["kappa0"] - theta) / 4,
                    "v3": (2 * r["kappa1"] + theta) / 4,
                    "v4": -(2 * r["kappa1"] - theta) / 4}

        target = S5
    elif family == P6:
        s1 = rb.sqrt("s1", 2 * p["alpha"])
        s2 = rb.sqrt("s2", -2 * p["beta"])
        s3 = rb.sqrt("s3", 2 * p["gamma"])
        s4 = rb.sqrt("s4", 1 + 2 * p["delta"])

        def build(r):
            return {"a1": (1 - r["s4"] + r["s1"]) / 2,
                    "a2": (1 - r["s4"] - r["s1"]) / 2,
                    "a3": (r["s2"] + r["s3"]) / 2,
                    "a4": (r["s2"] - r["s3"]) / 2}

        target = S6
    else:
        raise NotReducibleError(f"no reduction path for {family}")

    branch_assignments = rb.branches()
    branch_params = []
    seen = set()
    for assign in branch_assignments:
        bp = build(assign)
        key = tuple(str(bp[k]) for k in sorted(bp))
        if key in seen:
            continue
        seen.add(key)
        branch_params.append(bp)

    verdicts = set()
    for bp in branch_params:
        verdicts.add(classify(target, bp, table=table).verdict)
    if len(verdicts) > 1:
        raise BranchDisagreementError(
            f"classification differs across square-root branches of {family}: "
            + ", ".join(sorted(verdicts)))

    principal = branch_params[0]
    inst = instantiate(target, principal, table=table)
    notes.extend(inst.notes)
    return ReductionResult(inst, principal, rb.relations, branch_params, notes)
