"""Change-of-variable certification between equations and systems.

Three map shapes cover every reduction the catalog uses:

* dependent:  x = phi(y, y', t) rewrites a second-order equation as a
  first-order system; the caller supplies the inverse y' = psi(y, x, t).
* scalar:     Y = P(y, t) with an optional time change T = sigma(t)
  relates two second-order equations.
* point:      (Y, X) = Phi(y, x, t) with optional T = sigma(t) relates
  two first-order systems.

Verification is exact.  The engine substitutes, eliminates y'' through
the source equation, and reports per-component residuals over the
coefficient field.  Inverses are checked when supplied, never solved
for.  Throughout this module the phase variable x stands for y' inside
second-order right-hand sides and dependent-map expressions.
"""

from typing import Optional

from .errors import ConstraintError, MapInverseError, RadicalDeclarationError
from .field import (KIND_PARAM, FieldElem, PhasePoly, PhaseRational, SymbolTable, as_elem,
                    as_phase)

MATCH = "Match"
MISMATCH = "Mismatch"

CONVENTION_MINUS = "minus"
CONVENTION_PLUS = "plus"


def _as_rational(table, v) -> PhaseRational:
    if isinstance(v, PhaseRational):
        if v.table is not table:
            raise ValueError("mixing symbol tables")
        return v
    return PhaseRational.from_poly(as_phase(table, v))


def _no_uvars(r: PhaseRational, what: str):
    if r.num.has_uvars() or r.den.has_uvars():
        raise ConstraintError(f"{what} must not involve tangent variables")


class TransformReport:
    """Outcome of a symbolic verification: Match iff all residuals vanish."""

    __slots__ = ("verdict", "residuals", "notes")

    def __init__(self, residuals, notes=()):
        self.residuals = tuple(residuals)
        self.notes = tuple(notes)
        self.verdict = MATCH if all(r.is_zero() for r in self.residuals) else MISMATCH

    def is_match(self) -> bool:
        return self.verdict == MATCH

    def __repr__(self):
        return f"TransformReport({self.verdict}, residuals={[str(r) for r in self.residuals]})"


class VariableMap:
    """A checked substitution between charts.

    kind is one of "dependent", "scalar", "point".  sigma is the target
    time as a rational function of the source time, T = sigma(t); the
    default is the identity.  relations records any square relations the
    map's coefficients satisfy, as (name, radicand) pairs.
    """

    __slots__ = ("table", "kind", "phi", "psi", "expr", "comps", "inverse",
                 "sigma", "time_inverse", "relations", "label")

    def __init__(self, table: SymbolTable, kind: str, *, phi=None, psi=None,
                 expr=None, comps=None, inverse=None, sigma=None,
                 time_inverse=None, relations=(), label=""):
        self.table = table
        self.kind = kind
        self.phi = phi
        self.psi = psi
        self.expr = expr
        self.comps = comps
        self.inverse = inverse
        self.sigma = sigma
        self.time_inverse = time_inverse
        self.relations = tuple(relations)
        self.label = label
        self._check()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def dependent(cls, table, phi, psi, relations=(), label=""):
        """x = phi(y, y', t) with supplied inverse y' = psi(y, x, t)."""
        return cls(table, "dependent",
                   phi=_as_rational(table, phi), psi=_as_rational(table, psi),
                   relations=relations, label=label)

    @classmethod
    def scalar(cls, table, expr, sigma=None, inverse=None, time_inverse=None,
               relations=(), label=""):
        """Y = expr(y, t), T = sigma(t); inverse is y = inverse(Y, T) if given."""
        return cls(table, "scalar",
                   expr=_as_rational(table, expr),
                   inverse=None if inverse is None else _as_rational(table, inverse),
                   sigma=None if sigma is None else as_elem(table, sigma),
                   time_inverse=None if time_inverse is None else as_elem(table, time_inverse),
                   relations=relations, label=label)

    @classmethod
    def point(cls, table, comps, sigma=None, inverse=None, time_inverse=None,
              relations=(), label=""):
        """(Y, X) = comps(y, x, t), T = sigma(t); inverse a pair if given."""
        comps = tuple(_as_rational(table, c) for c in comps)
        if len(comps) != 2:
            raise ConstraintError("point map needs exactly two components")
        if inverse is not None:
            inverse = tuple(_as_rational(table, c) for c in inverse)
            if len(inverse) != 2:
                raise ConstraintError("point map inverse needs exactly two components")
        return cls(table, "point", comps=comps, inverse=inverse,
                   sigma=None if sigma is None else as_elem(table, sigma),
                   time_inverse=None if time_inverse is None else as_elem(table, time_inverse),
                   relations=relations, label=label)

    # -- invariant checks -------------------------------------------------------

    def _sigma_elem(self) -> FieldElem:
        return self.table.t() if self.sigma is None else self.sigma

    def _check(self):
        table = self.table
        if self.kind not in ("dependent", "scalar", "point"):
            raise ConstraintError(f"unknown map kind {self.kind!r}")
        if self.sigma is not None and self.sigma.d().is_zero():
            raise ConstraintError("time change must depend on t")
        if self.time_inverse is not None:
            # tau(sigma(t)) = t identically
            if self.time_inverse.subs("t", self._sigma_elem()) != table.t():
                raise MapInverseError("time inverse does not undo the time change")
        xv = PhaseRational.var(table, "x")
        yv = PhaseRational.var(table, "y")
        if self.kind == "dependent":
            _no_uvars(self.phi, "map expression")
            _no_uvars(self.psi, "map inverse")
            if self.phi.subs_phase({"x": self.psi}) != xv:
                raise MapInverseError("phi(y, psi(y, x, t), t) != x")
        elif self.kind == "scalar":
            _no_uvars(self.expr, "map expression")
            if self.inverse is not None:
                back = self.inverse.subs_t(self._sigma_elem()).subs_phase({"y": self.expr})
                if back != yv:
                    raise MapInverseError("inverse(expr(y, t), sigma(t)) != y")
        else:
            for c in self.comps:
                _no_uvars(c, "map component")
            if self.inverse is not None:
                assign = {"y": self.comps[0], "x": self.comps[1]}
                sig = self._sigma_elem()
                for c, var in zip(self.inverse, (yv, xv)):
                    if c.subs_t(sig).subs_phase(assign) != var:
                        raise MapInverseError("point map inverse does not undo the map")

    def __repr__(self):
        return f"VariableMap({self.kind}, {self.label or 'unlabeled'})"


def _system_pair(instance):
    sys = getattr(instance, "system", None)
    if sys is None:
        raise ConstraintError(f"{getattr(instance, 'family', '?')} carries no system form")
    table = instance.table
    return _as_rational(table, sys[0]), _as_rational(table, sys[1])


def _second_order(instance):
    r = getattr(instance, "second_order", None)
    if r is None:
        raise ConstraintError(f"{getattr(instance, 'family', '?')} carries no second-order form")
    return _as_rational(instance.table, r)


def verify_transform(source, vmap: VariableMap, target) -> TransformReport:
    """Check that vmap carries the source equation/system to the target.

    Residuals are exact; Match means every component difference is the
    zero rational function.  Table identity is required so that square
    relations and parameter symbols are shared.
    """
    table = vmap.table
    if source.table is not table or target.table is not table:
        raise ConstraintError("source, map and target must share one symbol table")
    xv = PhaseRational.var(table, "x")

    if vmap.kind == "dependent":
        rsrc = _second_order(source)
        f, g = _system_pair(target)
        # y' = psi on the curve; x' found by the chain rule, y'' eliminated
        res1 = f - vmap.psi
        xdot = (vmap.phi.partial("y") * xv
                + vmap.phi.partial("x") * rsrc
                + vmap.phi.coeff_d())
        res2 = g - xdot.subs_phase({"x": vmap.psi})
        return TransformReport((res1, res2))

    if vmap.kind == "scalar":
        rsrc = _second_order(source)
        rtgt = _second_order(target)
        sig = vmap._sigma_elem()
        sp = sig.d()
        e1 = (vmap.expr.partial("y") * xv + vmap.expr.coeff_d()) / sp
        e2 = (e1.partial("y") * xv + e1.partial("x") * rsrc + e1.coeff_d()) / sp
        rhs = rtgt.subs_t(sig).subs_phase({"y": vmap.expr, "x": e1})
        return TransformReport((e2 - rhs,))

    fsrc, gsrc = _system_pair(source)
    ftgt, gtgt = _system_pair(target)
    sig = vmap._sigma_elem()
    sp = sig.d()
    assign = {"y": vmap.comps[0], "x": vmap.comps[1]}
    residuals = []
    for comp, ftarget in zip(vmap.comps, (ftgt, gtgt)):
        lhs = comp.partial("y") * fsrc + comp.partial("x") * gsrc + comp.coeff_d()
        rhs = ftarget.subs_t(sig).subs_phase(assign) * sp
        residuals.append(lhs - rhs)
    return TransformReport(residuals)


def hamiltonian_check(H, system, convention: str = CONVENTION_MINUS) -> TransformReport:
    """Residuals of the system against the Hamiltonian field of H.

    minus convention: y' = dH/dx, x' = -dH/dy.  plus tests x' = +dH/dy,
    a variant some sources print.  H may carry rational-in-t
    coefficients; it must be free of tangent variables.
    """
    if convention not in (CONVENTION_MINUS, CONVENTION_PLUS):
        raise ConstraintError(f"unknown convention {convention!r}")
    table = H.table
    h = _as_rational(table, H)
    _no_uvars(h, "Hamiltonian")
    f = _as_rational(table, system[0])
    g = _as_rational(table, system[1])
    res1 = f - h.partial("x")
    hy = h.partial("y")
    res2 = g + hy if convention == CONVENTION_MINUS else g - hy
    return TransformReport((res1, res2))


def compose(first: VariableMap, second: VariableMap) -> VariableMap:
    """second after first.  Supported: point after point, point after dependent."""
    table = first.table
    if second.table is not table:
        raise ValueError("mixing symbol tables")
    if first.kind == "point" and second.kind == "point":
        sig1 = first._sigma_elem()
        assign = {"y": first.comps[0], "x": first.comps[1]}
        comps = tuple(c.subs_t(sig1).subs_phase(assign) for c in second.comps)
        sigma = second._sigma_elem().subs("t", sig1)
        if sigma == table.t():
            sigma = None
        inverse = None
        time_inverse = None
        if first.inverse is not None and second.inverse is not None:
            sig2i = second.time_inverse if second.time_inverse is not None else table.t()
            back = {"y": second.inverse[0], "x": second.inverse[1]}
            inverse = tuple(c.subs_t(sig2i).subs_phase(back) for c in first.inverse)
            if first.time_inverse is not None:
                time_inverse = first.time_inverse.subs("t", sig2i)
        return VariableMap.point(table, comps, sigma=sigma, inverse=inverse,
                                 time_inverse=time_inverse,
                                 relations=first.relations + second.relations,
                                 label=f"({second.label}) after ({first.label})")
    if first.kind == "dependent" and second.kind == "point":
        if second.sigma is not None:
            raise ConstraintError("cannot compose a dependent map with a time change")
        if second.comps[0] != PhaseRational.var(table, "y"):
            raise ConstraintError("composition needs the point map to fix y")
        if second.inverse is None:
            raise MapInverseError("composition needs the point map's inverse")
        phi = second.comps[1].subs_phase({"x": first.phi})
        psi = first.psi.subs_phase({"x": second.inverse[1]})
        return VariableMap.dependent(table, phi, psi,
                                     relations=first.relations + second.relations,
                                     label=f"({second.label}) after ({first.label})")
    raise ConstraintError(f"composition of {first.kind} then {second.kind} is not supported")


def inverse(vmap: VariableMap) -> VariableMap:
    """The checked inverse map; requires the supplied inverses."""
    table = vmap.table
    if vmap.kind == "scalar":
        if vmap.inverse is None:
            raise MapInverseError("scalar map has no supplied inverse")
        if vmap.sigma is not None and vmap.time_inverse is None:
            raise MapInverseError("time change has no supplied inverse")
        return VariableMap.scalar(table, vmap.inverse, sigma=vmap.time_inverse,
                                  inverse=vmap.expr, time_inverse=vmap.sigma,
                                  relations=vmap.relations,
                                  label=f"inverse of ({vmap.label})")
    if vmap.kind == "point":
        if vmap.inverse is None:
            raise MapInverseError("point map has no supplied inverse")
        if vmap.sigma is not None and vmap.time_inverse is None:
            raise MapInverseError("time change has no supplied inverse")
        return VariableMap.point(table, vmap.inverse, sigma=vmap.time_inverse,
                                 inverse=vmap.comps, time_inverse=vmap.sigma,
                                 relations=vmap.relations,
                                 label=f"inverse of ({vmap.label})")
    raise MapInverseError("dependent maps reduce order; they have no map inverse here")


# -- named maps ------------------------------------------------------------------
#
# Factories take a table that already holds the parameter symbols they
# mention and declare any radicals they introduce.

def identity_point_map(table: SymbolTable) -> VariableMap:
    y = PhaseRational.var(table, "y")
    x = PhaseRational.var(table, "x")
    return VariableMap.point(table, (y, x), inverse=(y, x), label="identity")


def identity_scalar_map(table: SymbolTable) -> VariableMap:
    y = PhaseRational.var(table, "y")
    return VariableMap.scalar(table, y, inverse=y, label="identity")


def p2_to_s2_map(table: SymbolTable) -> VariableMap:
    """x = y' + y^2 + t/2, the Hamiltonian rewrite of the second family."""
    y = PhaseRational.var(table, "y")
    x = PhaseRational.var(table, "x")
    t = table.t()
    phi = x + y * y + t / 2
    psi = x - y * y - t / 2
    return VariableMap.dependent(table, phi, psi, label="x = y' + y^2 + t/2")


def _sqrt_symbol(table: SymbolTable, name: str, radicand: FieldElem) -> FieldElem:
    # reuse the symbol only when it already stands for this square root;
    # otherwise declare_radical refuses a taken name or a root already in
    # the field with a RadicalDeclarationError
    if name in table.names and table.relation(name) == radicand:
        return table.sym(name)
    return table.declare_radical(name, radicand)


def p3prime_scaling_map(table: SymbolTable, relation: str = "printed") -> VariableMap:
    """The rescaling Y = y/lambda, T = t/mu normalizing (gamma, delta).

    relation selects the square relations the scale factors satisfy:

    * "printed":   lambda^2 = 4/gamma, mu^2 = 1/(gamma*delta), the
      relations as stated alongside the reduction in the literature;
      these land (gamma, delta) on (4, 1/4), not on the normal form,
      since delta goes to mu^2*delta/lambda^2;
    * "corrected": lambda^2 = 4/gamma, mu^2 = -16/(gamma*delta), which
      is what actually lands the parameters on (4, -4);
    * "general":   lambda, mu free parameters (no relations), for the
      generic target (lambda*alpha, mu*beta/lambda, lambda^2*gamma,
      mu^2*delta/lambda^2).

    The table must already hold gamma and delta (for the first two) and
    is extended with the scale symbols.  A scale symbol already on the
    table is reused only when it is what the choice asks for: a radical
    with that relation for the first two, a free parameter for "general";
    otherwise RadicalDeclarationError is raised.
    """
    relations = []
    if relation == "general":
        # a radical lam or mu would hold a relation this map does not report
        for name in ("lam", "mu"):
            if name in table.names and table.kind(name) != KIND_PARAM:
                raise RadicalDeclarationError(
                    f"{name!r} is already declared as a {table.kind(name)}, "
                    "not a free parameter")
        lam, mu = (table.sym(n) if n in table.names else table.declare_param(n)
                   for n in ("lam", "mu"))
    elif relation in ("printed", "corrected"):
        gamma = table.sym("gamma")
        delta = table.sym("delta")
        lam = _sqrt_symbol(table, "lam", 4 / gamma)
        relations.append(("lam", 4 / gamma))
        if relation == "printed":
            rad = 1 / (gamma * delta)
        else:
            rad = -16 / (gamma * delta)
        mu = _sqrt_symbol(table, "mu", rad)
        relations.append(("mu", rad))
    else:
        raise ConstraintError(f"unknown relation choice {relation!r}")
    y = PhaseRational.var(table, "y")
    t = table.t()
    return VariableMap.scalar(table, y / lam, sigma=t / mu,
                              inverse=y * lam, time_inverse=t * mu,
                              relations=relations,
                              label=f"Y = y/lam, T = t/mu ({relation} relations)")


def p3_to_p3prime_map(table: SymbolTable, alt: bool = False) -> VariableMap:
    """The independent-variable halving between the two third-family forms.

    The standard reading sends Y = t*y, T = t^2 and keeps all four
    parameters.  The alternative literal reading Y = y/t is exposed so
    the two can be compared; it does not transport the equation.
    """
    y = PhaseRational.var(table, "y")
    t = table.t()
    expr = y / t if alt else y * t
    label = "Y = y/t, T = t^2" if alt else "Y = t*y, T = t^2"
    return VariableMap.scalar(table, expr, sigma=t * t, label=label)
