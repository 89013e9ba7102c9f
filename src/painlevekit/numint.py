"""Numerical companions to the exact layer.

Integrate a catalog system along a polyline in the complex t-plane,
measure how well a claimed first integral is conserved along the result,
and probe sampled trajectories for low-degree algebraic relations.

Everything here is floating point and heuristic; verdicts carry the
tolerances that produced them and are never a substitute for the exact
certificates in dvariety.
"""

import cmath
import itertools
import math

import numpy as np

from . import _accel
from .errors import (
    ConstraintError,
    InsufficientSamplesError,
    NonNumericError,
    PathError,
)
from .field import KIND_PARAM, PhasePoly, PhaseRational

COMPLETED = "Completed"
POLE_DETECTED = "PoleDetected"
SINGULARITY_ABORTED = "SingularityAborted"

NO_RELATION_FOUND = "NoRelationFound"
CANDIDATE_RELATION = "CandidateRelation"
DEGENERATE = "Degenerate"

# fixed singularities of the equation, not movable poles of solutions;
# paths must stay clear of these for the affected families
_FIXED_SING = {
    "P3": (0j,),
    "P3prime": (0j,),
    "S3prime": (0j,),
    "P5": (0j,),
    "S5": (0j,),
    "P6": (0j, 1 + 0j),
    "S6": (0j, 1 + 0j),
}

_SING_GUARD = 1e-12

_CSV_HEADER = "t_re,t_im,y_re,y_im,x_re,x_im"


def fixed_singularities(family: str) -> tuple:
    """Points of the t-plane the family's coefficients blow up at."""
    return _FIXED_SING.get(family, ())


def _finite_complex(v, what: str, error) -> complex:
    """complex(v) for a number or for text that may write the imaginary unit
    as i; error, quoting v, when v is unreadable or not finite."""
    try:
        try:
            z = complex(v)
        except ValueError:
            if not isinstance(v, str):
                raise
            z = complex(v.replace("i", "j").replace("I", "j"))
    except (TypeError, ValueError):
        raise error(f"{what} {v!r} is not a complex number") from None
    if not cmath.isfinite(z):
        raise error(f"{what} {v!r} is not finite")
    return z


class PathSpec:
    """Polyline through the given waypoints in the complex t-plane.

    A single waypoint is a zero-length path; consecutive waypoints must
    be distinct.
    """

    __slots__ = ("waypoints",)

    def __init__(self, waypoints):
        pts = [_finite_complex(w, "waypoint", PathError) for w in waypoints]
        if not pts:
            raise PathError("a path needs at least one waypoint")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise PathError("consecutive waypoints must be distinct")
        self.waypoints = tuple(pts)

    @classmethod
    def parse(cls, text: str) -> "PathSpec":
        """Comma-separated waypoints, each a+bi (i or j accepted)."""
        pts = [tok.strip() for tok in text.split(",")]
        if not all(pts):
            raise PathError("empty waypoint in path text")
        return cls(pts)

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:]))

    def __repr__(self):
        inner = ", ".join(_cstr(w) for w in self.waypoints)
        return f"PathSpec([{inner}])"


class Trajectory:
    """Sampled numerical solution along a path.

    samples is a tuple of (t, y, x) complex triples; status is one of
    Completed, PoleDetected, SingularityAborted.  t_est estimates the
    pole location when status is PoleDetected and is None otherwise.
    waypoints is the tuple of the integration path's waypoints, or None
    for a trajectory built by hand.
    """

    __slots__ = ("samples", "status", "t_est", "tolerance", "family",
                 "waypoints", "_rhs", "_arrays", "_fractions")

    def __init__(self, samples, status, t_est, tolerance, family, rhs=None,
                 waypoints=None):
        self.samples = tuple(samples)
        self.status = status
        self.t_est = t_est
        self.tolerance = tolerance
        self.family = family
        self.waypoints = waypoints
        self._rhs = rhs
        self._arrays = None
        self._fractions = None

    def __len__(self):
        return len(self.samples)

    def arrays(self):
        """(t, y, x) as three complex numpy arrays.

        They are built on the first call and are read-only, so every call
        returns the same three arrays.
        """
        if self._arrays is None:
            ts = np.array([s[0] for s in self.samples], dtype=np.complex128)
            ys = np.array([s[1] for s in self.samples], dtype=np.complex128)
            xs = np.array([s[2] for s in self.samples], dtype=np.complex128)
            for a in (ts, ys, xs):
                a.flags.writeable = False
            self._arrays = (ts, ys, xs)
        return self._arrays

    def _arclength(self):
        """Arclength along the sampled polyline in t at each sample, as a
        fraction of the whole; built once, read-only."""
        if self._fractions is None:
            seg = np.abs(np.diff(self.arrays()[0]))
            s = np.concatenate(([0.0], np.cumsum(seg)))
            s /= s[-1]
            s.flags.writeable = False
            self._fractions = s
        return self._fractions

    def y_prime(self, ts, ys, xs):
        """y' from the compiled right-hand side, never from differencing."""
        if self._rhs is None:
            raise ConstraintError("trajectory carries no compiled right-hand side")
        fex, fco, _, _, den = self._rhs
        return _eval_compiled(fex, fco, den, ts, ys, xs)

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for t, y, x in self.samples:
            lines.append(",".join(
                "%.17g" % v
                for v in (t.real, t.imag, y.real, y.imag, x.real, x.imag)))
        return "\n".join(lines) + "\n"

    def write_csv(self, dest) -> None:
        with open(dest, "w") as fh:
            fh.write(self.to_csv())

    def __repr__(self):
        tail = f", t_est={_cstr(self.t_est)}" if self.t_est is not None else ""
        return (f"Trajectory({self.family}, {len(self.samples)} samples, "
                f"{self.status}{tail})")


class RelationProbeResult:
    """Outcome of the algebraic-relation probe.

    coefficients are reported against the raw (unnormalized) basis,
    scaled so the largest entry is 1; they are present exactly when the
    verdict is CandidateRelation.  sigma_min is the smallest singular
    value of the column-normalized sample matrix.
    """

    __slots__ = ("basis", "sigma_min", "coefficients", "verdict", "threshold",
                 "n_trajectories")

    def __init__(self, basis, sigma_min, coefficients, verdict, threshold,
                 n_trajectories):
        self.basis = tuple(tuple(e) for e in basis)
        self.sigma_min = sigma_min
        self.coefficients = coefficients
        self.verdict = verdict
        self.threshold = threshold
        self.n_trajectories = n_trajectories

    def labels(self) -> tuple:
        """Human-readable monomial names matching self.basis."""
        return tuple(_monomial_label(e, self.n_trajectories) for e in self.basis)

    def __repr__(self):
        sm = "None" if self.sigma_min is None else f"{self.sigma_min:.3e}"
        return (f"RelationProbeResult({self.verdict}, sigma_min={sm}, "
                f"threshold={self.threshold:g})")


def _cstr(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"


def _monomial_label(e, ntraj) -> str:
    names = ["t"]
    for i in range(1, ntraj + 1):
        names += [f"y{i}", f"dy{i}"] if ntraj > 1 else ["y", "y'"]
    parts = []
    for name, k in zip(names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# compilation of a catalog system into flat arrays


def _radical_values(table) -> dict:
    """Numeric value (principal square root) for every radical symbol."""
    vals: dict = {}
    for i in table.radical_indices():
        # radicands are differential constants, so t never shows up here
        num, den = table.relation(table.names[i]).complex_t_coefficients(vals)
        vals[i] = cmath.sqrt(num[0] / den[0])
    return vals


def _compile_component(comp: PhasePoly, radvals):
    """Flatten one polynomial system component to ((n,3) exps, coeffs).

    Exponent columns are (x, y, t); coefficient denominators must have
    been cleared beforehand.
    """
    rows: dict = {}
    for e, c in comp.terms.items():
        if e[2] or e[3]:
            raise ConstraintError("system components cannot involve u1 or u2")
        num, den = c.complex_t_coefficients(radvals)
        if den != [1]:
            raise ConstraintError("coefficient denominator survived clearing")
        for dt, z in enumerate(num):
            rows[(e[0], e[1], dt)] = z
    keys = sorted(k for k, z in rows.items() if z != 0)
    ex = np.zeros((len(keys), 3), dtype=np.int64)
    co = np.zeros(len(keys), dtype=np.complex128)
    for n, k in enumerate(keys):
        ex[n, 0], ex[n, 1], ex[n, 2] = k
        co[n] = rows[k]
    return ex, co


def compile_system(instance):
    """(fex, fco, gex, gco, den) ready for the dopri5 kernel.

    Denominators are cleared exactly first, so both components share the
    one dense denominator polynomial in t, den.
    """
    if instance.system is None:
        raise ConstraintError(
            f"{instance.family} carries no first-order system to integrate")
    from .dvariety import clear_denominators

    cleared, mult = clear_denominators(instance.derivation)
    radvals = _radical_values(instance.table)
    den = np.array(mult.complex_t_coefficients(radvals)[0], dtype=np.complex128)
    fex, fco = _compile_component(cleared.f, radvals)
    gex, gco = _compile_component(cleared.g, radvals)
    return fex, fco, gex, gco, den


def _eval_compiled(ex, co, de, t, y, x):
    num = np.zeros_like(t)
    for n in range(ex.shape[0]):
        num = num + co[n] * x ** ex[n, 0] * y ** ex[n, 1] * t ** ex[n, 2]
    den = np.zeros_like(t)
    for c in de[::-1]:
        den = den * t + c
    return num / den


# ---------------------------------------------------------------------------
# integration


def _check_path(family: str, path: PathSpec) -> None:
    for s in fixed_singularities(family):
        for w in path.waypoints:
            if abs(w - s) <= _SING_GUARD:
                raise PathError(
                    f"waypoint {_cstr(w)} sits on the fixed singularity "
                    f"t = {_cstr(s)} of {family}")
        for a, b in path.segments():
            d = b - a
            # Re((s - a) / d) is the projection; the squared length of d
            # would overflow past 1e154
            u = ((s - a) / d).real
            u = min(1.0, max(0.0, u))
            if abs(a + u * d - s) <= _SING_GUARD:
                raise PathError(
                    f"path segment {_cstr(a)} -> {_cstr(b)} passes through "
                    f"the fixed singularity t = {_cstr(s)} of {family}")


def integrate(instance, initial, path, tol: float = 1e-9) -> Trajectory:
    """Integrate instance.system from initial = (t0, y0, x0) along path.

    t0 must be the first waypoint.  Initial values may be numbers or text
    like waypoints; non-finite values and tolerances are rejected.  Returns
    a Trajectory whose status distinguishes a completed run, an apparent
    movable pole (step size collapsed while the state blew up), and an
    abort.
    """
    if not isinstance(path, PathSpec):
        path = PathSpec.parse(path) if isinstance(path, str) else PathSpec(path)
    if not (tol > 0 and math.isfinite(tol)):
        raise ConstraintError(f"tolerance {tol!r} is not a positive finite number")
    t0, y0, x0 = (_finite_complex(v, "initial value", ConstraintError) for v in initial)
    if t0 != path.waypoints[0]:
        raise PathError(
            f"initial t = {_cstr(t0)} is not the first waypoint "
            f"{_cstr(path.waypoints[0])}")
    _check_path(instance.family, path)

    rhs = instance._compiled
    if rhs is None:
        rhs = compile_system(instance)
        for a in rhs:
            a.flags.writeable = False
        instance._compiled = rhs
        instance._rhs = _accel.compile_rhs(*rhs)
    wps = np.array(path.waypoints, dtype=np.complex128)
    ts, ys, xs, status, t_est = _accel.dopri5_path(instance._rhs, wps, y0, x0,
                                                   float(tol))

    samples = list(zip(ts, ys, xs))
    if status == _accel.STATUS_COMPLETED:
        label, est = COMPLETED, None
    elif status == _accel.STATUS_POLE:
        label, est = POLE_DETECTED, t_est
    else:
        label, est = SINGULARITY_ABORTED, None
    return Trajectory(samples, label, est, float(tol), instance.family, rhs,
                      path.waypoints)


# ---------------------------------------------------------------------------
# invariant drift


def _require_numeric_coeffs(poly) -> None:
    table = poly.table
    for c in poly.terms.values():
        for i in c.symbols_used(True):
            if table.kind(table.names[i]) == KIND_PARAM:
                raise NonNumericError(
                    f"coefficient depends on parameter {table.names[i]!r}; "
                    "give it a numeric value first")


def invariant_drift(traj: Trajectory, P) -> float:
    """max |P(t_i, y_i, x_i)| over the samples of a completed trajectory.

    For a trajectory started on the variety P = 0 this measures how far
    the numerical solution wanders off it.  P is evaluated once over the
    sample arrays; where a denominator of P vanishes at a sample, or the
    evaluation overflows, the drift is inf.
    """
    if traj.status != COMPLETED:
        raise ConstraintError(
            f"drift needs a completed trajectory, got {traj.status}")
    if isinstance(P, PhaseRational):
        polys = (P.num, P.den)
    elif isinstance(P, PhasePoly):
        polys = (P,)
    else:
        raise ConstraintError("P must be a PhasePoly or PhaseRational")
    for q in polys:
        if q.has_uvars():
            raise ConstraintError("drift is defined on the base phase space; "
                                  "tangent variables u1, u2 are not sampled")
        _require_numeric_coeffs(q)

    radvals = _radical_values(P.table)
    ts, ys, xs = traj.arrays()
    with np.errstate(all="ignore"):
        vals = _phase_values(polys[0], radvals, ts, ys, xs)
        if len(polys) == 2:
            vals = vals / _phase_values(polys[1], radvals, ts, ys, xs)
        return float(np.nan_to_num(np.abs(vals), nan=np.inf, posinf=np.inf).max())


def _phase_values(q: PhasePoly, radvals, ts, ys, xs) -> np.ndarray:
    """q at every sample (t_i, y_i, x_i), evaluated over the arrays."""

    def at_ts(coeffs):
        v = np.zeros_like(ts)
        for c in reversed(coeffs):
            v = v * ts + c
        return v

    out = np.zeros_like(ts)
    for e, c in q.terms.items():
        num, den = c.complex_t_coefficients(radvals)
        out = out + at_ts(num) / at_ts(den) * xs ** e[0] * ys ** e[1]
    return out


# ---------------------------------------------------------------------------
# relation probe


# a probe needs two samples per basis monomial, and an integration returns
# at most MAX_STEPS + 1 samples
MAX_PROBE_COLUMNS = (_accel.MAX_STEPS + 1) // 2


def _default_basis(nvars: int, degree: int) -> list:
    """Every exponent vector of total degree <= degree, by degree then lex."""
    out = []
    for d in range(degree + 1):
        block = []
        for picks in itertools.combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in picks:
                e[i] += 1
            block.append(tuple(e))
        # the picks come in lex order, so their exponent vectors in reverse
        out += reversed(block)
    return out


def _constant(samples) -> bool:
    """Whether there are samples and every one equals the first."""
    if not samples:
        return False
    first = samples[0]
    return all(s == first for s in samples)


def _check_common_path(trajs) -> None:
    """Refuse integrated trajectories that were not integrated along one
    path.  A trajectory built by hand carries no waypoints and is not
    checked."""
    integrated = [tr.waypoints for tr in trajs if tr.waypoints is not None]
    if any(w != integrated[0] for w in integrated[1:]):
        raise ConstraintError(
            "a probe of several trajectories needs them integrated along "
            "the same path")


def _resample(trajs, m: int):
    """Linear interpolation of each trajectory onto m arclength fractions."""
    grid = np.linspace(0.0, 1.0, m)
    rows = []
    for tr in trajs:
        ts, ys, xs = tr.arrays()
        s = tr._arclength()

        def lerp(v):
            return np.interp(grid, s, v.real) + 1j * np.interp(grid, s, v.imag)

        rows.append((lerp(ts), lerp(ys), lerp(xs)))
    return rows


def relation_probe(trajectories, degree: int = 2, threshold: float = 1e-6,
                   basis=None) -> RelationProbeResult:
    """Search for an approximate polynomial relation among t, y_i, y_i'.

    Builds the sample matrix of basis monomials (columns scaled to unit
    norm), takes its smallest singular value, and reports a
    CandidateRelation exactly when that value drops below threshold.
    The verdict is a numerical heuristic, not a proof either way.

    Several trajectories are compared at equal fractions of their
    arclength, with the t column of the first, so integrated ones must
    share their path's waypoints; anything else is a ConstraintError.
    Trajectories built by hand are not checked.  A member that stopped
    early (at a pole, say) is still stretched over the whole range.
    """
    if isinstance(trajectories, Trajectory):
        trajectories = [trajectories]
    trajs = list(trajectories)
    if not trajs:
        raise ConstraintError("relation probe needs at least one trajectory")
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ConstraintError(
            f"threshold {threshold!r} is not a positive finite number")
    if len(trajs) > 1:
        _check_common_path(trajs)

    nvars = 1 + 2 * len(trajs)
    if basis is None:
        if degree < 1:
            raise ConstraintError("probe degree must be at least 1")
        ncols = math.comb(nvars + degree, degree)
        if ncols > MAX_PROBE_COLUMNS:
            # refused before the basis is built, degenerate trajectory or not
            raise ConstraintError(
                f"probe degree {degree} needs {ncols} basis monomials; no "
                f"trajectory supports more than {MAX_PROBE_COLUMNS}")
    else:
        basis = [tuple(int(k) for k in e) for e in basis]
        for e in basis:
            if len(e) != nvars or any(k < 0 for k in e):
                raise ConstraintError(
                    f"basis exponent {e} does not fit {nvars} variables "
                    "(t, then y and y' per trajectory)")
        if not basis:
            raise ConstraintError("basis must not be empty")
        # a repeated column makes its difference a null vector of the matrix
        seen = set()
        for e in basis:
            if e in seen:
                label = _monomial_label(e, len(trajs))
                raise ConstraintError(f"basis monomial {label!r} is repeated")
            seen.add(e)
        ncols = len(basis)

    degenerate = any(_constant(tr.samples) for tr in trajs)
    m = min(len(tr) for tr in trajs)
    if not degenerate and m < 2 * ncols:
        raise InsufficientSamplesError(
            f"{m} samples for {ncols} basis monomials; need at least {2 * ncols}")
    if basis is None:
        basis = _default_basis(nvars, degree)
    if degenerate:
        return RelationProbeResult(basis, None, None, DEGENERATE,
                                   threshold, len(trajs))
    parts = [trajs[0].arrays()] if len(trajs) == 1 else _resample(trajs, m)

    # variable columns built on demand, so bases avoiding y' work on
    # trajectories that never carried a compiled right-hand side
    cache: dict = {}

    def var(v):
        if v not in cache:
            if v == 0:
                cache[v] = parts[0][0]
            else:
                i, comp = divmod(v - 1, 2)
                ts, ys, xs = parts[i]
                cache[v] = ys if comp == 0 else trajs[i].y_prime(ts, ys, xs)
        return cache[v]

    A = np.zeros((m, ncols), dtype=np.complex128)
    ones = np.ones(m, dtype=np.complex128)
    powers: dict = {}
    # a high power may overflow; its column norm is then not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for j, e in enumerate(basis):
            col = ones
            for v, k in enumerate(e):
                if k:
                    p = powers.get((v, k))
                    if p is None:
                        p = powers[(v, k)] = var(v) ** k
                    col = col * p
            A[:, j] = col
        norms = np.linalg.norm(A, axis=0)
    huge = np.flatnonzero(~np.isfinite(norms))
    if huge.size:
        label = _monomial_label(basis[huge[0]], len(trajs))
        raise ConstraintError(f"basis monomial {label!r} overflows on the samples")
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        label = _monomial_label(basis[zero[0]], len(trajs))
        raise ConstraintError(f"basis monomial {label!r} is zero on every sample")
    A /= norms
    sing = np.linalg.svd(A, compute_uv=False)
    sigma_min = float(sing[-1])

    if sigma_min >= threshold:
        return RelationProbeResult(basis, sigma_min, None, NO_RELATION_FOUND,
                                   threshold, len(trajs))
    _, _, vh = np.linalg.svd(A, full_matrices=False)
    coeff = np.conj(vh[-1]) / norms
    pivot = int(np.argmax(np.abs(coeff)))
    coeff = coeff / coeff[pivot]
    return RelationProbeResult(basis, sigma_min, tuple(complex(z) for z in coeff),
                               CANDIDATE_RELATION, threshold, len(trajs))
