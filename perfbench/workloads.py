"""The four workloads: seeded inputs, one operation, and its summary.

Each workload builds one *round* of operations from the seed.  A run
repeats whole rounds, so every run attempts the same operations in the
same order, and the share of any operation kind is the same in every
run.  Seeds vary the inputs only in ways that keep the cost of a round
steady (rational parameters of the same shape, stratified initial
values), so that runs with different seeds measure the same work.

Operations call painlevekit through module attributes
(``dvariety.darboux_search``, not a name bound at import), so that the
traced run can wrap those attributes.  ``run`` is the timed part;
``summarise`` turns its result into plain data for the checks and runs
outside the timer.  ``warmup`` is the operation run once before timing,
the same kind in every run; ``reference`` names the host-speed kernel of
reference.py that does the same kind of work as the operations.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np

from painlevekit import catalog, dvariety, field, numint, transforms
from painlevekit.dvariety import DVectorField, SearchBounds
from painlevekit.field import PhasePoly, SymbolTable

import oracles


def _rational(rng, dens, lim):
    """p/q in lowest terms with q drawn from dens and |p/q| <= lim."""
    while True:
        q = rng.choice(dens)
        r = F(rng.randint(-lim * q, lim * q), q)
        if r.denominator == q:
            return r


# ---------------------------------------------------------------------------
# search: bounded Darboux search, dominated by the mod-p candidate filter

SEARCH_BOUNDS = SearchBounds(2, 1, 2)


def _s4(v1, v2):
    return {"v1": F(v1), "v2": F(v2), "v3": -F(v1) - F(v2)}


class Search:
    name = "search"
    reference = "filter"

    def __init__(self, seed):
        rng = random.Random(f"search-{seed}")
        alpha = _rational(rng, (3, 4, 5, 6, 7), 2)  # never in 1/2 + Z
        e = _rational(rng, (2, 3, 4, 5), 2)          # v1 - v2 = -1
        while True:
            generic = _s4(_rational(rng, (3, 4, 5, 7), 2),
                          _rational(rng, (3, 4, 5, 7), 2))
            if not oracles.exceptional("S4", generic):
                break
        ops = [("S2", {"alpha": F(1, 2)}), ("S2", {"alpha": F(-1, 2)}),
               ("S2", {"alpha": alpha}), ("P1", {}), ("S4", _s4(0, 1)),
               ("S4", _s4(e, e + 1)), ("S4", generic)]
        self.warmup = ops[0]
        rng.shuffle(ops)
        self.round = ops

    def run(self, op):
        family, params = op
        inst = catalog.instantiate(family, params)
        return dvariety.darboux_search(inst.derivation, SEARCH_BOUNDS)

    def summarise(self, op, certs):
        return [(str(c.P), str(c.G)) for c in certs]

    def check(self, op, summary):
        return oracles.check_search(op, summary)


# ---------------------------------------------------------------------------
# exact: symbolic certification with symbolic parameters

_GREEK = ("alpha", "beta", "gamma", "delta")


def _scaling(relation, delta=-4):
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
    return transforms.verify_transform(
        src, transforms.p3_to_p3prime_map(tab, alt=alt), tgt)


def _p2_to_s2():
    tab = SymbolTable()
    a = tab.declare_param("alpha")
    p2 = catalog.instantiate("P2", {"alpha": a}, table=tab)
    s2 = catalog.instantiate("S2", {"alpha": a}, table=tab)
    return transforms.verify_transform(p2, transforms.p2_to_s2_map(tab), s2)


def _symbolic_systems():
    """Every system family instantiated with symbolic parameters."""
    out = {}
    for family, names in (("S2", ("alpha",)), ("S3prime", ("v1", "v2")),
                          ("S4", ("v1", "v2")), ("S5", ("v1", "v2", "v3")),
                          ("S6", ("a1", "a2", "a3", "a4"))):
        tab = SymbolTable()
        ps = {n: tab.declare_param(n) for n in names}
        if family == "S4":
            ps["v3"] = -ps["v1"] - ps["v2"]
        elif family == "S5":
            ps["v4"] = -ps["v1"] - ps["v2"] - ps["v3"]
        inst = catalog.instantiate(family, ps, table=tab)
        out[family] = inst.system
    return out


def _hamiltonians():
    tab = SymbolTable()
    v1, v2 = tab.declare_param("v1"), tab.declare_param("v2")
    s3p = catalog.instantiate("S3prime", {"v1": v1, "v2": v2}, table=tab)
    p1 = catalog.instantiate("P1", {})
    return (transforms.hamiltonian_check(s3p.hamiltonian, s3p.system),
            transforms.hamiltonian_check(p1.hamiltonian, p1.system))


def _free_particle():
    """y' = x, x' = 0: a field whose first integrals are x and y - t*x."""
    tab = SymbolTable()
    return DVectorField(tab, 1, PhasePoly.var(tab, "x"), 0)


FIRST_INTEGRAL_BOUNDS = (SearchBounds(3, 2), SearchBounds(2, 2))


def _classify_grid(rng):
    """24 seeded points per natural family, about a third exceptional."""
    dens = (2, 3, 4, 5, 7)
    pts = []
    for _ in range(24):
        a = _rational(rng, dens, 3)
        if rng.random() < 0.35:
            a = F(rng.randint(-3, 3)) + F(1, 2)
        pts.append(("P2", {"alpha": a}))
    for _ in range(24):
        v1, v2 = _rational(rng, dens, 3), _rational(rng, dens, 3)
        if rng.random() < 0.35:
            v2 = v1 + rng.choice((-2, 0, 2, 4)) if rng.random() < 0.5 \
                else -v1 + rng.choice((-2, 0, 2))
        pts.append(("S3prime", {"v1": v1, "v2": v2}))
    for _ in range(24):
        v1, v2 = _rational(rng, dens, 3), _rational(rng, dens, 3)
        if rng.random() < 0.35:
            v2 = v1 + rng.randint(-2, 2)
        pts.append(("S4", _s4(v1, v2)))
    for _ in range(24):
        v = [_rational(rng, dens, 3) for _ in range(3)]
        if rng.random() < 0.35:
            v[1] = v[0] + rng.randint(-2, 2)
        pts.append(("S5", {"v1": v[0], "v2": v[1], "v3": v[2],
                           "v4": -sum(v)}))
    for _ in range(24):
        a = [_rational(rng, dens, 3) for _ in range(4)]
        if rng.random() < 0.35:
            a[2] = rng.choice((1, -1)) * a[0] + rng.randint(-2, 2)
        pts.append(("S6", dict(zip(("a1", "a2", "a3", "a4"), a))))
    return pts


class Exact:
    name = "exact"
    reference = "python"

    def __init__(self, seed):
        rng = random.Random(f"exact-{seed}")
        while True:
            fi_params = _s4(_rational(rng, (3, 5, 7), 2),
                            _rational(rng, (3, 5, 7), 2))
            if not oracles.exceptional("S4", fi_params):
                break
        ops = [("scaling", "printed", -4), ("scaling", "printed", F(1, 4)),
               ("scaling", "corrected", -4), ("scaling", "general", None),
               ("p3-to-p3prime", False), ("p3-to-p3prime", True),
               ("p2-to-s2+hamiltonians+systems",),
               ("first-integrals", fi_params),
               ("classify", _classify_grid(rng))]
        self.warmup = ops[0]
        rng.shuffle(ops)
        self.round = ops

    def run(self, op):
        kind = op[0]
        if kind == "scaling":
            return _scaling(op[1], op[2])
        if kind == "p3-to-p3prime":
            return _p3_to_p3prime(op[1])
        if kind == "p2-to-s2+hamiltonians+systems":
            return _p2_to_s2(), _hamiltonians(), _symbolic_systems()
        if kind == "first-integrals":
            inst = catalog.instantiate("S4", op[1])
            bounds_s4, bounds_free = FIRST_INTEGRAL_BOUNDS
            return (dvariety.first_integral_search(inst.derivation, bounds_s4),
                    dvariety.first_integral_search(_free_particle(), bounds_free))
        return [catalog.classify(family, p).verdict for family, p in op[1]]

    def summarise(self, op, res):
        def rep(r):
            return r.verdict, [str(q) for q in r.residuals]

        kind = op[0]
        if kind in ("scaling", "p3-to-p3prime"):
            return rep(res)
        if kind == "p2-to-s2+hamiltonians+systems":
            p2s2, (h3, h1), systems = res
            return {"p2-to-s2": rep(p2s2), "S3prime": rep(h3), "P1": rep(h1),
                    "systems": {k: [str(c) for c in v]
                                for k, v in systems.items()}}
        if kind == "first-integrals":
            return [[str(P) for P in found] for found in res]
        return res

    def check(self, op, summary):
        return oracles.check_exact(op, summary)


# ---------------------------------------------------------------------------
# flow: ensembles on the invariant line and parabola of S2, pairwise probes

FLOW_TOL = 1e-12
# short polylines from t = 1 on which every solution of the ensembles
# below stays clear of its poles (checked by the benchmark's tests)
FLOW_PATHS = (
    (1, 1.5 + 0.5j, 2),
    (1, 1.5 - 0.5j, 2.2),
    (1, 1.4 + 0.8j, 2 + 0.8j),
    (1, 1.3 + 0.6j, 1.9 + 0.2j, 2.3),
    (1, 1.2 - 0.7j, 1.9 - 0.7j),
)
FLOW_Y0_RANGE = (-0.3, 0.3)
FLOW_STRATA = 8     # initial values per curve and path, one per stratum
FLOW_CURVES = {
    # alpha, invariant polynomial, x on the curve as a function of (t, y)
    "line": (F(-1, 2), "x", lambda t, y: 0.0),
    "parabola": (F(1, 2), "x - 2*y^2 - t", lambda t, y: 2 * y * y + t),
}


def flow_y0s(rng):
    """One initial value per stratum of FLOW_Y0_RANGE, in seeded order."""
    lo, hi = FLOW_Y0_RANGE
    w = (hi - lo) / FLOW_STRATA
    ys = [round(lo + (k + rng.random()) * w, 6) for k in range(FLOW_STRATA)]
    rng.shuffle(ys)
    return ys


class Flow:
    name = "flow"
    reference = "python"

    def __init__(self, seed):
        rng = random.Random(f"flow-{seed}")
        self.inst = {c: catalog.instantiate("S2", {"alpha": a})
                     for c, (a, _, _) in FLOW_CURVES.items()}
        self.poly = {c: field.parse(text, self.inst[c].table)
                     for c, (_, text, _) in FLOW_CURVES.items()}
        ops = []
        for k in range(len(FLOW_PATHS)):
            line, parabola = flow_y0s(rng), flow_y0s(rng)
            for i in range(0, FLOW_STRATA, 2):
                ops.append((k, (("line", line[i]), ("line", line[i + 1]),
                                ("parabola", parabola[i]),
                                ("parabola", parabola[i + 1]))))
        self.warmup = ops[0]
        rng.shuffle(ops)
        self.round = ops

    def integrate(self, curve, y0, path, tol=FLOW_TOL):
        xfun = FLOW_CURVES[curve][2]
        t0 = path[0]
        return numint.integrate(self.inst[curve], (t0, y0, xfun(t0, y0)),
                                list(path), tol=tol)

    def drift(self, curve, traj):
        return numint.invariant_drift(traj, self.poly[curve])

    def run(self, op):
        k, points = op
        path = FLOW_PATHS[k]
        trajs = [self.integrate(c, y0, path) for c, y0 in points]
        drifts = [self.drift(c, tr) for tr, (c, _) in zip(trajs, points)]
        probes = [numint.relation_probe([trajs[i], trajs[j]])
                  for i in range(len(trajs)) for j in range(i + 1, len(trajs))]
        return trajs, drifts, probes

    def summarise(self, op, res):
        trajs, drifts, probes = res
        sols = []
        for tr, d in zip(trajs, drifts):
            ts, ys, xs = tr.arrays()
            sols.append({"status": tr.status, "steps": len(tr) - 1,
                         "t_end": complex(ts[-1]), "y_end": complex(ys[-1]),
                         "x_max": float(np.max(np.abs(xs))), "drift": d})
        return {"solutions": sols,
                "probes": [{"verdict": p.verdict, "sigma_min": p.sigma_min,
                            "basis": p.basis, "coefficients": p.coefficients}
                           for p in probes]}

    def check(self, op, summary):
        return oracles.check_flow(self, op, summary)


# ---------------------------------------------------------------------------
# cli: the README's command-line examples as fresh subprocesses

CLI_KEYS = ("command", "verdict", "witnesses", "certificates", "residuals",
            "citations", "warnings")
CLI_TOL = 1e-10


def _path_text(path):
    return ",".join(f"{complex(w).real:g}{complex(w).imag:+g}i" for w in path)


class Cli:
    name = "cli"
    reference = "process"

    def __init__(self, seed):
        rng = random.Random(f"cli-{seed}")
        exceptional = F(rng.randint(-3, 2)) + F(1, 2)
        generic = _rational(rng, (3, 4, 5), 3)
        sign = rng.choice((1, -1))
        invariant = "x" if sign < 0 else "x - 2*y^2 - t"
        ya, yb = (round(rng.uniform(*FLOW_Y0_RANGE), 6) for _ in range(2))
        pa, pb = (_path_text(rng.choice(FLOW_PATHS)) for _ in range(2))
        half = f"alpha={F(sign, 2)}"
        # seven operations, so that the median falls on one of them and
        # not between the three cheaper and the three dearer examples
        ops = [
            ("classify", "--family", "P2", "--param", f"alpha={exceptional}"),
            ("classify", "--family", "P2", "--param", f"alpha={generic}"),
            ("darboux", "--family", "S2", "--param", half, "--deg-xy", "2",
             "--deg-t", "1", "--cofactor-box", "2", "--cofactor-deg", "1"),
            ("verify-invariant", "--family", "S2", "--param", half,
             "--poly", invariant),
            ("transform-check", "--map", "p2-to-s2", "--param",
             "alpha=sym:alpha"),
            ("probe", "--family", "S2", "--param", "alpha=-1/2", "--initial",
             f"1,{ya},0", "--path", pa, "--tol", f"{CLI_TOL:g}",
             "--basis", "1,t,y,y^2,y'"),
            ("integrate", "--family", "S2", "--param", "alpha=1/2",
             "--initial", f"1,{yb},{2 * yb * yb + 1!r}", "--path", pb,
             "--tol", f"{CLI_TOL:g}"),
        ]
        self.warmup = ops[0]
        rng.shuffle(ops)
        self.round = ops

    @staticmethod
    def argv(op):
        return list(op) + ["--json"]

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "painlevekit.cli", *self.argv(op)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def summarise(self, op, res):
        code, out = res
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = None
        return code, report

    def check(self, op, summary):
        return oracles.check_cli(op, summary)


WORKLOADS = {w.name: w for w in (Search, Exact, Flow, Cli)}
