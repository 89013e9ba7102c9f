"""Checks made apart from painlevekit.

* The arithmetic oracle for the classical exceptional sets, written out
  from the classifier table of docs/catalog.md.
* sympy: the vector fields, second-order forms and Hamiltonians written
  out from docs/catalog.md and the classical sources, with every
  certificate, verdict and residual recomputed from them.
* mpmath: the closed-form Airy solutions of S2 on its invariant line
  (alpha = -1/2) and parabola (alpha = 1/2).

painlevekit output reaches sympy only as printed text.  Every check
returns a list of problems; an empty list means the result is correct.
sympy and mpmath are imported on first use, after the timed phase, so
they count in no metric.
"""

import functools
from fractions import Fraction as F

# ---------------------------------------------------------------------------
# arithmetic oracle


def _in_z(q):
    return F(q).denominator == 1


def _in_2z(q):
    return _in_z(q) and F(q).numerator % 2 == 0


def _pairwise(vals, pred):
    return any(pred(vals[i], vals[j])
               for i in range(len(vals)) for j in range(i + 1, len(vals)))


def exceptional(family, p):
    """True where the classical exceptional set of the family holds."""
    if family == "P1":
        return False
    if family in ("P2", "S2"):
        return _in_z(p["alpha"] - F(1, 2))
    if family == "S3prime":
        return _in_2z(p["v1"] + p["v2"]) or _in_2z(p["v1"] - p["v2"])
    if family in ("S4", "S5"):
        names = ("v1", "v2", "v3") if family == "S4" else ("v1", "v2", "v3", "v4")
        return _pairwise([p[n] for n in names], lambda u, v: _in_z(u - v))
    if family == "S6":
        return _pairwise([p[n] for n in ("a1", "a2", "a3", "a4")],
                         lambda u, v: _in_z(u - v) or _in_z(u + v))
    raise ValueError(f"no oracle for {family}")


# ---------------------------------------------------------------------------
# sympy side

NAMES = ("t", "x", "y", "alpha", "beta", "gamma", "delta", "lam", "mu",
         "v1", "v2", "v3", "v4", "a1", "a2", "a3", "a4")


@functools.lru_cache(maxsize=None)
def _sym():
    import sympy

    return sympy, {n: sympy.Symbol(n) for n in NAMES}


def sym(text):
    """painlevekit's printed form (or a docs display) as a sympy expression."""
    sp, names = _sym()
    return sp.sympify(str(text).replace("^", "**"), locals=dict(names))


def _is_zero(expr):
    sp, _ = _sym()
    return sp.cancel(sp.together(expr)) == 0


def _rat(q):
    sp, _ = _sym()
    return sp.Rational(F(q).numerator, F(q).denominator)


def docs_field(family, p=None):
    """(y', x') of the system family as displayed in docs/catalog.md.

    With p the parameters are those values; without, they stay symbols.
    """
    _, s = _sym()
    t, x, y = s["t"], s["x"], s["y"]
    v = s if p is None else {k: _rat(val) for k, val in p.items()}
    if family == "P1":
        return x, 6 * y**2 + t
    if family == "S2":
        return -y**2 + x - t / 2, 2 * x * y + v["alpha"] + _rat(F(1, 2))
    if family == "S3prime":
        v1, v2 = v["v1"], v["v2"]
        return (2 * x * y**2 / t - y**2 / t + v1 * y / t + 1,
                -2 * x**2 * y / t + 2 * x * y / t - v1 * x / t + (v1 + v2) / (2 * t))
    if family == "S4":
        v1, v2 = v["v1"], v["v2"]
        return (2 * x * y - y**2 - 2 * t * y + 2 * v1 - 2 * v2,
                -x**2 + 2 * x * y + 2 * t * x + 4 * v1 + 2 * v2)
    if family == "S5":
        v1, v2, v3 = v["v1"], v["v2"], v["v3"]
        return (2 * x * y**2 / t - 2 * x * y / t + y**2
                + (-t - 2 * v2 - 2 * v3) / t * y + (-v1 + v2) / t,
                -2 * x**2 * y / t + x**2 / t - 2 * x * y
                + (t + 2 * v2 + 2 * v3) / t * x + (-v1 + v3))
    if family == "S6":
        a1, a2, a3, a4 = v["a1"], v["a2"], v["a3"], v["a4"]
        tt = t**2 - t
        return (2 / tt * x * y**3 + (-2 * t - 2) / tt * x * y**2
                + 2 / (t - 1) * x * y + (a1 + a2 - 2 * a3) / tt * y**2
                + (2 * t * a3 - a1 - a2 + a3 + a4) / tt * y + (-a3 - a4) / (t - 1),
                -3 / tt * x**2 * y**2 + (2 * t + 2) / tt * x**2 * y
                - 1 / (t - 1) * x**2 + (-2 * a1 - 2 * a2 + 4 * a3) / tt * x * y
                + (-2 * t * a3 + a1 + a2 - a3 - a4) / tt * x
                + (-a1 * a2 + a1 * a3 + a2 * a3 - a3**2) / tt)
    raise ValueError(f"no docs field for {family}")


def derive(P, field, e=1):
    """e*dP/dt + f*dP/dy + g*dP/dx."""
    sp, s = _sym()
    f, g = field
    return (e * sp.diff(P, s["t"]) + f * sp.diff(P, s["y"])
            + g * sp.diff(P, s["x"]))


def is_darboux(P, G, field):
    return _is_zero(derive(sym(P), field) - sym(G) * sym(P))


# ---------------------------------------------------------------------------
# search

KNOWN_CERTIFICATES = {
    ("S2", (F(1, 2),)): [("y^2 - x/2 + t/2", "-2*y")],
    ("S2", (F(-1, 2),)): [("x", "2*y")],
    ("S4", (F(0), F(1), F(-1))): [("x*y - y^2 - 2*t*y - 2", "x - 2*y - 2*t"),
                                  ("x^2 - x*y - 2*t*x - 2", "-2*x + y + 2*t")],
}


def _same(a, b):
    return _is_zero(sym(a) - sym(b))


def check_search(op, certs):
    family, params = op
    field = docs_field(family, params)
    problems = []
    for P, G in certs:
        if not is_darboux(P, G, field):
            problems.append(f"{family} {params}: D(P) != G*P for P = {P}, G = {G}")
    if certs and not exceptional(family, params):
        problems.append(f"{family} {params}: certificate at a generic point")
    key = (family, tuple(params[k] for k in sorted(params)))
    known = KNOWN_CERTIFICATES.get(key, [])
    for P, G in known:
        if not any(_same(P, p) and _same(G, g) for p, g in certs):
            problems.append(f"{family} {params}: known certificate {P} missing")
    if known and len(certs) != len(known):
        problems.append(f"{family} {params}: {len(certs)} certificates, "
                        f"expected {len(known)}")
    return problems


# ---------------------------------------------------------------------------
# exact


def _r_p2():
    _, s = _sym()
    return 2 * s["y"]**3 + s["t"] * s["y"] + s["alpha"]


def _r_p3(T, Y, P, a, b, g, d):
    return P**2 / Y - P / T + (a * Y**2 + b) / T + g * Y**3 + d / Y


def _r_p3prime(T, Y, P, a, b, g, d):
    return (P**2 / Y - P / T + Y**2 * (g * Y + a) / (4 * T**2)
            + b / (4 * T) + d / (4 * Y))


def scalar_residual(r_src, expr, sigma, r_tgt):
    """Y'' - R_tgt(T, Y, Y') for Y = expr(y, t), T = sigma(t), with y''
    eliminated through the source equation y'' = r_src(t, y, y')."""
    sp, s = _sym()
    t, y, p = s["t"], s["y"], s["x"]
    sp_ = sp.diff(sigma, t)

    def d(q):
        return sp.diff(q, t) + sp.diff(q, y) * p + sp.diff(q, p) * r_src

    Y1 = d(expr) / sp_
    Y2 = d(Y1) / sp_
    return Y2 - r_tgt(sigma, expr, Y1)


def _greek():
    _, s = _sym()
    return [s[n] for n in ("alpha", "beta", "gamma", "delta")]


@functools.lru_cache(maxsize=None)
def reference_transform(op):
    """(verdict, residual, substitution) recomputed in sympy.

    The substitution expresses gamma and delta through the square roots
    lam and mu wherever the map declares relations for them; residuals
    from painlevekit are compared after the same substitution.
    """
    sp, s = _sym()
    t, y = s["t"], s["y"]
    a, b, g, d = _greek()
    if op[0] == "p3-to-p3prime":
        expr = y / t if op[1] else t * y
        res = scalar_residual(_r_p3(t, y, s["x"], a, b, g, d), expr, t**2,
                              lambda T, Y, P: _r_p3prime(T, Y, P, a, b, g, d))
        subs = {}
    else:
        relation, delta = op[1], op[2]
        lam, mu = s["lam"], s["mu"]
        if relation == "general":
            subs = {}
            tgt = (lam * a, mu * b / lam, lam**2 * g, mu**2 * d / lam**2)
        else:
            # lam^2 = 4/gamma; printed: mu^2 = 1/(gamma*delta),
            # corrected: mu^2 = -16/(gamma*delta)
            k = 1 if relation == "printed" else -16
            subs = {g: 4 / lam**2, d: k * lam**2 / (4 * mu**2)}
            tgt = (lam * a, mu * b / lam, 4, _rat(delta))
        src = _r_p3prime(t, y, s["x"], a, b, g, d).subs(subs)
        res = scalar_residual(src, y / lam, t / mu,
                              lambda T, Y, P: _r_p3prime(T, Y, P, *tgt))
    res = sp.cancel(sp.together(res))
    return ("Match" if res == 0 else "Mismatch"), res, subs


EXPECTED_VERDICTS = {
    ("scaling", "printed", -4): "Mismatch",
    ("scaling", "printed", F(1, 4)): "Match",
    ("scaling", "corrected", -4): "Match",
    ("scaling", "general", None): "Match",
    ("p3-to-p3prime", False): "Match",
    ("p3-to-p3prime", True): "Mismatch",
}


def _check_transform(op, summary):
    verdict, residuals = summary
    ref_verdict, ref_res, subs = reference_transform(op)
    problems = []
    if ref_verdict != EXPECTED_VERDICTS[op]:
        problems.append(f"{op}: reference says {ref_verdict}, "
                        f"the documented verdict is {EXPECTED_VERDICTS[op]}")
    if verdict != ref_verdict:
        problems.append(f"{op}: verdict {verdict}, sympy says {ref_verdict}")
    if len(residuals) != 1 or not _is_zero(sym(residuals[0]).subs(subs) - ref_res):
        problems.append(f"{op}: residual {residuals} differs from sympy's {ref_res}")
    return problems


def _p2_to_s2_residuals():
    # x = y' + y^2 + t/2 with inverse y' = x - y^2 - t/2
    sp, s = _sym()
    t, x, y = s["t"], s["x"], s["y"]
    f, g = docs_field("S2")
    psi = x - y**2 - t / 2
    # d/dt (y' + y^2 + t/2) with y'' from P2, then y' = psi
    xdot = _r_p2() + 2 * y * psi + sp.Rational(1, 2)
    return f - psi, g - xdot


def _hamiltonian_residuals():
    """Minus convention: y' = dH/dx, x' = -dH/dy."""
    sp, s = _sym()
    t, x, y = s["t"], s["x"], s["y"]
    v1, v2 = s["v1"], s["v2"]
    out = {}
    h3 = (x**2 * y**2 / t - x * y**2 / t + v1 * x * y / t + x
          - (v1 + v2) / (2 * t) * y)
    h1 = -2 * y**3 + x**2 / 2 + t * y
    for family, H in (("S3prime", h3), ("P1", h1)):
        f, g = docs_field(family)
        out[family] = (f - sp.diff(H, x), g + sp.diff(H, y))
    return out


def _check_residual_pair(label, summary, ref):
    verdict, residuals = summary
    want = "Match" if all(_is_zero(r) for r in ref) else "Mismatch"
    problems = []
    if verdict != want:
        problems.append(f"{label}: verdict {verdict}, sympy says {want}")
    if len(residuals) != 2 or not all(_is_zero(sym(r) - q)
                                      for r, q in zip(residuals, ref)):
        problems.append(f"{label}: residuals {residuals} differ from sympy's {ref}")
    return problems


def _nullity_first_integrals(field, deg_xy, deg_t):
    """Independent non-constant polynomial first integrals in the box."""
    sp, s = _sym()
    t, x, y = s["t"], s["x"], s["y"]
    monos = [x**i * y**j * t**k for i in range(deg_xy + 1)
             for j in range(deg_xy + 1 - i) for k in range(deg_t + 1)]
    cs = sp.symbols(f"c0:{len(monos)}")
    DP = sp.expand(derive(sum(c * m for c, m in zip(cs, monos)), field))
    eqs = sp.Poly(DP, x, y, t).coeffs()
    rank = sp.Matrix([[sp.diff(e, c) for c in cs] for e in eqs]).rank()
    return len(monos) - rank - 1  # the constant is always in the kernel


def _check_first_integrals(op, summary):
    from workloads import FIRST_INTEGRAL_BOUNDS

    _, s = _sym()
    fields = (docs_field("S4", op[1]), (s["x"], 0))
    problems = []
    for found, field, bounds in zip(summary, fields, FIRST_INTEGRAL_BOUNDS):
        for P in found:
            if not _is_zero(derive(sym(P), field)):
                problems.append(f"first integral {P}: D(P) != 0")
        want = _nullity_first_integrals(field, bounds.deg_xy, bounds.deg_t)
        if len(found) != want:
            problems.append(f"{len(found)} first integrals within {bounds}, "
                            f"sympy finds {want}")
    return problems


def check_exact(op, summary):
    kind = op[0]
    if kind in ("scaling", "p3-to-p3prime"):
        return _check_transform(op, summary)
    if kind == "p2-to-s2+hamiltonians+systems":
        problems = _check_residual_pair("p2-to-s2", summary["p2-to-s2"],
                                        _p2_to_s2_residuals())
        ham = _hamiltonian_residuals()
        for family in ("S3prime", "P1"):
            problems += _check_residual_pair(f"hamiltonian {family}",
                                             summary[family], ham[family])
        if not _is_zero(ham["P1"][1] - sym("2*t")):
            problems.append("P1's quoted Hamiltonian should leave the residual 2t")
        for family, comps in summary["systems"].items():
            for got, want in zip(comps, docs_field(family)):
                if not _is_zero(sym(got) - want):
                    problems.append(f"{family} system {got} differs from the docs")
        return problems
    if kind == "first-integrals":
        return _check_first_integrals(op, summary)
    problems = []
    for (family, p), verdict in zip(op[1], summary):
        want = "NotStronglyMinimal" if exceptional(family, p) else "StronglyMinimal"
        if verdict != want:
            problems.append(f"classify {family} {p}: {verdict}, oracle says {want}")
    return problems


# ---------------------------------------------------------------------------
# flow: closed forms through Airy functions
#
# On x = 0 at alpha = -1/2, y' = -y^2 - t/2; on x = 2y^2 + t at
# alpha = 1/2, y' = y^2 + t/2.  With u'' = -(t/2)*u, y = s*u'/u (s = +1
# on the line, -1 on the parabola) solves both, and u is a combination
# of Ai and Bi at c*t with c^3 = -1/2.

ENDPOINT_BOUND = 5       # endpoint error / (tol * (1 + |y|))
DRIFT_BOUND = 100        # parabola drift / tol
RELATION_BOUND = 1e-6    # |sum c_k m_k| / sum |c_k m_k| on the closed form
SIGNS = {"line": 1, "parabola": -1}


@functools.lru_cache(maxsize=None)
def _airy(sign, t0, y0):
    """(t -> (y, y')) for the closed-form solution through (t0, y0)."""
    import mpmath as mp

    mp.mp.dps = 30
    c = -mp.cbrt(mp.mpf(1) / 2)
    z0 = c * mp.mpc(t0)
    A = mp.matrix([[mp.airyai(z0), mp.airybi(z0)],
                   [c * mp.airyai(z0, 1), c * mp.airybi(z0, 1)]])
    ab = mp.lu_solve(A, mp.matrix([1, sign * mp.mpf(y0)]))

    def at(t):
        t = mp.mpc(t)
        z = c * t
        u = ab[0] * mp.airyai(z) + ab[1] * mp.airybi(z)
        up = c * (ab[0] * mp.airyai(z, 1) + ab[1] * mp.airybi(z, 1))
        w = up / u
        return complex(sign * w), complex(sign * (-t / 2 - w * w))

    return at


def _path_points(path, fractions=(0.2, 0.5, 0.8)):
    """Points at the given shares of the polyline's arclength."""
    seg = [abs(b - a) for a, b in zip(path, path[1:])]
    total = sum(seg)
    out = []
    for f in fractions:
        s = f * total
        for (a, b), L in zip(zip(path, path[1:]), seg):
            if s <= L:
                out.append(a + (b - a) * (s / L))
                break
            s -= L
    return out


def relation_residual(basis, coeffs, values):
    """|sum c_k m_k| / sum |c_k m_k| with m_k evaluated at values."""
    total, scale = 0j, 0.0
    for e, c in zip(basis, coeffs):
        m = 1 + 0j
        for v, k in zip(values, e):
            m *= v ** k
        total += c * m
        scale += abs(c * m)
    return abs(total) / scale


def check_flow(workload, op, summary):
    from workloads import FLOW_PATHS, FLOW_TOL

    k, points = op
    path = [complex(w) for w in FLOW_PATHS[k]]
    tol = FLOW_TOL
    problems = []
    sols = summary["solutions"]
    closed = [_airy(SIGNS[c], path[0], y0) for c, y0 in points]
    for (curve, y0), sol, at in zip(points, sols, closed):
        label = f"path {k}, {curve} y0={y0}"
        if sol["status"] != "Completed":
            problems.append(f"{label}: {sol['status']}")
            continue
        y_ref = at(sol["t_end"])[0]
        err = abs(sol["y_end"] - y_ref)
        if abs(sol["t_end"] - path[-1]) > 1e-12 or \
                err > ENDPOINT_BOUND * tol * (1 + abs(y_ref)):
            problems.append(f"{label}: endpoint {sol['y_end']} at "
                            f"{sol['t_end']}, closed form {y_ref}")
        if curve == "line" and sol["x_max"] > tol:
            problems.append(f"{label}: x left the line, max |x| {sol['x_max']}")
        if curve == "parabola":
            if sol["drift"] > DRIFT_BOUND * tol:
                problems.append(f"{label}: drift {sol['drift']:.3e}")
            coarse = workload.integrate(curve, y0, path, tol=100 * tol)
            d_coarse = workload.drift(curve, coarse)
            if sol["drift"] > d_coarse:
                problems.append(f"{label}: drift {sol['drift']:.3e} at tol "
                                f"{tol:g} above {d_coarse:.3e} at {100 * tol:g}")
    ts = _path_points(path)
    pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    for (i, j), probe in zip(pairs, summary["probes"]):
        label = f"path {k}, probe {points[i]} with {points[j]}"
        if probe["verdict"] != "CandidateRelation":
            problems.append(f"{label}: {probe['verdict']} "
                            f"(sigma_min {probe['sigma_min']})")
            continue
        for t in ts:
            yi, dyi = closed[i](t)
            yj, dyj = closed[j](t)
            r = relation_residual(probe["basis"], probe["coefficients"],
                                  (t, yi, dyi, yj, dyj))
            if r > RELATION_BOUND:
                problems.append(f"{label}: relation leaves {r:.2e} at t={t}")
                break
    return problems


# ---------------------------------------------------------------------------
# cli


def _arg(op, flag):
    return op[op.index(flag) + 1]


def _params(op):
    out = {}
    for i, a in enumerate(op):
        if a == "--param":
            name, _, val = op[i + 1].partition("=")
            out[name] = val if val.startswith("sym:") else F(val)
    return out


RICCATI = {"1": 0.0, "t": 0.5, "y": 0.0, "y^2": 1.0, "y'": 1.0}


def check_cli(op, summary):
    from workloads import CLI_KEYS

    code, rep = summary
    cmd = op[0]
    if code != 0 or rep is None:
        return [f"{cmd}: exit code {code}, report {rep!r}"]
    problems = [f"{cmd}: key {k} missing" for k in CLI_KEYS if k not in rep]
    if problems:
        return problems
    verdict = rep["verdict"]
    want = None
    if cmd == "classify":
        want = ("NotStronglyMinimal" if exceptional("P2", _params(op))
                else "StronglyMinimal")
    elif cmd == "darboux":
        want = "FoundWithinBounds"
        params = _params(op)
        field = docs_field("S2", params)
        certs = [(c["P"], c["G"]) for c in rep["certificates"]]
        for P, G in certs:
            if not is_darboux(P, G, field):
                problems.append(f"darboux: D(P) != G*P for P = {P}, G = {G}")
        for P, G in KNOWN_CERTIFICATES[("S2", (params["alpha"],))]:
            if not any(_same(P, p) and _same(G, g) for p, g in certs):
                problems.append(f"darboux: known certificate {P} missing")
    elif cmd == "verify-invariant":
        want = "Invariant"
        sp, _ = _sym()
        P = sym(_arg(op, "--poly"))
        G = sp.cancel(derive(P, docs_field("S2", _params(op))) / P)
        certs = rep["certificates"]
        if len(certs) != 1 or not _is_zero(sym(certs[0]["G"]) - G):
            problems.append(f"verify-invariant: certificates {certs}, "
                            f"sympy cofactor {G}")
    elif cmd == "transform-check":
        want = "Match"
        ref = _p2_to_s2_residuals()
        if not all(_is_zero(r) for r in ref):
            problems.append("transform-check: sympy residuals do not vanish")
    elif cmd == "probe":
        want = "CandidateRelation"
        coeffs = rep.get("coefficients") or []
        labels = rep.get("basis_labels") or []
        c = {lab: complex(z) for lab, z in zip(labels, coeffs)}
        if set(c) != set(RICCATI) or c["y'"] == 0 or any(
                abs(c[lab] / c["y'"] - RICCATI[lab]) > 1e-6 for lab in RICCATI):
            problems.append(f"probe: witness {rep['witnesses']} is not "
                            "y' + y^2 + t/2 up to scale")
    elif cmd == "integrate":
        want = "Completed"
        if rep.get("samples", 0) < 2:
            problems.append(f"integrate: {rep.get('samples')} samples")
    if verdict != want:
        problems.append(f"{cmd}: verdict {verdict}, expected {want}")
    return problems
