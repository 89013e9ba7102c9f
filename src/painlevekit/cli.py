"""Command-line front end.

Every subcommand prints a report: human-readable text by default, a JSON
object under --json with the fixed keys command, verdict, witnesses,
certificates, residuals, citations, warnings (plus command-specific
extras).  Exit codes: 0 success, 1 domain error, 2 usage error.  A
reader that closes the pipe early ends the command quietly, with exit
code 1 and nothing on stderr.

Parameters are exact rationals (`--param alpha=3/2`); the prefix
`sym:` declares a transcendental instead (`--param alpha=sym:a`).  A
parameter given twice is a usage error.

Each subcommand is declared once, in _build_parser, which binds its
handler to its subparser (set_defaults); each --map name is a key of
_MAPS, whose value builds the map's source, map and target.

Each run is a fresh process, so imports are part of every command's wall
time.  numpy is loaded only by the subcommands that compute on arrays:
darboux (through dvariety.darboux_search) and drift and probe (through
numint, imported inside the handlers).  integrate loads numint and
painlevekit._accel but not numpy: it compiles the system to tuples and
integrates on Python scalars.  The exact subcommands never load numpy,
painlevekit._accel or painlevekit.numint.  numint is used through the
module, never through bound names, so that wrapping its attributes
reaches every call.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial

from . import catalog, dvariety, transforms
from .catalog import FAMILIES
from .dvariety import SearchBounds
from .errors import ConstraintError, DomainError
from .field import SymbolTable, parse, parse_poly
from .transforms import CONVENTION_MINUS, CONVENTION_PLUS


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="painlevekit",
        description="exact and numeric workbench for the Painleve families")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text, family=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if family:
            p.add_argument("--family", required=True, choices=FAMILIES)
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="rational like 3/2, or sym:name for a transcendental")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")
        return p

    add("classify", _cmd_classify, "strong-minimality verdict for a parameter point")
    add("instantiate", _cmd_instantiate, "print every stored form of a family member")

    p = add("darboux", _cmd_darboux, "search for Darboux polynomials within bounds")
    p.add_argument("--deg-xy", type=int, required=True)
    p.add_argument("--deg-t", type=int, required=True)
    p.add_argument("--cofactor-box", type=int, default=3)
    p.add_argument("--cofactor-deg", type=int, default=None,
                   help="cap the cofactor's total degree explicitly")

    p = add("verify-invariant", _cmd_verify_invariant,
            "check one polynomial for D(P) = G*P")
    p.add_argument("--poly", required=True, metavar="EXPR")

    p = add("first-integrals", _cmd_first_integrals,
            "search for polynomials with D(P) = 0")
    p.add_argument("--deg-xy", type=int, required=True)
    p.add_argument("--deg-t", type=int, required=True)

    p = add("tangent-lift", _cmd_tangent_lift,
            "shifted tangent equations of generators", family=False)
    p.add_argument("--family", choices=FAMILIES,
                   help="optional; makes the family's parameters available")
    p.add_argument("--poly", action="append", required=True, metavar="EXPR",
                   help="generator polynomial; repeatable")

    p = add("transform-check", _cmd_transform_check,
            "certify a named change of variables", family=False)
    p.add_argument("--family", choices=FAMILIES,
                   help="only used by --map identity")
    p.add_argument("--map", required=True, choices=_MAPS, dest="map_name")

    add("hamiltonian-check", _cmd_hamiltonian_check,
        "residuals of the stored Hamiltonian")

    def add_numeric(name, handler, help_text):
        p = add(name, handler, help_text)
        p.add_argument("--initial", required=True, metavar="T0,Y0,X0",
                       help="three complex numbers a+bi")
        p.add_argument("--path", required=True, metavar="T0,T1,...",
                       help="waypoints in the complex t-plane")
        p.add_argument("--tol", type=float, default=1e-9)
        return p

    p = add_numeric("integrate", _cmd_integrate, "integrate the system along a path")
    p.add_argument("--csv", metavar="FILE", help="write samples as CSV")

    p = add_numeric("drift", _cmd_drift, "max |P| along a trajectory")
    p.add_argument("--poly", required=True, metavar="EXPR")

    p = add_numeric("probe", _cmd_probe, "search samples for an algebraic relation")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--basis", metavar="M1,M2,...",
                   help="monomials in t, y, y' (e.g. \"1,t,y,y^2,y'\")")
    return ap


def _parse_params(pairs, table: SymbolTable) -> dict:
    out = {}
    for raw in pairs:
        name, eq, val = raw.partition("=")
        name, val = name.strip(), val.strip()
        if not eq or not name or not val:
            raise _UsageError(f"--param wants NAME=VALUE, got {raw!r}")
        if name in out:
            raise _UsageError(f"--param {name!r} is given more than once")
        if val.startswith("sym:"):
            sname = val[4:].strip()
            if not sname:
                raise _UsageError(f"empty symbol name in {raw!r}")
            if sname in table.names:
                out[name] = table.sym(sname)
            else:
                out[name] = table.declare_param(sname)
        else:
            try:
                out[name] = Fraction(val)
            except (ValueError, ZeroDivisionError):
                raise _UsageError(
                    f"parameter value {val!r} is not a rational; "
                    "use p/q or sym:name") from None
    return out


def _check_param_names(family: str, params: dict):
    try:
        catalog.parameter_names(family, params)
    except ConstraintError as exc:
        raise _UsageError(str(exc)) from None


def _checked_params(family: str, pairs) -> tuple:
    table = SymbolTable()
    params = _parse_params(pairs, table)
    _check_param_names(family, params)
    return table, params


def _instance(family: str, pairs):
    table, params = _checked_params(family, pairs)
    return catalog.instantiate(family, params, table=table)


def _parse_initial(text: str) -> tuple:
    # numint.integrate reads the values, so its messages quote this text
    parts = tuple(tok.strip() for tok in text.split(","))
    if len(parts) != 3:
        raise _UsageError(f"--initial wants T0,Y0,X0, got {text!r}")
    return parts


_BASIS_NAMES = {"t": 0, "y": 1, "y'": 2, "dy": 2}


def _parse_basis(text: str) -> list:
    out = []
    for mono in text.split(","):
        mono = mono.strip()
        e = [0, 0, 0]
        if mono != "1":
            for factor in mono.split("*"):
                factor = factor.strip()
                name, caret, power = factor.partition("^")
                if name not in _BASIS_NAMES:
                    raise _UsageError(
                        f"basis factor {factor!r}: expected t, y or y'")
                try:
                    k = int(power) if caret else 1
                except ValueError:
                    raise _UsageError(f"bad exponent in {factor!r}") from None
                e[_BASIS_NAMES[name]] += k
        out.append(tuple(e))
    return out


# ---------------------------------------------------------------------------
# reports


def _report(command, verdict, witnesses=(), certificates=(), residuals=(),
            citations=(), warnings=(), lines=(), **extra):
    rep = {
        "command": command,
        "verdict": verdict,
        "witnesses": list(witnesses),
        "certificates": [{"P": str(p), "G": str(g)} for p, g in certificates],
        "residuals": [str(r) for r in residuals],
        "citations": list(citations),
        "warnings": list(warnings),
    }
    rep.update(extra)
    rep["_lines"] = list(lines)
    return rep


def _print_json(rep) -> None:
    out = {k: v for k, v in rep.items() if not k.startswith("_")}
    print(json.dumps(out, indent=2, ensure_ascii=False, default=str))


def _print_human(rep) -> None:
    print(f"{rep['command']}: {rep['verdict']}")
    for line in rep["_lines"]:
        print(f"  {line}")
    for w in rep["witnesses"]:
        print(f"  witness: {w}")
    for c in rep["certificates"]:
        print(f"  certificate: P = {c['P']}, G = {c['G']}")
    for r in rep["residuals"]:
        print(f"  residual: {r}")
    for c in rep["citations"]:
        print(f"  citation: {c}")
    for w in rep["warnings"]:
        print(f"  warning: {w}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_classify(ns):
    table, params = _checked_params(ns.family, ns.param)
    warnings, extra = [], {}
    if catalog.in_natural_coordinates(ns.family, params):
        res = catalog.classify(ns.family, params, table=table)
    else:
        red = catalog.reduce_parameters(ns.family, params, table=table)
        inst = red.instance
        res = catalog.classify(inst.family, inst.params, table=inst.table)
        warnings.append(f"parameters reduced to {inst.family} coordinates")
        for name, radicand in red.relations:
            warnings.append(f"introduced {name} with {name}^2 = {radicand}")
        warnings.extend(red.notes)
        extra["reduced_params"] = {k: str(v)
                                   for k, v in sorted(inst.params.items())}
        extra["branches"] = [{k: str(v) for k, v in sorted(b.items())}
                             for b in red.branches]
    warnings.extend(res.notes)
    extra["conditions"] = [[label, m] for label, m in res.conditions]
    lines = [f"{label}: {m}" for label, m in res.conditions]
    return _report("classify", res.verdict,
                   witnesses=[res.witness] if res.witness else [],
                   citations=[res.source], warnings=warnings, lines=lines,
                   **extra)


def _cmd_instantiate(ns):
    inst = _instance(ns.family, ns.param)
    forms = {
        "second_order": None if inst.second_order is None
        else str(inst.second_order),
        "system": None if inst.system is None
        else [str(inst.system[0]), str(inst.system[1])],
        "hamiltonian": None if inst.hamiltonian is None
        else str(inst.hamiltonian),
        "hamiltonian_convention": inst.hamiltonian_convention,
    }
    lines = []
    if forms["second_order"]:
        lines.append(f"y'' = {forms['second_order']}")
    if forms["system"]:
        lines.append(f"y' = {forms['system'][0]}")
        lines.append(f"x' = {forms['system'][1]}")
    if forms["hamiltonian"]:
        lines.append(f"H = {forms['hamiltonian']} "
                     f"(convention: {forms['hamiltonian_convention']})")
    return _report("instantiate", "Instantiated", warnings=inst.notes,
                   lines=lines, forms=forms)


def _cleared_derivation(inst):
    """Polynomial-in-t derivation plus the rescale warning if any."""
    if inst.derivation is None:
        raise ConstraintError(
            f"{inst.family} carries no first-order system to search")
    cleared, mult = dvariety.clear_denominators(inst.derivation)
    warnings = []
    if mult != inst.table.one():
        warnings.append(
            f"components rescaled by {mult} to clear t-denominators; "
            f"certificates transport with cofactor {mult}*G")
    return cleared, warnings


def _cmd_darboux(ns):
    inst = _instance(ns.family, ns.param)
    cleared, warnings = _cleared_derivation(inst)
    bounds = SearchBounds(ns.deg_xy, ns.deg_t, ns.cofactor_box,
                          cofactor_deg=ns.cofactor_deg)
    certs = dvariety.darboux_search(cleared, bounds)
    verdict = "FoundWithinBounds" if certs else "NoneWithinBounds"
    lines = [f"{len(certs)} certificate(s) within bounds "
             f"(deg_xy <= {ns.deg_xy}, deg_t <= {ns.deg_t}, "
             f"cofactor box {ns.cofactor_box})"]
    return _report("darboux", verdict,
                   certificates=[(c.P, c.G) for c in certs],
                   warnings=warnings, lines=lines)


def _cmd_verify_invariant(ns):
    inst = _instance(ns.family, ns.param)
    cleared, warnings = _cleared_derivation(inst)
    P = parse_poly(ns.poly, inst.table)
    cert = dvariety.verify_darboux(cleared, P)
    if cert is not None:
        return _report("verify-invariant", "Invariant",
                       certificates=[(cert.P, cert.G)], warnings=warnings)
    DP = dvariety.apply_derivation(cleared, P)
    return _report("verify-invariant", "NotInvariant", residuals=[DP],
                   warnings=warnings,
                   lines=[f"D(P) = {DP} is not a polynomial multiple of P"])


def _cmd_first_integrals(ns):
    inst = _instance(ns.family, ns.param)
    cleared, warnings = _cleared_derivation(inst)
    found = dvariety.first_integral_search(
        cleared, SearchBounds(ns.deg_xy, ns.deg_t))
    verdict = "FoundWithinBounds" if found else "NoneWithinBounds"
    lines = [f"{len(found)} first integral(s) within bounds "
             f"(deg_xy <= {ns.deg_xy}, deg_t <= {ns.deg_t})"]
    return _report("first-integrals", verdict,
                   certificates=[(P, 0) for P in found],
                   warnings=warnings, lines=lines)


def _cmd_tangent_lift(ns):
    if ns.family:
        table = _instance(ns.family, ns.param).table
    else:
        table = SymbolTable()
        _parse_params(ns.param, table)
    gens = [parse_poly(text, table) for text in ns.poly]
    lift = dvariety.tangent_lift(gens)
    lifted = [str(L) for L in lift.lifted]
    lines = [f"{P} -> {L}" for P, L in zip(gens, lifted)]
    return _report("tangent-lift", "Lifted", lines=lines,
                   generators=[str(P) for P in gens], lifted=lifted)


def _identity_setup(ns, table, params):
    if not ns.family:
        raise _UsageError("--map identity needs --family")
    _check_param_names(ns.family, params)
    inst = catalog.instantiate(ns.family, params, table=table)
    vmap = (transforms.identity_point_map(table) if inst.system is not None
            else transforms.identity_scalar_map(table))
    return inst, vmap, inst


def _p2_to_s2_setup(ns, table, params):
    _check_param_names("P2", params)
    src = catalog.instantiate("P2", params, table=table)
    tgt = catalog.instantiate("S2", params, table=table)
    return src, transforms.p2_to_s2_map(table), tgt


def _p3prime_scaling_setup(relation, ns, table, params):
    _check_param_names("P3prime", params)
    if relation != "general":
        # the scale factors are square roots in gamma and delta, so
        # those two must stay symbolic and keep their names
        for pname in ("gamma", "delta"):
            v = params.get(pname)
            if pname not in table.names or v != table.sym(pname):
                raise _UsageError(
                    f"--map {ns.map_name} checks the symbolic relation; pass "
                    f"--param {pname}=sym:{pname}")
    src = catalog.instantiate("P3prime", params, table=table)
    vmap = transforms.p3prime_scaling_map(table, relation)
    lam, mu = table.sym("lam"), table.sym("mu")
    p = src.params
    tparams = {"alpha": lam * p["alpha"], "beta": mu * p["beta"] / lam,
               "gamma": 4, "delta": -4}
    if relation == "general":
        tparams.update(gamma=lam ** 2 * p["gamma"],
                       delta=mu ** 2 * p["delta"] / lam ** 2)
    tgt = catalog.instantiate("P3prime", tparams, table=table)
    return src, vmap, tgt


def _p3_to_p3prime_setup(alt, ns, table, params):
    _check_param_names("P3", params)
    src = catalog.instantiate("P3", params, table=table)
    tgt = catalog.instantiate("P3prime", params, table=table)
    return src, transforms.p3_to_p3prime_map(table, alt=alt), tgt


# each --map name and the setup returning its (source, map, target)
_MAPS = {
    "identity": _identity_setup,
    "p2-to-s2": _p2_to_s2_setup,
    "p3prime-scaling": partial(_p3prime_scaling_setup, "printed"),
    "p3prime-scaling-corrected": partial(_p3prime_scaling_setup, "corrected"),
    "p3prime-scaling-general": partial(_p3prime_scaling_setup, "general"),
    "p3-to-p3prime": partial(_p3_to_p3prime_setup, False),
    "p3-to-p3prime-alt": partial(_p3_to_p3prime_setup, True),
}


def _cmd_transform_check(ns):
    table = SymbolTable()
    params = _parse_params(ns.param, table)
    src, vmap, tgt = _MAPS[ns.map_name](ns, table, params)
    rep = transforms.verify_transform(src, vmap, tgt)
    witnesses = [f"{name}^2 = {val}" for name, val in vmap.relations]
    lines = [f"map: {vmap.label}", f"source: {src.family}",
             f"target: {tgt.family}"]
    return _report("transform-check", rep.verdict, witnesses=witnesses,
                   residuals=rep.residuals, warnings=rep.notes, lines=lines,
                   map=ns.map_name)


_CONVENTION_VERDICTS = {CONVENTION_MINUS: "ConventionMinus",
                        CONVENTION_PLUS: "ConventionPlus", None: "NoConvention"}


def _cmd_hamiltonian_check(ns):
    inst = _instance(ns.family, ns.param)
    if inst.hamiltonian is None or inst.system is None:
        raise ConstraintError(
            f"{ns.family} stores no Hamiltonian system to check")
    stored = inst.hamiltonian_convention
    shown = transforms.hamiltonian_check(inst.hamiltonian, inst.system,
                                         stored or CONVENTION_MINUS)
    warnings = [] if stored else ["minus-convention residuals shown"]
    return _report("hamiltonian-check", _CONVENTION_VERDICTS[stored],
                   residuals=shown.residuals, warnings=warnings,
                   lines=[f"stored convention: {stored}"],
                   stored_convention=stored)


def _run_trajectory(ns):
    from . import numint

    inst = _instance(ns.family, ns.param)
    initial = _parse_initial(ns.initial)
    path = numint.PathSpec.parse(ns.path)
    return inst, numint.integrate(inst, initial, path, tol=ns.tol)


def _traj_extra(traj):
    return {"samples": len(traj), "tolerance": traj.tolerance,
            "t_est": None if traj.t_est is None else str(traj.t_est)}


def _cmd_integrate(ns):
    inst, traj = _run_trajectory(ns)
    lines = [f"{len(traj)} samples at tol {traj.tolerance:g}"]
    if traj.t_est is not None:
        lines.append(f"pole estimate: t = {traj.t_est}")
    if ns.csv:
        try:
            traj.write_csv(ns.csv)
        except OSError as exc:
            raise _UsageError(
                f"cannot write --csv {ns.csv!r}: {exc.strerror}") from None
        lines.append(f"wrote {ns.csv}")
    return _report("integrate", traj.status, lines=lines,
                   csv=ns.csv, **_traj_extra(traj))


def _cmd_drift(ns):
    from . import numint

    inst, traj = _run_trajectory(ns)
    P = parse(ns.poly, inst.table, allow_rational=True)
    d = numint.invariant_drift(traj, P)
    lines = [f"max |P| over {len(traj)} samples: {d:.6e} "
             f"(tol {traj.tolerance:g})"]
    return _report("drift", traj.status, residuals=[f"{d:.17g}"], lines=lines,
                   drift=d, **_traj_extra(traj))


def _fmt_coeff(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.6g}"
    return f"({z.real:.6g}{z.imag:+.6g}i)"


def _cmd_probe(ns):
    from . import numint

    inst, traj = _run_trajectory(ns)
    basis = _parse_basis(ns.basis) if ns.basis else None
    res = numint.relation_probe(traj, degree=ns.degree,
                                threshold=ns.threshold, basis=basis)
    witnesses = []
    if res.coefficients is not None:
        terms = [f"{_fmt_coeff(c)}*{lab}"
                 for lab, c in zip(res.labels(), res.coefficients)
                 if abs(c) > 1e-9]
        witnesses.append(" + ".join(terms) + " ≈ 0")
    lines = []
    if res.sigma_min is not None:
        lines.append(f"smallest singular value {res.sigma_min:.3e} "
                     f"against threshold {res.threshold:g}")
    return _report("probe", res.verdict, witnesses=witnesses, lines=lines,
                   sigma_min=res.sigma_min, threshold=res.threshold,
                   basis=[list(e) for e in res.basis],
                   basis_labels=list(res.labels()),
                   coefficients=None if res.coefficients is None
                   else [str(c) for c in res.coefficients])


def main(argv=None) -> int:
    try:
        code = _main(argv)
        # output still buffered meets a closed pipe here at the latest
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped reading: end quietly, with stdout on the null
        # device so that the interpreter's flush at exit has no pipe to
        # report either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _main(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        rep = ns.handler(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        msg = f"{type(exc).__name__}: {exc}"
        if ns.json:
            _print_json(_report(ns.command, "Error", warnings=[msg]))
        else:
            print(f"error: {msg}", file=sys.stderr)
        return 1

    if ns.json:
        _print_json(rep)
    else:
        _print_human(rep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
