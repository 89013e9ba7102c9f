"""Print everything the square-root layer decides on a seeded sweep.

    PYTHONPATH=src python3 tools/radical_sweep.py > sweep.txt

For 400 seeded rational parameter points over P3, P3prime, P4, P5 and P6,
plus symbolic parameters, prints what ``reduce_parameters`` returns: the
principal parameters, the relations, every branch, and the names and
radicands the table holds afterwards (or the error it raised).  It also
prints the tables the three ``p3prime_scaling_map`` relation choices
leave, and, for seeded sequences of rational and symbolic radicands, which
declarations ``SymbolTable.declare_radical`` accepts.  Last, over seeded
towers of four radicals whose radicands use the radicals before them, it
prints the str() and symbols_used() of +, -, *, / and powers of random
elements.  Two checkouts decide every square root, and compute with the
radicals, alike on these inputs exactly when their outputs are equal.

``tools/radical_sweep.sha256`` holds the SHA-256 of the output, and CI
checks it with

    PYTHONPATH=src python3 tools/radical_sweep.py | sha256sum -c tools/radical_sweep.sha256

A change meant to alter what the sweep prints updates that file with it.
"""

import operator
import random
from fractions import Fraction

from painlevekit import catalog, transforms
from painlevekit.errors import DomainError
from painlevekit.field import SymbolTable

FAMILIES = ("P3", "P3prime", "P4", "P5", "P6")
POINTS = 400
_SMALL = (0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 18)
_RATIOS = (1, 2, 4, -1, Fraction(1, 9), Fraction(-1, 2))


def _rational(rng):
    num = rng.choice(_SMALL) * rng.choice((1, -1))
    return Fraction(num, rng.choice((1, 1, 2, 3, 4, 9)))


def _table_state(table):
    out = []
    for name in table.names:
        rel = table.relation(name)
        out.append(name if rel is None else f"{name}^2={rel}")
    return " ".join(out)


def _show(value):
    return "{" + ", ".join(f"{k}: {value[k]}" for k in sorted(value)) + "}"


def _reduction(family, params, table=None):
    try:
        res = catalog.reduce_parameters(family, params, table=table)
    except DomainError as exc:
        return [f"  error {type(exc).__name__}: {exc}"]
    lines = [f"  params {_show(res.params)}",
             "  relations " + "; ".join(f"{n}^2={r}" for n, r in res.relations)]
    lines += [f"  branch {_show(b)}" for b in res.branches]
    return lines


def sweep_reductions(rng):
    for i in range(POINTS):
        family = FAMILIES[i % len(FAMILIES)]
        names = catalog._PARAMS[family]
        params = {n: _rational(rng) for n in names}
        table = SymbolTable()
        print(f"{family} {_show(params)}")
        for line in _reduction(family, params, table):
            print(line)
        print(f"  table {_table_state(table)}")


def sweep_symbolic(rng):
    for family in FAMILIES:
        names = catalog._PARAMS[family]
        for k in range(len(names)):
            table = SymbolTable()
            symbolic = set(rng.sample(names, k + 1))
            params = {n: table.declare_param(n) if n in symbolic else _rational(rng)
                      for n in names}
            print(f"{family} symbolic {_show(params)}")
            for line in _reduction(family, params, table):
                print(line)
            print(f"  table {_table_state(table)}")


def sweep_scaling_maps():
    for relation in ("printed", "corrected", "general"):
        table = SymbolTable()
        for n in ("alpha", "beta", "gamma", "delta"):
            table.declare_param(n)
        vmap = transforms.p3prime_scaling_map(table, relation)
        print(f"p3prime_scaling_map {relation}: {vmap.label}")
        print("  relations " + "; ".join(f"{n}^2={r}" for n, r in vmap.relations))
        print(f"  table {_table_state(table)}")


def sweep_declarations(rng):
    for trial in range(60):
        table = SymbolTable()
        a = table.declare_param("a")
        b = table.declare_param("b")
        for k in range(6):
            if trial % 3 == 2 and k % 2:
                r = rng.choice(_RATIOS) * rng.choice((a, a * b, 1 / b))
            else:
                r = _rational(rng)
            try:
                table.declare_radical(f"r{k}", r)
                verdict = "ok"
            except DomainError as exc:
                verdict = f"{type(exc).__name__}: {exc}"
            print(f"declare {trial}.{k} {r}: {verdict}")
        print(f"  table {_table_state(table)}")


TOWERS = 60
OPERATIONS = 12
_FIRST_RADICANDS = (2, 3, 5, -1, Fraction(1, 2), Fraction(7, 3))


def _tower(rng):
    # s1^2 rational, s2^2 in Q(a, b), s3^2 uses s1 and s4^2 uses s2
    table = SymbolTable()
    a = table.declare_param("a")
    b = table.declare_param("b")
    s1 = table.declare_radical("s1", rng.choice(_FIRST_RADICANDS))
    s2 = table.declare_radical("s2", a if rng.random() < 0.5 else (a + 1) / b)
    table.declare_radical("s3", 1 + s1 if rng.random() < 0.5 else a * s1 + 2)
    table.declare_radical("s4", -4 / (a * b) + s2)
    return table


def _poly(rng, table, terms, names):
    # terms of at most one symbol each
    atoms = [table.sym(n) for n in names]
    out = table.zero()
    for _ in range(terms):
        coeff = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3)))
        out = out + (coeff * rng.choice(atoms) if rng.random() < 0.7 else table.const(coeff))
    return out


def _element(rng, table):
    # a denominator without s2, s3 and s4 keeps the gcds of later quotients
    # small
    den = table.zero()
    while den.is_zero():
        den = _poly(rng, table, rng.randint(1, 2), ("t", "a", "b", "s1"))
    return _poly(rng, table, rng.randint(1, 2), table.names) / den


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


def sweep_tower_arithmetic():
    for seed in range(TOWERS):
        rng = random.Random(seed)
        table = _tower(rng)
        print(f"tower {seed}: {_table_state(table)}")
        elems = [_element(rng, table) for _ in range(4)]
        for j, z in enumerate(elems):
            print(f"  e{j} = {z}")
        for _ in range(OPERATIONS):
            op = rng.choice("+-*/^")
            i, j = rng.randrange(4), rng.randrange(4)
            k = rng.choice((2, 3, -1))
            expr = f"e{i}^{k}" if op == "^" else f"e{i} {op} e{j}"
            try:
                z = elems[i] ** k if op == "^" else _OPERATORS[op](elems[i], elems[j])
            except DomainError as exc:
                print(f"  {expr}: {type(exc).__name__}: {exc}")
                continue
            used = " ".join(table.names[v] for v in sorted(z.symbols_used()))
            print(f"  {expr} = {z}  [uses {used}]")


def main():
    rng = random.Random(20111)
    sweep_reductions(rng)
    sweep_symbolic(rng)
    sweep_scaling_maps()
    sweep_declarations(rng)
    sweep_tower_arithmetic()


if __name__ == "__main__":
    main()
