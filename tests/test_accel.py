"""The Darboux candidate filter: parity with the plain elimination loop
kept here as the reference, on random pencils and on pencils planted to
send survivors to both the eigenvector test and its full rank fallback;
soundness of the eigenvalue prefilter, stage counts and search results.
The integrator's generated right-hand side: bit parity with the
numpy-scalar loop it replaced, kept here as the reference, and numpy's
complex division on Python scalars."""

import logging
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from painlevekit import _accel, catalog, numint
from painlevekit.dvariety import SearchBounds, darboux_search


def _modinv(a, p):
    t0, t1 = 0, 1
    r0, r1 = p, a % p
    while r1 != 0:
        q = r0 // r1
        t0, t1 = t1, t0 - q * t1
        r0, r1 = r1, r0 - q * r1
    return t0 % p


def _kernel_flags_loop(A, B, cand, p):
    # one small dense elimination mod p per candidate
    N = cand.shape[0]
    R, C = A.shape
    m = B.shape[0]
    out = np.zeros(N, np.uint8)
    for n in range(N):
        M = A.copy()
        for k in range(m):
            c = cand[n, k]
            if c != 0:
                for i in range(R):
                    for j in range(C):
                        M[i, j] = (M[i, j] - c * B[k, i, j]) % p
        rank = 0
        row = 0
        for col in range(C):
            piv = -1
            for i in range(row, R):
                if M[i, col] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != row:
                for j in range(col, C):
                    tmp = M[row, j]
                    M[row, j] = M[piv, j]
                    M[piv, j] = tmp
            inv = _modinv(M[row, col], p)
            for j in range(col, C):
                M[row, j] = (M[row, j] * inv) % p
            for i in range(row + 1, R):
                f = M[i, col]
                if f != 0:
                    for j in range(col, C):
                        M[i, j] = (M[i, j] - f * M[row, j]) % p
            row += 1
            rank += 1
            if rank == C:
                break
        if rank < C:
            out[n] = 1
    return out


def _oracle(A, B, cand, p):
    # the elimination loop as plain Python, one candidate at a time
    A = np.asarray(A, np.int64) % p
    B = np.asarray(B, np.int64) % p
    return _kernel_flags_loop(A, B, np.asarray(cand, np.int64), p).astype(bool)


def _box(m, box):
    vals = np.arange(-box, box + 1, dtype=np.int64)
    return np.stack(np.meshgrid(*([vals] * m), indexing="ij"), axis=-1).reshape(-1, m)


def _pencil(rng, p, identity=True):
    """Random (A, B, cand) with B[0] = c times a partial permutation.

    A few candidates get a planted kernel: A is chosen so that the system
    at one candidate is a random matrix with a dependent column.
    """
    C = rng.randint(1, 4)
    R = C + rng.randint(0, 3)
    m = rng.randint(1, 3)
    B = np.zeros((m, R, C), np.int64)
    if identity:
        c = rng.randrange(1, p)
        for j, r in enumerate(rng.sample(range(R), C)):
            B[0, r, j] = c
    else:
        B[0] = [[rng.randrange(p) for _ in range(C)] for _ in range(R)]
    for k in range(1, m):
        for _ in range(rng.randint(0, R * C)):
            B[k, rng.randrange(R), rng.randrange(C)] = rng.randrange(p)
    cand = _box(m, 2)
    K = np.array([[rng.randrange(p) for _ in range(C)] for _ in range(R)], np.int64)
    if rng.random() < 0.7:
        w = [rng.randrange(p) for _ in range(C - 1)]
        K[:, C - 1] = sum(wi * K[:, i] for i, wi in enumerate(w)) % p
        g = cand[rng.randrange(len(cand))]
        A = (K + sum(int(g[k]) * B[k] for k in range(m))) % p
    else:
        A = K
    # shuffled order and repeated rows: the filter may not assume a box
    order = [rng.randrange(len(cand)) for _ in range(len(cand) + 10)]
    return A, B, cand[order]


@pytest.mark.parametrize("p", [7, 101, _accel.MOD_P])
def test_filter_matches_elimination_loop_on_random_pencils(p):
    rng = random.Random(f"pencil-{p}")
    kept = 0
    for _ in range(25):
        A, B, cand = _pencil(rng, p)
        want = _oracle(A, B, cand, p)
        got = _accel.darboux_candidate_flags(A, B, cand, p)
        assert got.dtype == bool and got.shape == (len(cand),)
        assert (got == want).all()
        kept += int(want.sum())
    assert kept > 0


@pytest.mark.parametrize("p", [7, 101, _accel.MOD_P])
def test_prefilter_keeps_every_candidate_the_full_test_keeps(p):
    rng = random.Random(f"superset-{p}")
    dropped = 0
    for _ in range(25):
        A, B, cand = _pencil(rng, p)
        pre = _accel.eigen_stages(A % p, B % p, cand, p) != _accel._NO_EIGENVALUE
        full = _oracle(A, B, cand, p)
        assert not (full & ~pre).any()
        dropped += int((~pre).sum())
    assert dropped > 0


def _mm(X, Y, p):
    # matrix product mod p, each product reduced before the sum
    return (X[:, :, None] * Y[None, :, :] % p).sum(axis=1) % p


def _rand(rng, p, rows, cols):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    np.int64).reshape(rows, cols)


def _singular(rng, p, C, nullity):
    """Random C x C matrix mod p with `nullity` planted null vectors, and
    those vectors (random on the first C - nullity coordinates, a unit
    vector on the others)."""
    free = C - nullity
    K = _rand(rng, p, C, C)
    nulls = []
    for n in range(nullity):
        w = _rand(rng, p, free, 1)
        K[:, free + n] = -_mm(K[:, :free], w, p)[:, 0] % p
        null = np.zeros(C, np.int64)
        null[:free], null[free + n] = w[:, 0], 1
        nulls.append(null)
    return K, nulls


def _planted_pencil(rng, p, triangular):
    """Random (A, B, cand, a, b), B[0] = c times a partial permutation, with
    the square block N(g) = A_S - sum_{k>=1} g[k]*B[k]_S planted at the
    candidates a and b, which differ in g[1]: N - a[0]*c*I has a
    two-dimensional kernel at a (N is derogatory there, so its Hessenberg
    form is always reduced), and N - b[0]*c*I has a null vector v at b,
    which the other rows of the system annihilate or not, at random.

    triangular: every N(g) is upper triangular by blocks of s and C - s
    rows, so that N(g) keeps e_1 inside the first s coordinates, and a
    Hessenberg form started from e_1 would always be reduced.
    """
    C = rng.randint(2, 5)
    R = C + rng.randint(1, 2)
    m = rng.randint(2, 3)
    c = rng.randrange(1, p)
    box = _box(m, 2)
    a = box[rng.randrange(len(box))]
    b = a
    while b[1] == a[1]:
        b = box[rng.randrange(len(box))]
    mask = np.ones((C, C), np.int64)
    if triangular:
        s = rng.randint(1, C - 1)
        mask[s:, :s] = 0
        # [[X, X W], [0, Z]] has the null vectors (x, 0) and (-W z, z)
        X, _ = _singular(rng, p, s, 1)
        Z, _ = _singular(rng, p, C - s, 1)
        K1 = np.zeros((C, C), np.int64)
        K1[:s, :s], K1[:s, s:], K1[s:, s:] = X, _mm(X, _rand(rng, p, s, C - s), p), Z
        K2 = _rand(rng, p, C, C) * mask
        K2[:s, :s], (x,) = _singular(rng, p, s, 1)
        v = np.zeros(C, np.int64)
        v[:s] = x
    else:
        K1, _ = _singular(rng, p, C, 2)
        K2, (v,) = _singular(rng, p, C, 1)
    eye = np.eye(C, dtype=np.int64)
    D1 = (K1 + int(a[0]) * c * eye) % p
    D2 = (K2 + int(b[0]) * c * eye) % p
    # N(a) = D1 and N(b) = D2 fix B[1] and A on the rows S
    BS = np.zeros((m, C, C), np.int64)
    for k in range(2, m):
        BS[k] = _rand(rng, p, C, C) * mask
    diff = (D1 - D2 + sum(int(a[k] - b[k]) * BS[k] for k in range(2, m))) % p
    BS[1] = -diff * _modinv(int(a[1] - b[1]), p) % p
    AS = (D1 + sum(int(a[k]) * BS[k] % p for k in range(1, m))) % p
    rows = rng.sample(range(R), C)
    rest = [i for i in range(R) if i not in rows]
    A = np.zeros((R, C), np.int64)
    B = np.zeros((m, R, C), np.int64)
    B[0, rows, range(C)] = c
    B[1:, rows] = BS[1:]
    for k in range(1, m):
        B[k, rest] = _rand(rng, p, R - C, C)
    W = _rand(rng, p, R - C, C)
    if rng.random() < 0.5:
        # rows with W v = 0: v is a kernel vector of the system at b
        j = int(np.flatnonzero(v)[0])
        others = _mm(np.delete(W, j, axis=1), np.delete(v, j)[:, None], p)[:, 0]
        W[:, j] = -others * _modinv(int(v[j]), p) % p
    A[rows] = AS
    A[rest] = (W + sum(int(b[k]) * B[k, rest] % p for k in range(1, m))) % p
    # every candidate in shuffled order, some repeated
    order = rng.sample(range(len(box)), len(box))
    order += [rng.randrange(len(box)) for _ in range(10)]
    return A, B, box[order], a, b


@pytest.mark.parametrize("triangular", [False, True])
@pytest.mark.parametrize("p", [7, 101, _accel.MOD_P])
def test_filter_matches_elimination_loop_on_planted_pencils(p, triangular):
    rng = random.Random(f"planted-{p}-{triangular}")
    seen = np.zeros(4, np.int64)
    kept = np.zeros(4, np.int64)
    for _ in range(25):
        A, B, cand, a, b = _planted_pencil(rng, p, triangular)
        want = _oracle(A, B, cand, p)
        assert (_accel.darboux_candidate_flags(A, B, cand, p) == want).all()
        stage = _accel.eigen_stages(A % p, B % p, cand, p)
        # a derogatory block has no unreduced Hessenberg form
        assert (stage[(cand == a).all(axis=1)] == _accel._REDUCED).all()
        seen += np.bincount(stage, minlength=4)
        kept += np.bincount(stage[want], minlength=4)
    assert kept[_accel._NO_EIGENVALUE] == kept[_accel._NOT_ANNIHILATED] == 0
    # the full rank fallback and the eigenvector test each kept some
    # candidates and dropped others
    assert 0 < kept[_accel._REDUCED] < seen[_accel._REDUCED]
    assert kept[_accel._ANNIHILATED] > 0 and seen[_accel._NOT_ANNIHILATED] > 0


def test_pencil_without_identity_block_runs_the_full_test():
    p = 101
    rng = random.Random("dense")
    for _ in range(10):
        A, B, cand = _pencil(rng, p, identity=False)
        assert _accel._identity_rows(B[0]) is None
        assert (_accel.eigen_stages(A % p, B % p, cand, p)
                != _accel._NO_EIGENVALUE).all()
        assert (_accel.darboux_candidate_flags(A, B, cand, p)
                == _oracle(A, B, cand, p)).all()
    # the all-zero warm-up pencil, and a pencil with no cofactor at all
    a = np.zeros((2, 2), np.int64)
    assert _accel.darboux_candidate_flags(a, np.zeros((1, 2, 2), np.int64),
                                          np.zeros((1, 1), np.int64)).tolist() == [True]
    eye = np.eye(2, dtype=np.int64)
    assert _accel.darboux_candidate_flags(eye, np.zeros((0, 2, 2), np.int64),
                                          np.zeros((1, 0), np.int64)).tolist() == [False]


def test_hessenberg_characteristic_polynomial_against_sympy():
    p = 101
    rng = np.random.default_rng(5)
    lams = np.arange(0, p, 9, dtype=np.int64)
    for C in range(1, 6):
        H = rng.integers(0, 3, size=(6, C, C)).astype(np.int64)
        H[0] = 0
        H[1, :, 0] = 0     # no pivot in the first column
        dets = _accel._charpoly_hessenberg(_accel._hessenberg_mod(H.copy(), p), lams, p)
        for n in range(len(H)):
            lam = sympy.Symbol("lam")
            cp = sympy.Matrix(H[n].tolist()).charpoly(lam).as_expr()
            want = [int(cp.subs(lam, int(v))) % p for v in lams]
            assert dets[n].tolist() == want


def test_filter_logs_its_stage_counts(caplog):
    inst = catalog.instantiate("S2", {"alpha": F(1, 2)})
    with caplog.at_level(logging.DEBUG, logger="painlevekit"):
        certs = darboux_search(inst.derivation, SearchBounds(2, 1, 2))
    records = [r for r in caplog.records if r.msg.startswith("darboux filter")]
    assert len(records) == 1
    candidates, prefiltered, full = records[0].args
    assert candidates == 5 ** 6
    assert candidates >= prefiltered >= full >= len(certs) == 1


def test_filter_logs_how_each_survivor_was_decided(caplog):
    # at alpha = -1/2 some square blocks are derogatory, so the full rank
    # test decides a share of the survivors
    inst = catalog.instantiate("S2", {"alpha": F(-1, 2)})
    with caplog.at_level(logging.DEBUG, logger="painlevekit"):
        darboux_search(inst.derivation, SearchBounds(2, 1, 2))
    [stages] = [r.args for r in caplog.records if r.msg.startswith("darboux filter")]
    [survivors] = [r.args for r in caplog.records if r.msg.startswith("darboux survivors")]
    by_eigenvector, by_full_rank = survivors
    assert by_eigenvector > 0 and by_full_rank > 0
    assert by_eigenvector + by_full_rank == stages[1]


def test_filter_logs_nothing_above_debug(caplog):
    inst = catalog.instantiate("S2", {"alpha": F(-1, 2)})
    with caplog.at_level(logging.INFO, logger="painlevekit"):
        darboux_search(inst.derivation, SearchBounds(1, 0, 1))
    assert not caplog.records


def test_import_leaves_logging_unloaded():
    # the stage-count record costs nothing, not even an import, until an
    # application loads logging to configure it; numba is no dependency
    code = ("import sys, painlevekit.cli; "
            "print([m for m in ('logging', 'numba') if m in sys.modules])")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_search_leaves_numpy_ma_unloaded():
    # numpy.ma costs several milliseconds of import in every command-line
    # process; np.unique without return arguments would load it
    code = ("import sys; from fractions import Fraction as F; "
            "from painlevekit import catalog; "
            "from painlevekit.dvariety import SearchBounds, darboux_search; "
            "inst = catalog.instantiate('S2', {'alpha': F(-1, 2)}); "
            "darboux_search(inst.derivation, SearchBounds(1, 0, 1)); "
            "print('numpy.ma' in sys.modules)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# Certificate lists of the search with the full rank test alone, as
# (str(P), str(G)) in result order.
_S4_CURVES = [("x*y - y^2 + (-2*t)*y - 2", "x - 2*y + (-2*t)"),
              ("x^2 - x*y + (-2*t)*x - 2", "-2*x + y + (2*t)")]


@pytest.mark.parametrize("family, params, want", [
    ("S2", {"alpha": F(1, 2)}, [("y^2 - 1/2*x + (1/2*t)", "-2*y")]),
    ("S2", {"alpha": F(-1, 2)}, [("x", "2*y")]),
    ("S2", {"alpha": F(1, 3)}, []),
    ("S4", {"v1": F(0), "v2": F(1), "v3": F(-1)}, _S4_CURVES),
])
def test_search_results_unchanged_at_box_three(family, params, want):
    inst = catalog.instantiate(family, params)
    certs = darboux_search(inst.derivation, SearchBounds(2, 1, 3))
    assert [(str(c.P), str(c.G)) for c in certs] == want


# ---------------------------------------------------------------------------
# generated right-hand side


def _rhs_loop(ex, co, de, x, y, t):
    # the right-hand side as dopri5 once evaluated it, on numpy scalars
    # read from the compiled system's tuples packed into arrays
    ex = np.array(ex, np.int64).reshape(-1, 3)
    co = np.array(co, np.complex128)
    de = np.array(de, np.complex128)
    num = 0j
    for n in range(ex.shape[0]):
        term = co[n]
        for z, k in ((x, ex[n, 0]), (y, ex[n, 1]), (t, ex[n, 2])):
            p = 1 + 0j
            for _ in range(k):
                p *= z
            term = term * p
        num += term
    den = 0j
    for c in de[::-1]:
        den = den * t + c
    return num / den


def _bits(z):
    return np.array([complex(z)]).view(np.uint64).tolist()


_SYSTEMS = [("S2", {"alpha": F(1, 3)}), ("P1", {}),
            ("S4", {"v1": F(1, 3), "v2": F(-2, 5), "v3": F(1, 15)}),
            ("S3prime", {"v1": F(1, 3), "v2": F(1, 5)}),
            ("S6", {"a1": F(1, 3), "a2": F(2, 5), "a3": F(3, 7), "a4": F(1, 4)})]


def _systems():
    out = [numint.compile_system(catalog.instantiate(f, p)) for f, p in _SYSTEMS]
    # a denominator of 1 and a cube of x
    fex, fco, gex, gco, _ = out[-1]
    out.append((fex + ((3, 0, 1),), fco + (0.5 - 2j,), gex, gco, (1 + 0j,)))
    return out


@pytest.mark.parametrize("system", range(len(_SYSTEMS) + 1))
def test_generated_rhs_matches_the_numpy_scalar_loop_bit_for_bit(system):
    fex, fco, gex, gco, den = _systems()[system]
    rhs = _accel.compile_rhs(fex, fco, gex, gco, den)
    rng = random.Random(system)
    zeros = (0.0, -0.0)
    for _ in range(3000):
        # signed zeros in the state, as on an invariant line, and no t at
        # a zero of the denominators
        x, y, t = (complex(rng.choice(zeros), rng.choice(zeros)) if rng.random() < 0.15
                   else complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
        t += 0.5 + 0.25j
        f, g = rhs(x, y, t)
        assert _bits(f) == _bits(_rhs_loop(fex, fco, den, x, y, t)), (x, y, t)
        assert _bits(g) == _bits(_rhs_loop(gex, gco, den, x, y, t)), (x, y, t)


_SPECIAL = (0.0, -0.0, 1.0, -2.5, 5e-324, -1e-310, 1e308, -1e308, np.inf, -np.inf, np.nan)


def test_complex_division_is_numpys_on_python_scalars():
    rng = random.Random(3)

    def value():
        r = rng.random()
        if r < 0.2:
            return rng.choice(_SPECIAL)
        return rng.uniform(-1, 1) * 10.0 ** rng.uniform(-300, 300 if r < 0.5 else 3)

    python_differs = 0
    with np.errstate(all="ignore"):
        for _ in range(20000):
            n, d = complex(value(), value()), complex(value(), value())
            want = complex(np.complex128(n) / np.complex128(d))
            got = _accel._cdiv(n, d)
            for a, b in ((got.real, want.real), (got.imag, want.imag)):
                # any nan, as numpy's nan signs are not specified
                assert _bits(a) == _bits(b) or np.isnan(a) and np.isnan(b), (n, d, got, want)
            if d and np.isfinite(want) and n / d != want:
                python_differs += 1
    # the reason _cdiv exists: Python's own complex / rounds otherwise
    assert python_differs > 1000
