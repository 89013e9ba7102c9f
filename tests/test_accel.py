"""The Darboux candidate filter: parity with the plain elimination loop
kept here as the reference, soundness of the eigenvalue prefilter, stage
counts and search results."""

import logging
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from painlevekit import _accel, catalog
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
        pre = _accel.eigen_prefilter(A % p, B % p, cand, p)
        full = _oracle(A, B, cand, p)
        assert not (full & ~pre).any()
        dropped += int((~pre).sum())
    assert dropped > 0


def test_pencil_without_identity_block_runs_the_full_test():
    p = 101
    rng = random.Random("dense")
    for _ in range(10):
        A, B, cand = _pencil(rng, p, identity=False)
        assert _accel._identity_rows(B[0]) is None
        assert _accel.eigen_prefilter(A % p, B % p, cand, p).all()
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
