"""The modular arithmetic of the Darboux candidate filter: the batch
inversion against Python's modular inverse, the split matrix product at
its stated bound, and the Hessenberg reduction and characteristic
polynomial against the Fermat-powering versions they replaced, kept here
as the reference and required to agree bit for bit."""

import hashlib
from fractions import Fraction as F

import numpy as np
import pytest

from painlevekit import _accel, catalog
from painlevekit.dvariety import SearchBounds, darboux_search

PRIMES = [7, 101, _accel.MOD_P]


def _modinv_vec(a, p):
    # a^(p-2) mod p by binary powering; entries stay below p^2 < 2^63
    result = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            result = (result * base) % p
        base = (base * base) % p
        e >>= 1
    return result


def _hessenberg_loop(H, p, steps):
    # the reduction as it was before the batch inversion and split product
    C = H.shape[1]
    for j in range(C - 2):
        nzb = H[:, j + 1:, j] != 0
        piv = j + 1 + np.argmax(nzb, axis=1)
        s = np.nonzero(piv != j + 1)[0]
        if s.size:
            r = piv[s]
            rows = H[s, j + 1].copy()
            H[s, j + 1] = H[s, r]
            H[s, r] = rows
            cols = H[s, :, j + 1].copy()
            H[s, :, j + 1] = H[s, :, r]
            H[s, :, r] = cols
        inv = _modinv_vec(H[:, j + 1, j], p)
        f = (H[:, j + 2:, j] * inv[:, None]) % p
        H[:, j + 2:, j:] = (H[:, j + 2:, j:]
                            - f[:, :, None] * H[:, j + 1, None, j:]) % p
        H[:, :, j + 1] = (H[:, :, j + 1]
                          + ((H[:, :, j + 2:] * f[:, None, :]) % p).sum(axis=2)) % p
        steps.append((piv, f))
    return H


def _charpoly_loop(H, lams, p):
    # the characteristic polynomial recurrence, one term at a time
    n, C, _ = H.shape
    P = np.empty((n, lams.size, C + 1), np.int64)
    P[:, :, 0] = 1
    for k in range(1, C + 1):
        acc = ((lams[None, :] - H[:, k - 1, k - 1, None]) % p * P[:, :, k - 1]) % p
        sub = np.ones(n, np.int64)
        for i in range(k - 1, 0, -1):
            sub = (sub * H[:, i, i - 1]) % p
            coef = (H[:, i - 1, k - 1] * sub) % p
            acc = (acc - coef[:, None] * P[:, :, i - 1]) % p
        P[:, :, k] = acc
    return P[:, :, C]


def _matrices(rng, p, C, n=48):
    """Residue matrices that reach every branch of the reduction: dense
    and sparse ones, columns with no pivot below the diagonal, pivots found
    only after a swap, and entries of p - 1."""
    H = rng.integers(0, p, size=(n, C, C))
    H[n // 4:n // 2][rng.random((n // 4, C, C)) < 0.7] = 0
    H[n // 2:3 * n // 4] = p - 1
    for m in range(n):
        if C > 2 and m % 3 == 0:
            j = int(rng.integers(0, C - 2))
            H[m, j + 1:, j] = 0
        if C > 3 and m % 3 == 1:
            H[m, 1, 0] = 0
        if m % 5 == 0:
            H[m][rng.random((C, C)) < 0.5] = p - 1
    return H


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("size", [0, 1, 2, 3, 1025])
def test_batch_inversion_matches_python_modular_inverse(p, size):
    rng = np.random.default_rng(size)
    a = rng.integers(0, p, size=size)
    a[::7] = 0
    a[1::11] = p - 1
    got = _accel._inverse_mod(a, p)
    assert got.dtype == np.int64 and got.shape == a.shape
    want = [pow(int(x), -1, p) if x else 0 for x in a]
    assert got.tolist() == want


@pytest.mark.parametrize("p", PRIMES)
def test_batch_inversion_of_zeros_only(p):
    assert _accel._inverse_mod(np.zeros(5, np.int64), p).tolist() == [0] * 5


@pytest.mark.parametrize("p", PRIMES)
def test_split_product_at_its_column_bound(p):
    # 2^14 columns of p - 1 times p - 1: the largest sum the bound admits
    cols = 2 ** 14
    X = np.full((2, 3, cols), p - 1, np.int64)
    v = np.full((2, cols), p - 1, np.int64)
    X[1, 1, ::3] = 0
    v[1, 1::5] = 1
    got = _accel._split_matvec(X, v, p)
    want = [[sum(int(a) * int(b) for a, b in zip(row, v[n])) % p for row in X[n]]
            for n in range(2)]
    assert (got >= 0).all() and (got < 2 ** 62).all()
    assert (got % p).tolist() == want


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("C", range(1, 15))
def test_hessenberg_reduction_matches_fermat_reference(p, C):
    rng = np.random.default_rng(1000 * C + p % 1000)
    H = _matrices(rng, p, C)
    want_steps, got_steps = [], []
    want = _hessenberg_loop(H.copy(), p, want_steps)
    got = _accel._hessenberg_mod(H.copy(), p, got_steps)
    assert got.dtype == want.dtype and (got == want).all()
    assert len(got_steps) == len(want_steps) == max(C - 2, 0)
    for (gp, gf), (wp, wf) in zip(got_steps, want_steps):
        assert gp.tolist() == wp.tolist()
        assert gf.dtype == wf.dtype and gf.tolist() == wf.tolist()
    if C > 2:
        # some column had no pivot, and some pivot needed a swap
        assert any((f == 0).all(axis=1).any() for _, f in want_steps)
        assert any((piv != j + 1).any() for j, (piv, _) in enumerate(want_steps))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("C", range(1, 15))
def test_characteristic_polynomial_matches_term_loop(p, C):
    rng = np.random.default_rng(2000 * C + p % 1000)
    H = _hessenberg_loop(_matrices(rng, p, C), p, [])
    lams = np.concatenate([[0, 1, p - 1], rng.integers(0, p, size=4)])
    assert (_accel._charpoly_hessenberg(H, lams, p)
            == _charpoly_loop(H, lams, p)).all()


# SHA-256 (first 16 hex digits) of the stage array of each filter call of
# darboux_search at SearchBounds(2, 1, 2), as computed with the reduction
# above; tools/stage_digests.py prints the same digests for whole rounds
_STAGE_DIGESTS = [
    ("S2", {"alpha": "1/2"}, "e5f70260981598b4"),
    ("S2", {"alpha": "-1/2"}, "5cc59a8c40f3c9d9"),
    ("P1", {}, "583febce194fc200"),
    ("S4", {"v1": "0", "v2": "1", "v3": "-1"}, "81c38ab5522e992b"),
]


@pytest.mark.parametrize("family, params, want", _STAGE_DIGESTS)
def test_search_stages_unchanged(monkeypatch, family, params, want):
    stages = []
    eigen_stages = _accel.eigen_stages

    def recorded(A, B, cand, p):
        out = eigen_stages(A, B, cand, p)
        stages.append(out)
        return out

    monkeypatch.setattr(_accel, "eigen_stages", recorded)
    inst = catalog.instantiate(family, {k: F(v) for k, v in params.items()})
    darboux_search(inst.derivation, SearchBounds(2, 1, 2))
    assert [hashlib.sha256(s.tobytes()).hexdigest()[:16] for s in stages] == [want]
