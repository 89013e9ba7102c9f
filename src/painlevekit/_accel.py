"""Numeric hot loops: candidate filtering for the Darboux search and the
adaptive Runge-Kutta path integrator.

The candidate filter decides, for each integer cofactor vector g, whether
the system A - sum_k g[k]*B[k] of a Darboux search can have a nonzero
kernel.  It runs in two stages; the exact kernel of the survivors is the
third stage of the search and lives in ``dvariety``:

1. eigenvalue prefilter: the constant cofactor g[0] enters as g[0]*c*I on
   the rows that are P's own monomials, so a kernel forces
   det(N - g[0]*c*I) = 0 mod p for the square block N fixed by the other
   coordinates.  One Hessenberg reduction per distinct prefix g[1:] and a
   characteristic-polynomial recurrence at each g[0] in the box test all
   candidates at once;
2. full mod-p rank: one elimination of the full system per survivor.

Both stages are sound (they drop only candidates whose system has full
rank mod p, hence over Q), and the keep mask equals that of the full rank
test alone.  Both stages are vectorized numpy; the integrator is plain
Python over complex scalars.

``darboux_candidate_flags`` logs its stage counts at DEBUG level on the
``painlevekit`` logger hierarchy.
"""

import sys

import numpy as np

# there is one build; the flag stays for callers that record the backend
HAS_NUMBA = False

# Mersenne prime 2^31 - 1: residues square inside int64
MOD_P = 2_147_483_647


# ---------------------------------------------------------------------------
# full mod-p rank test
#
# For candidate cofactor coefficient vectors g, decide whether the system
# matrix A - sum_k g[k]*B[k] can have a nontrivial rational kernel.  Full
# column rank mod p implies full rank over Q, so rank_p < ncols is a sound
# keep-filter (false positives are removed by the exact stage).


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


def kernel_flags_numpy(A, B, cand, p):
    # vectorized elimination over the candidate axis, chunked for memory
    N, m = cand.shape
    R, C = A.shape
    out = np.zeros(N, np.uint8)
    rr = np.arange(R)
    chunk = 4096
    for s in range(0, N, chunk):
        g = cand[s:s + chunk]
        n = g.shape[0]
        M = (A[None, :, :] - np.tensordot(g, B, axes=(1, 0))) % p
        rank = np.zeros(n, np.int64)
        row = np.zeros(n, np.int64)
        for col in range(C):
            colv = M[:, :, col]
            avail = (rr[None, :] >= row[:, None]) & (colv != 0)
            has = avail.any(axis=1)
            ns = np.nonzero(has)[0]
            if ns.size == 0:
                continue
            k = ns.size
            Mi = M[ns]
            piv = np.argmax(avail[ns], axis=1)
            r0 = row[ns]
            ar = np.arange(k)
            tmp = Mi[ar, r0].copy()
            Mi[ar, r0] = Mi[ar, piv]
            Mi[ar, piv] = tmp
            pivrow = Mi[ar, r0]
            inv = _modinv_vec(pivrow[:, col], p)
            pivrow = (pivrow * inv[:, None]) % p
            Mi[ar, r0] = pivrow
            below = rr[None, :] > r0[:, None]
            fact = np.where(below, Mi[:, :, col], 0)
            Mi = (Mi - fact[:, :, None] * pivrow[:, None, :]) % p
            M[ns] = Mi
            row[ns] += 1
            rank[ns] += 1
        out[s:s + chunk] = rank < C
    return out


# ---------------------------------------------------------------------------
# eigenvalue prefilter
#
# When B[0] is c times a partial permutation (one nonzero per column, in
# distinct rows S), the rows S of the system read N - g[0]*c*I with
# N = A_S - sum_{k>=1} g[k]*B[k]_S square.  Full rank of that block implies
# full rank of the system, so det(N - g[0]*c*I) = 0 mod p is a sound
# keep-filter.  Every product below is of two residues, inside int64.


def _identity_rows(B0):
    """(rows S, c) when B0[S[j], j] = c != 0 is each column's only nonzero."""
    C = B0.shape[1]
    nz = B0 != 0
    if C == 0 or not (nz.sum(axis=0) == 1).all():
        return None
    rows = np.argmax(nz, axis=0)
    vals = B0[rows, np.arange(C)]
    if not (vals == vals[0]).all() or np.unique(rows).size != C:
        return None
    return rows, int(vals[0])


def _hessenberg_mod(H, p):
    """Reduce each H[n] in place to upper Hessenberg form by similarity."""
    C = H.shape[1]
    for j in range(C - 2):
        nzb = H[:, j + 1:, j] != 0
        piv = j + 1 + np.argmax(nzb, axis=1)
        s = np.nonzero(piv != j + 1)[0]
        if s.size:
            # swap rows and columns j+1 and piv: a permutation similarity
            r = piv[s]
            rows = H[s, j + 1].copy()
            H[s, j + 1] = H[s, r]
            H[s, r] = rows
            cols = H[s, :, j + 1].copy()
            H[s, :, j + 1] = H[s, :, r]
            H[s, :, r] = cols
        # without a pivot the column is already reduced: inv(0) = 0, f = 0
        inv = _modinv_vec(H[:, j + 1, j], p)
        f = (H[:, j + 2:, j] * inv[:, None]) % p
        # rows i >= j+2 lose f_i * row j+1; column j+1 gains f_i * column i
        H[:, j + 2:, j:] = (H[:, j + 2:, j:]
                            - f[:, :, None] * H[:, j + 1, None, j:]) % p
        H[:, :, j + 1] = (H[:, :, j + 1]
                          + ((H[:, :, j + 2:] * f[:, None, :]) % p).sum(axis=2)) % p
    return H


def _charpoly_hessenberg(H, lams, p):
    """det(lam*I - H[n]) mod p for upper Hessenberg H[n], shape (n, len(lams))."""
    n, C, _ = H.shape
    # P[:, :, k] = det of the leading k x k block of lam*I - H
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


def _distinct_rows(X):
    """(distinct rows in lexicographic order, index of each row among them).

    Same result as np.unique(X, axis=0, return_inverse=True), built from
    one-dimensional uniques, which sort integers instead of row records.
    """
    key = np.zeros(len(X), np.int64)
    for col in X.T:
        vals, idx = np.unique(col, return_inverse=True)
        # re-rank after each column so the key stays below len(X)
        key = np.unique(key * len(vals) + idx, return_inverse=True)[1]
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return X[first], inv


def eigen_prefilter(A, B, cand, p):
    """Keep-mask that contains the full rank test's; all True without an
    identity block in B[0].  Inputs reduced mod p as in the full test.

    Prefixes are processed in chunks of 1024, about 1.2 MB per chunk for a
    12 x 12 block, so no candidate-sized array of matrices is built.
    """
    N, m = cand.shape
    block = _identity_rows(B[0]) if m else None
    if block is None:
        return np.ones(N, bool)
    rows, c = block
    g0, g0_idx = np.unique(cand[:, 0], return_inverse=True)
    prefixes, pre_idx = _distinct_rows(cand[:, 1:])
    lams = (g0 % p) * c % p
    prefixes = prefixes % p
    AS = A[rows]
    BS = B[1:, rows]
    dets = np.empty((len(prefixes), g0.size), np.int64)
    chunk = 1024
    for s in range(0, len(prefixes), chunk):
        g = prefixes[s:s + chunk]
        H = np.broadcast_to(AS, (len(g),) + AS.shape).copy()
        for k in range(m - 1):
            H = (H - g[:, k, None, None] * BS[k]) % p
        dets[s:s + chunk] = _charpoly_hessenberg(_hessenberg_mod(H, p), lams, p)
    return dets[pre_idx, g0_idx] == 0


def darboux_candidate_flags(A, B, cand, p=MOD_P):
    """Boolean keep-mask over cofactor candidates (nontrivial kernel mod p).

    The eigenvalue prefilter narrows the candidates; the full rank test
    decides on the survivors alone.
    """
    A = np.asarray(A, np.int64) % p
    B = np.asarray(B, np.int64) % p
    cand = np.asarray(cand, np.int64)
    pre = np.nonzero(eigen_prefilter(A, B, cand, p))[0]
    flags = np.zeros(len(cand), bool)
    flags[pre] = kernel_flags_numpy(A, B, cand[pre], p).astype(bool)
    # a DEBUG record can only be wanted once logging has been imported to
    # configure it; importing it here would cost every process start-up
    logging = sys.modules.get("logging")
    if logging is not None:
        log = logging.getLogger(__name__)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("darboux filter: %d candidates, %d after eigenvalue "
                      "prefilter, %d after full rank", len(cand), len(pre),
                      int(flags.sum()))
    return flags


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) along a polyline in the complex t-plane
#
# Each right-hand-side component is N(x, y, t)/D(t) with N a sparse
# monomial sum (integer exponent triples, complex coefficients) and D a
# dense polynomial in t (coefficients ascending).  The path is
# parametrized by arclength; within a segment dt/dsigma is the constant
# unit direction.

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# fifth-order minus embedded fourth-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

STATUS_COMPLETED = 0
STATUS_POLE = 1
STATUS_ABORTED = 2


def _cpow(z, k):
    out = 1 + 0j
    for _ in range(k):
        out *= z
    return out


def _eval_rhs(ex, co, de, x, y, t):
    num = 0j
    for n in range(ex.shape[0]):
        num += co[n] * _cpow(x, ex[n, 0]) * _cpow(y, ex[n, 1]) * _cpow(t, ex[n, 2])
    den = 0j
    for i in range(de.shape[0] - 1, -1, -1):
        den = den * t + de[i]
    return num / den


def _dopri5_core(fex, fco, fde, gex, gco, gde, wps, y0, x0, tol,
                 blowup, hfloor, maxsteps):
    nseg = wps.shape[0] - 1
    t = wps[0]
    y = y0
    x = x0
    ts, ys, xs = [t], [y], [x]
    status = STATUS_COMPLETED
    t_est = t
    steps = 0
    for seg in range(nseg):
        a = wps[seg]
        b = wps[seg + 1]
        seglen = abs(b - a)
        u = (b - a) / seglen
        sigma = 0.0
        h = seglen * 1e-3
        if h > 1e-2:
            h = 1e-2
        # first stage recomputed per segment: the direction changed
        k1y = u * _eval_rhs(fex, fco, fde, x, y, t)
        k1x = u * _eval_rhs(gex, gco, gde, x, y, t)
        while sigma < seglen:
            if steps >= maxsteps:
                return ts, ys, xs, STATUS_ABORTED, t
            steps += 1
            if h > seglen - sigma:
                h = seglen - sigma
            t2 = t + _C2 * h * u
            y2 = y + h * (_A21 * k1y)
            x2 = x + h * (_A21 * k1x)
            k2y = u * _eval_rhs(fex, fco, fde, x2, y2, t2)
            k2x = u * _eval_rhs(gex, gco, gde, x2, y2, t2)
            t3 = t + _C3 * h * u
            y3 = y + h * (_A31 * k1y + _A32 * k2y)
            x3 = x + h * (_A31 * k1x + _A32 * k2x)
            k3y = u * _eval_rhs(fex, fco, fde, x3, y3, t3)
            k3x = u * _eval_rhs(gex, gco, gde, x3, y3, t3)
            t4 = t + _C4 * h * u
            y4 = y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y)
            x4 = x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
            k4y = u * _eval_rhs(fex, fco, fde, x4, y4, t4)
            k4x = u * _eval_rhs(gex, gco, gde, x4, y4, t4)
            t5 = t + _C5 * h * u
            y5 = y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y)
            x5 = x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
            k5y = u * _eval_rhs(fex, fco, fde, x5, y5, t5)
            k5x = u * _eval_rhs(gex, gco, gde, x5, y5, t5)
            t6 = t + h * u
            y6 = y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y
                          + _A64 * k4y + _A65 * k5y)
            x6 = x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x
                          + _A64 * k4x + _A65 * k5x)
            k6y = u * _eval_rhs(fex, fco, fde, x6, y6, t6)
            k6x = u * _eval_rhs(gex, gco, gde, x6, y6, t6)
            t7 = t + h * u
            y7 = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
            x7 = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
            k7y = u * _eval_rhs(fex, fco, fde, x7, y7, t7)
            k7x = u * _eval_rhs(gex, gco, gde, x7, y7, t7)
            erry = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y
                        + _E6 * k6y + _E7 * k7y)
            errx = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x
                        + _E6 * k6x + _E7 * k7x)
            sy = tol * (1.0 + abs(y))
            sx = tol * (1.0 + abs(x))
            err = np.sqrt(0.5 * ((abs(erry) / sy) ** 2 + (abs(errx) / sx) ** 2))
            bad = (np.isnan(err) or np.isinf(err)
                   or np.isnan(abs(y7)) or np.isinf(abs(y7))
                   or np.isnan(abs(x7)) or np.isinf(abs(x7)))
            if not bad and err <= 1.0:
                sigma += h
                t = t7
                y = y7
                x = x7
                k1y = k7y
                k1x = k7x
                ts.append(t)
                ys.append(y)
                xs.append(x)
            if bad:
                fac = 0.2
            elif err == 0.0:
                fac = 5.0   # the clamp's value, without a zero to a negative power
            else:
                fac = 0.9 * err ** -0.2
                if fac < 0.2:
                    fac = 0.2
                elif fac > 5.0:
                    fac = 5.0
            h = h * fac
            if h < hfloor and sigma < seglen:
                if abs(y) > blowup or abs(x) > blowup or bad:
                    status = STATUS_POLE
                else:
                    status = STATUS_ABORTED
                return ts, ys, xs, status, t
    return ts, ys, xs, status, t_est


def dopri5_path(fex, fco, fde, gex, gco, gde, wps, y0, x0, tol,
                blowup=1e8, hfloor=1e-12, maxsteps=200_000):
    """Integrate along the polyline; returns (t, y, x lists, status, t_est)."""
    fex = np.asarray(fex, np.int64).reshape(-1, 3)
    gex = np.asarray(gex, np.int64).reshape(-1, 3)
    fco = np.asarray(fco, np.complex128)
    gco = np.asarray(gco, np.complex128)
    fde = np.asarray(fde, np.complex128)
    gde = np.asarray(gde, np.complex128)
    wps = np.asarray(wps, np.complex128)
    return _dopri5_core(fex, fco, fde, gex, gco, gde, wps,
                        complex(y0), complex(x0), float(tol),
                        float(blowup), float(hfloor), int(maxsteps))
