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
2. eigenvector, with full rank as fallback: where the Hessenberg form of
   N is unreduced, each eigenvalue has a one-dimensional eigenspace.  Its
   eigenvector, found by back substitution and carried back through the
   recorded reduction, decides the survivor by one product with the whole
   system.  Where the form is reduced (N derogatory, or the fixed start
   vector of the reduction unlucky), one elimination of the full system
   mod p decides instead.

Both stages are sound (they drop only candidates whose system has full
rank mod p, hence over Q), and the keep mask equals that of the full rank
test alone.  Both stages are vectorized numpy on int64 residues.  The
pivots of each column are inverted together, by one batch inversion
(Montgomery's trick), and the sums of products in the reduction and in the
characteristic polynomial are integer matrix products over 16-bit halves,
reduced once per result.  The filter is the only part of this module that
computes on arrays, and its functions import numpy when they run: importing
the module, compiling a system and integrating it leave numpy unloaded.

The integrator is Dormand-Prince 5(4) on Python complex and float
scalars, and takes the system and the waypoints as plain sequences.  It
reports how a run ended by the labels COMPLETED, POLE_DETECTED and
SINGULARITY_ABORTED, which ``numint.Trajectory.status`` carries as they
are.
``compile_rhs`` turns the compiled system into the source of one
straight-line function that returns both right-hand-side components,
computes each power of x, y and t once, and binds the coefficients by name
in its namespace; ``exec`` compiles it once per instance, since
``numint.integrate`` keeps the function on the instance and hands it to
every ``dopri5_path`` call.  The loop keeps the operation order it had
when it ran on numpy scalars, so trajectories are bit for bit what they
were.  Python's complex ``*`` and ``+`` round as numpy's scalar ones do;
the tableau and the step enter as complex numbers, so that no float meets
a complex stage value (numpy multiplied those as complex, Python 3.14
multiplies them part by part).  ``r ** 2`` and ``err ** -0.2`` call the
same libm ``pow``.  Python's complex ``/`` does not: numpy divides by
Smith's method scaled by a reciprocal, so the quotient by a
denominator in t, and the unit direction of each segment, are computed by
that formula (``_cdiv``).  Where numpy returned inf or nan, Python raises
(float division by zero, ``abs`` or ``**`` past the float range); the loop
catches those cases and carries on with the value numpy had, so a huge or
non-finite state ends in a pole or an abort, never in a warning.  An error
estimate past the float range, at a tolerance no step can meet, rejects
the step like any other; the run ends in an abort, not a pole.

``darboux_candidate_flags`` logs two DEBUG records on the ``painlevekit``
logger hierarchy: the candidates left after each stage, and how many
survivors the eigenvector and the full rank test each decided.
"""

import math
import sys

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


def _inverse_mod(a, p):
    """a^-1 mod p for each residue of the vector a, and 0 for 0.

    Montgomery's batch inversion over a product tree: pairwise products
    up to the root, one Fermat power of the root, and back down, where
    each child's inverse is its parent's times its sibling.  Every product
    is of two residues, inside int64.
    """
    import numpy as np
    nz = a != 0
    x = np.where(nz, a, 1)
    levels = []
    while x.size > 1:
        if x.size % 2:
            x = np.append(x, 1)
        levels.append(x)
        x = x[0::2] * x[1::2] % p
    # the root's inverse; x is empty for an empty a
    inv = np.array([pow(int(r), p - 2, p) for r in x], np.int64)
    for x in reversed(levels):
        # the parents of x, without the padding one of its own level added
        inv = inv[:x.size // 2]
        down = np.empty_like(x)
        down[0::2] = inv * x[1::2] % p
        down[1::2] = inv * x[0::2] % p
        inv = down
    return np.where(nz, inv[:a.size], 0)


def _split_matvec(X, v, p):
    """X[n] @ v[n] for residues below p < 2^31, congruent mod p but not
    reduced: below 2^62 when X has at most 2^14 columns.

    v is split into its 16-bit halves.  Each product with a half is below
    2^31 * 2^16 = 2^47, so a sum of at most 2^14 of them is below 2^61,
    and only the (n, rows) sum of the high halves is reduced before its
    shift.
    """
    import numpy as np
    s = X @ np.stack([v >> 16, v & 0xFFFF], axis=2)
    return (s[:, :, 0] % p << 16) + s[:, :, 1]


def kernel_flags_numpy(A, B, cand, p):
    # vectorized elimination over the candidate axis, chunked for memory
    import numpy as np
    N, m = cand.shape
    R, C = A.shape
    out = np.zeros(N, np.uint8)
    rr = np.arange(R)
    chunk = 4096
    for s in range(0, N, chunk):
        g = cand[s:s + chunk]
        n = g.shape[0]
        M = (A[None, :, :] - np.tensordot(g, B, axes=(1, 0))) % p
        row = np.zeros(n, np.int64)  # pivots placed so far: the rank
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
            inv = _inverse_mod(pivrow[:, col], p)
            pivrow = (pivrow * inv[:, None]) % p
            Mi[ar, r0] = pivrow
            below = rr[None, :] > r0[:, None]
            fact = np.where(below, Mi[:, :, col], 0)
            Mi = (Mi - fact[:, :, None] * pivrow[:, None, :]) % p
            M[ns] = Mi
            row[ns] += 1
        out[s:s + chunk] = row < C
    return out


# ---------------------------------------------------------------------------
# eigenvalue prefilter and eigenvector test
#
# When B[0] is c times a partial permutation (one nonzero per column, in
# distinct rows S), the rows S of the system read N - lam*I with
# lam = g[0]*c and N = A_S - sum_{k>=1} g[k]*B[k]_S square.  Full rank of
# that block implies full rank of the system, so det(N - lam*I) = 0 mod p
# is a sound keep-filter.  Every kernel vector of the system lies in
# ker(N - lam*I).  When the Hessenberg form of N is unreduced (no
# subdiagonal entry is 0 mod p), H - lam*I has rank at least C - 1, so at
# an eigenvalue that kernel is the line of one eigenvector v, and the
# system has a kernel exactly when it annihilates v.  Every product below
# is of two residues, inside int64.

# stage of each candidate: dropped by its eigenvalue, dropped or kept by
# its eigenvector, or left to the full rank test (reduced Hessenberg form)
_NO_EIGENVALUE, _NOT_ANNIHILATED, _ANNIHILATED, _REDUCED = range(4)


def _identity_rows(B0):
    """(rows S, c) when B0[S[j], j] = c != 0 is each column's only nonzero."""
    import numpy as np
    C = B0.shape[1]
    nz = B0 != 0
    if C == 0 or not (nz.sum(axis=0) == 1).all():
        return None
    rows = np.argmax(nz, axis=0)
    vals = B0[rows, np.arange(C)]
    if not (vals == vals[0]).all() or (np.bincount(rows) > 1).any():
        return None
    return rows, int(vals[0])


def _start_vector(C, p):
    """Fixed r with r[0] = 1 (Park-Miller terms), the vector the reduction
    starts from.  e_1 often lies in a proper invariant subspace of the
    search's sparse blocks, and a Hessenberg form started from it is then
    reduced."""
    import numpy as np
    return np.array([pow(48271, i, p) for i in range(C)], np.int64)


def _start_similarity(H, r, p):
    """T^-1 H[n] T for T = I + (r - e_1) e_1^T, whose inverse is
    I - (r - e_1) e_1^T: what H[n] does to r, the result does to e_1."""
    H = H.copy()
    H[:, :, 0] = (H[:, :, 0] + ((H[:, :, 1:] * r[1:]) % p).sum(axis=2)) % p
    H[:, 1:, :] = (H[:, 1:, :] - r[1:, None] * H[:, None, 0, :]) % p
    return H


def _hessenberg_mod(H, p, steps=None):
    """Reduce each H[n] in place to upper Hessenberg form by similarity.

    When a list is given, step j appends (piv, f): the index swapped with
    j + 1, and the multipliers of row j + 1 taken from rows j + 2 on.
    """
    import numpy as np
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
        f = H[:, j + 2:, j] * _inverse_mod(H[:, j + 1, j], p)[:, None] % p
        # rows i >= j+2 lose f_i * row j+1
        below = H[:, j + 2:, j:]
        np.subtract(below, f[:, :, None] * H[:, j + 1, None, j:], out=below)
        np.remainder(below, p, out=below)
        # column j+1 gains f_i * column i
        H[:, :, j + 1] = (H[:, :, j + 1] + _split_matvec(H[:, :, j + 2:], f, p)) % p
        if steps is not None:
            steps.append((piv, f))
    return H


def _charpoly_hessenberg(H, lams, p):
    """det(lam*I - H[n]) mod p for upper Hessenberg H[n], shape (n, len(lams))."""
    import numpy as np
    n, C, _ = H.shape
    # P[:, :, k] = det of the leading k x k block of lam*I - H, expanded
    # along its last column: (lam - H[k-1, k-1]) P[k-1] minus, for i < k,
    # H[i-1, k-1] * sub[i-1] * P[i-1], where sub[i-1] is the product of
    # the subdiagonal entries H[i, i-1] ... H[k-1, k-2].  Both terms are
    # below 2^62 in absolute value, so acc is reduced once per k.
    P = np.empty((n, lams.size, C + 1), np.int64)
    P[:, :, 0] = 1
    sub = np.empty((n, 0), np.int64)
    for k in range(1, C + 1):
        acc = (lams - H[:, k - 1, k - 1, None]) * P[:, :, k - 1]
        if k > 1:
            h = H[:, k - 1, k - 2, None]
            sub = np.concatenate([sub * h % p, h], axis=1)
            coef = H[:, :k - 1, k - 1] * sub % p
            acc -= _split_matvec(P[:, :, :k - 1], coef, p)
        P[:, :, k] = acc % p
    return P[:, :, C]


def _eigenvectors(H, lams, steps, r, p):
    """A nonzero v with N v = lam v for each unreduced H = X T^-1 N T X^-1
    at an eigenvalue lam, where X is the product of the recorded steps."""
    import numpy as np
    n, C, _ = H.shape
    ar = np.arange(n)
    w = np.zeros((n, C), np.int64)
    w[:, C - 1] = 1
    # rows C-1, ..., 1 of (H - lam*I) w = 0 fix w[C-2], ..., w[0]; row 0
    # follows, since the determinant is 0.  Scaling w by the subdiagonal
    # entry stands in for dividing by it.
    for i in range(C - 1, 0, -1):
        row = H[:, i, i:].copy()
        row[:, 0] -= lams
        s = ((row % p) * w[:, i:] % p).sum(axis=1)
        w[:, i:] = (w[:, i:] * H[:, i, i - 1, None]) % p
        w[:, i - 1] = -s % p
    # undo the steps, last first, each by the inverse of its elimination
    # (w[i] gains f_i * w[j+1]) and then its swap; last, w <- T w
    for j in range(len(steps) - 1, -1, -1):
        piv, f = steps[j]
        w[:, j + 2:] = (w[:, j + 2:] + f * w[:, j + 1, None]) % p
        top = w[:, j + 1].copy()
        w[:, j + 1] = w[ar, piv]
        w[ar, piv] = top
    w[:, 1:] = (w[:, 1:] + w[:, :1] * r[1:]) % p
    return w


def _system_nonzeros(A, B, p):
    """The nonzeros of A - sum_k g[k]*B[k] sorted by row, as (coefficient
    index: 0 for A, k + 1 for B[k]; column; value; start of each row)."""
    import numpy as np
    mats = np.concatenate([A[None], (-B) % p])
    k, i, j = np.nonzero(mats)
    order = np.argsort(i, kind="stable")
    k, i, j = k[order], i[order], j[order]
    starts = np.flatnonzero(np.diff(i, prepend=-1))
    return k, j, mats[k, i, j], starts


def _annihilated(system, coef, v, p):
    """Whether (A - sum_k g[k]*B[k]) v = 0 mod p, coef rows (1, g) mod p."""
    import numpy as np
    k, j, vals, starts = system
    if not vals.size:
        return np.ones(len(v), bool)
    terms = (coef[:, k] * vals % p) * v[:, j] % p
    return (np.add.reduceat(terms, starts, axis=1) % p == 0).all(axis=1)


def _distinct_rows(X):
    """(distinct rows in lexicographic order, index of each row among them).

    Same result as np.unique(X, axis=0, return_inverse=True), built from
    one-dimensional uniques, which sort integers instead of row records.
    """
    import numpy as np
    key = np.zeros(len(X), np.int64)
    for col in X.T:
        vals, idx = np.unique(col, return_inverse=True)
        # re-rank after each column so the key stays below len(X)
        key = np.unique(key * len(vals) + idx, return_inverse=True)[1]
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return X[first], inv


def eigen_stages(A, B, cand, p):
    """The stage that decides each candidate: ``_NO_EIGENVALUE``,
    ``_NOT_ANNIHILATED``, ``_ANNIHILATED``, or ``_REDUCED`` when only the
    full rank test can; all ``_REDUCED`` without an identity block in
    B[0].  Inputs reduced mod p as in the full test.

    Prefixes are processed in chunks of 1024, about 1.2 MB per chunk for a
    12 x 12 block, so no candidate-sized array of matrices is built.
    """
    import numpy as np
    N, m = cand.shape
    block = _identity_rows(B[0]) if m else None
    if block is None:
        return np.full(N, _REDUCED, np.int8)
    rows, c = block
    g0, g0_idx = np.unique(cand[:, 0], return_inverse=True)
    prefixes, pre_idx = _distinct_rows(cand[:, 1:])
    g0 = g0 % p
    lams = g0 * c % p
    prefixes = prefixes % p
    # the start similarity is linear in the block: apply it to each term
    r = _start_vector(len(rows), p)
    AS = _start_similarity(A[None, rows], r, p)[0]
    # each B[k] of the block by its few nonzeros
    scatter = [(np.nonzero(b), b[np.nonzero(b)])
               for b in _start_similarity(B[1:, rows], r, p)]
    system = _system_nonzeros(A, B, p)
    stages = np.empty((len(prefixes), g0.size), np.int8)
    chunk = 1024
    for s in range(0, len(prefixes), chunk):
        g = prefixes[s:s + chunk]
        H = np.broadcast_to(AS, (len(g),) + AS.shape).copy()
        for k, ((ii, jj), vals) in enumerate(scatter):
            H[:, ii, jj] = (H[:, ii, jj] - g[:, k, None] * vals) % p
        steps = []
        _hessenberg_mod(H, p, steps)
        singular = _charpoly_hessenberg(H, lams, p) == 0
        stage = np.where(singular, _REDUCED, _NO_EIGENVALUE).astype(np.int8)
        unreduced = (np.diagonal(H, -1, 1, 2) != 0).all(axis=1)
        a, b = np.nonzero(singular & unreduced[:, None])
        if a.size:
            v = _eigenvectors(H[a], lams[b], [(piv[a], f[a]) for piv, f in steps], r, p)
            coef = np.column_stack([np.ones(a.size, np.int64), g0[b], g[a]])
            stage[a, b] = np.where(_annihilated(system, coef, v, p),
                                   _ANNIHILATED, _NOT_ANNIHILATED)
        stages[s:s + chunk] = stage
    return stages[pre_idx, g0_idx]


def darboux_candidate_flags(A, B, cand, p=MOD_P):
    """Boolean keep-mask over cofactor candidates (nontrivial kernel mod p).

    The eigenvalue prefilter narrows the candidates; the eigenvector test
    decides the survivors whose Hessenberg form is unreduced, and the full
    rank test the others.
    """
    import numpy as np
    A = np.asarray(A, np.int64) % p
    B = np.asarray(B, np.int64) % p
    cand = np.asarray(cand, np.int64)
    stage = eigen_stages(A, B, cand, p)
    flags = stage == _ANNIHILATED
    rest = np.nonzero(stage == _REDUCED)[0]
    flags[rest] = kernel_flags_numpy(A, B, cand[rest], p).astype(bool)
    # a DEBUG record can only be wanted once logging has been imported to
    # configure it; importing it here would cost every process start-up
    logging = sys.modules.get("logging")
    if logging is not None:
        log = logging.getLogger(__name__)
        if log.isEnabledFor(logging.DEBUG):
            survivors = int((stage != _NO_EIGENVALUE).sum())
            log.debug("darboux filter: %d candidates, %d after eigenvalue "
                      "prefilter, %d after full rank", len(cand), survivors,
                      int(flags.sum()))
            log.debug("darboux survivors: %d by eigenvector, %d by full rank",
                      survivors - len(rest), len(rest))
    return flags


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) along a polyline in the complex t-plane
#
# Each right-hand-side component is N(x, y, t)/D(t) with N a sparse
# monomial sum (integer exponent triples, complex coefficients) and D a
# dense polynomial in t (coefficients ascending).  The path is
# parametrized by arclength; within a segment dt/dsigma is the constant
# unit direction.

# complex, as is the step in the loop: a float times a complex stage value
# would be multiplied part by part from Python 3.14, not as numpy did
_C2, _C3, _C4, _C5 = map(complex, (1 / 5, 3 / 10, 4 / 5, 8 / 9))
_A21 = complex(1 / 5)
_A31, _A32 = map(complex, (3 / 40, 9 / 40))
_A41, _A42, _A43 = map(complex, (44 / 45, -56 / 15, 32 / 9))
_A51, _A52, _A53, _A54 = map(complex, (19372 / 6561, -25360 / 2187,
                                       64448 / 6561, -212 / 729))
_A61, _A62, _A63, _A64, _A65 = map(complex, (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
))
_B1, _B3, _B4, _B5, _B6 = map(complex, (35 / 384, 500 / 1113, 125 / 192,
                                        -2187 / 6784, 11 / 84))
# fifth-order minus embedded fourth-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = map(complex, (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
))

# how a dopri5_path run ended
COMPLETED = "Completed"
POLE_DETECTED = "PoleDetected"
SINGULARITY_ABORTED = "SingularityAborted"

# steps a dopri5_path call takes at most, so it returns at most one more
# sample
MAX_STEPS = 200_000
# a step size below HFLOOR ends the run: at a pole when |y| or |x| is past
# BLOWUP or the trial state is not finite, else as an abort (an error
# estimate that overflows is not a pole)
HFLOOR = 1e-12
BLOWUP = 1e8


def _fdiv(a, b):
    """a / b in IEEE arithmetic: inf or nan where Python raises."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _cdiv(n, d):
    """n / d as numpy divides complex128: Smith's method scaled by a
    reciprocal, with inf or nan where Python's float division raises."""
    nr, ni, dr, di = n.real, n.imag, d.real, d.imag
    if abs(dr) >= abs(di):
        if dr == 0.0:
            return complex(_fdiv(nr, 0.0), _fdiv(ni, 0.0))
        rat = di / dr
        scl = 1.0 / (dr + di * rat)
        return complex((nr + ni * rat) * scl, (ni - nr * rat) * scl)
    rat = _fdiv(dr, di)
    scl = 1.0 / (di + dr * rat)
    return complex((nr * rat + ni) * scl, (ni * rat - nr) * scl)


def _cabs(z):
    """abs(z), or inf where the modulus overflows a float."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _numerator_source(name, ex, powers):
    # summed from 0j, so that exact zeros come out as +0
    terms = ["0j"]
    for n, (i, j, k) in enumerate(ex):
        factors = [f"{name}{n}"]
        for var, e in (("x", i), ("y", j), ("t", k)):
            if e:
                factors.append(var if e == 1 else f"{var}{e}")
                powers[var] = max(powers[var], e)
        terms.append(" * ".join(factors))
    return " + ".join(terms)


def _denominator_source(name, de):
    # Horner from 0j in t, highest coefficient first
    src = "0j"
    for i in range(len(de) - 1, -1, -1):
        src = f"({src} * t + {name}{i})"
    return src


def compile_rhs(fex, fco, gex, gco, den):
    """The system as one generated function (x, y, t) -> (y', x') on
    Python complex scalars.

    The components are N_f(x, y, t)/D(t) and N_g(x, y, t)/D(t): each N by
    a sequence of integer exponent triples (x, y, t) and one of complex
    coefficients, the shared D by its dense coefficients in t, ascending.
    The generated code computes each power of x, y and t once, as the
    chained product x*x*...*x, sums the terms of each N in their given
    order starting from 0j, and evaluates D once by Horner from 0j.
    Coefficients are names bound in the function's namespace, never text
    in its source.  A denominator that is the constant 1 is not divided
    by: a numerator summed from 0j has no -0 part, so numpy's division by
    1 would return it unchanged.  Any other D divides each numerator with
    numpy's complex128 formula (``_cdiv``), which Python's own complex
    ``/`` does not reproduce.
    """
    ns = {"_cdiv": _cdiv}
    powers = {"x": 0, "y": 0, "t": 0}
    nums = []
    for name, ex, co in (("f", fex, fco), ("g", gex, gco)):
        for n, c in enumerate(co):
            ns[f"{name}{n}"] = complex(c)
        nums.append(_numerator_source(name, ex, powers))
    lines = ["def rhs(x, y, t):"]
    for var, top in powers.items():
        for e in range(2, top + 1):
            prev = var if e == 2 else f"{var}{e - 1}"
            lines.append(f"    {var}{e} = {prev} * {var}")
    lines.append(f"    nf = {nums[0]}")
    lines.append(f"    ng = {nums[1]}")
    de = [complex(c) for c in den]
    if de == [1]:
        lines.append("    return nf, ng")
    else:
        for i, c in enumerate(de):
            ns[f"d{i}"] = c
        lines.append(f"    d = {_denominator_source('d', de)}")
        lines.append("    return _cdiv(nf, d), _cdiv(ng, d)")
    src = "\n".join(lines) + "\n"
    exec(compile(src, "<painlevekit rhs>", "exec"), ns)
    return ns["rhs"]


def dopri5_path(rhs, wps, y0, x0, tol, maxsteps=MAX_STEPS):
    """Integrate the system rhs, made by ``compile_rhs``, along the
    polyline; returns (t, y, x lists, status, t_est), where status is
    COMPLETED, POLE_DETECTED or SINGULARITY_ABORTED and t_est is the last
    t reached (the start of the path for a completed run)."""
    # Python complex and float scalars throughout; the order of every
    # operation is part of the result, which tests/data/trajectories.txt
    # pins bit for bit
    wps = [complex(w) for w in wps]
    y, x, tol, maxsteps = complex(y0), complex(x0), float(tol), int(maxsteps)
    nseg = len(wps) - 1
    t = wps[0]
    ay = _cabs(y)
    ax = _cabs(x)
    ts, ys, xs = [t], [y], [x]
    steps = 0
    for seg in range(nseg):
        a = wps[seg]
        b = wps[seg + 1]
        seglen = _cabs(b - a)
        u = _cdiv(b - a, complex(seglen))
        sigma = 0.0
        h = seglen * 1e-3
        if h > 1e-2:
            h = 1e-2
        # first stage recomputed per segment: the direction changed
        fy, fx = rhs(x, y, t)
        k1y = u * fy
        k1x = u * fx
        while sigma < seglen:
            if steps >= maxsteps:
                return ts, ys, xs, SINGULARITY_ABORTED, t
            steps += 1
            if h > seglen - sigma:
                h = seglen - sigma
            hc = complex(h)
            t2 = t + _C2 * hc * u
            y2 = y + hc * (_A21 * k1y)
            x2 = x + hc * (_A21 * k1x)
            fy, fx = rhs(x2, y2, t2)
            k2y = u * fy
            k2x = u * fx
            t3 = t + _C3 * hc * u
            y3 = y + hc * (_A31 * k1y + _A32 * k2y)
            x3 = x + hc * (_A31 * k1x + _A32 * k2x)
            fy, fx = rhs(x3, y3, t3)
            k3y = u * fy
            k3x = u * fx
            t4 = t + _C4 * hc * u
            y4 = y + hc * (_A41 * k1y + _A42 * k2y + _A43 * k3y)
            x4 = x + hc * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
            fy, fx = rhs(x4, y4, t4)
            k4y = u * fy
            k4x = u * fx
            t5 = t + _C5 * hc * u
            y5 = y + hc * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y)
            x5 = x + hc * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
            fy, fx = rhs(x5, y5, t5)
            k5y = u * fy
            k5x = u * fx
            t6 = t + hc * u
            y6 = y + hc * (_A61 * k1y + _A62 * k2y + _A63 * k3y
                          + _A64 * k4y + _A65 * k5y)
            x6 = x + hc * (_A61 * k1x + _A62 * k2x + _A63 * k3x
                          + _A64 * k4x + _A65 * k5x)
            fy, fx = rhs(x6, y6, t6)
            k6y = u * fy
            k6x = u * fx
            t7 = t + hc * u
            y7 = y + hc * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
            x7 = x + hc * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
            fy, fx = rhs(x7, y7, t7)
            k7y = u * fy
            k7x = u * fx
            erry = hc * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y
                        + _E6 * k6y + _E7 * k7y)
            errx = hc * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x
                        + _E6 * k6x + _E7 * k7x)
            try:
                ey, ex, ay7, ax7 = abs(erry), abs(errx), abs(y7), abs(x7)
            except OverflowError:
                ey, ex, ay7, ax7 = map(_cabs, (erry, errx, y7, x7))
            ry = ey / (tol * (1.0 + ay))
            rx = ex / (tol * (1.0 + ax))
            # r ** 2 is pow(r, 2.0), as for numpy scalars; r * r rounds
            # differently in about one case in a thousand
            try:
                err = math.sqrt(0.5 * (ry ** 2 + rx ** 2))
            except OverflowError:
                err = math.inf
            # an error estimate past the float range at a tolerance below
            # reach rejects the step, but only a state past it is a pole
            blown = not (math.isfinite(ay7) and math.isfinite(ax7))
            bad = blown or not math.isfinite(err)
            if not bad and err <= 1.0:
                sigma += h
                t = t7
                y = y7
                x = x7
                ay = ay7
                ax = ax7
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
            if h < HFLOOR and sigma < seglen:
                if ay > BLOWUP or ax > BLOWUP or blown:
                    status = POLE_DETECTED
                else:
                    status = SINGULARITY_ABORTED
                return ts, ys, xs, status, t
    return ts, ys, xs, COMPLETED, wps[0]
