"""Print digests of what the perfbench workloads compute, for parity checks.

    PYTHONPATH=src python3 tools/digests.py {stage,flow,exact,counts} 1 2 3

Runs one round of the named perfbench workload for each seed given (seed 1
when none is).  Two checkouts compute alike exactly when their outputs are
equal, so a change is checked by running this on both and comparing;
``tools/<check>_digests.sha256`` pins the output of each check for seeds
1 2 3, and CI checks it with

    PYTHONPATH=src python3 tools/digests.py stage 1 2 3 | sha256sum -c tools/stage_digests.sha256

* ``stage`` (the `search` workload): for each call of the mod-p candidate
  filter, one line with the seed, the operation, the candidate count, and
  SHA-256 digests of the filter's inputs A_mod and B_mod, of the stage
  array of ``_accel.eigen_stages`` and of the keep mask of
  ``_accel.darboux_candidate_flags``; then, for each operation, the
  certificates found, one line each, sorted by their strings.  Equal
  outputs mean the same systems, every candidate decided alike at every
  stage, and the same certified polynomials.
* ``flow``: for each operation, one line per trajectory (the seed, the
  operation's place in the round and its path, the curve, the status, the
  sample count, a digest of every sample written with ``float.hex``, and
  the drift with ``float.hex``) and one line per pairwise probe (the pair,
  the verdict, ``sigma_min`` with ``float.hex`` and a digest of the
  coefficients).  Equal outputs mean integration, checks and probes alike,
  bit for bit.
* ``exact``: for each operation, one line with the seed, the operation's
  place in the round, its kind, and a digest of the ``repr`` of its
  summary (the verdicts, the residuals, the symbolic systems, the first
  integrals and the classifier verdicts, every field element written with
  ``str``).
* ``counts``: for each seed, one line with the number of ``FieldElem``
  constructions and of ``field._pmul`` calls over three rounds of the
  ``exact`` workload.  Equal counts mean the same exact-layer work was
  done, whatever it cost.  They are not pinned: a change of the kernel's
  representation or of the fixture may move them by design.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from painlevekit import _accel, field  # noqa: E402

import workloads  # noqa: E402


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def stage(seeds):
    calls = []
    eigen_stages = _accel.eigen_stages
    flags = _accel.darboux_candidate_flags

    def stages(A, B, cand, p):
        out = eigen_stages(A, B, cand, p)
        calls[-1].append("stages=" + _digest(out.tobytes()))
        return out

    def kept(A, B, cand, p=_accel.MOD_P):
        calls.append([len(cand), "x".join(map(str, B.shape)),
                      "A=" + _digest(A.tobytes()), "B=" + _digest(B.tobytes())])
        out = flags(A, B, cand, p)
        calls[-1].append("keep=" + _digest(out.tobytes()))
        return out

    _accel.eigen_stages, _accel.darboux_candidate_flags = stages, kept
    try:
        for seed in seeds:
            work = workloads.Search(seed)
            for family, params in work.round:
                certs = work.run((family, params))
                name = family + "(" + ", ".join(
                    f"{k}={v}" for k, v in sorted(params.items())) + ")"
                for call in calls:
                    print(seed, name, "filter", *call)
                calls.clear()
                for P, G in sorted(work.summarise((family, params), certs)):
                    print(seed, name, "cert", f"P={P}", f"G={G}")
    finally:
        _accel.eigen_stages, _accel.darboux_candidate_flags = eigen_stages, flags


def _hex(z):
    z = complex(z)
    return z.real.hex() + "," + z.imag.hex()


def _words_digest(words):
    return _digest(" ".join(words).encode())


def flow(seeds):
    for seed in seeds:
        work = workloads.Flow(seed)
        for n, op in enumerate(work.round):
            k, points = op
            trajs, drifts, probes = work.run(op)
            head = f"{seed} op{n} path{k}"
            for (curve, _), tr, d in zip(points, trajs, drifts):
                samples = _words_digest(_hex(v) for s in tr.samples for v in s)
                print(head, "traj", curve, tr.status, len(tr),
                      f"samples={samples}", f"drift={float(d).hex()}")
            pairs = [(i, j) for i in range(len(trajs))
                     for j in range(i + 1, len(trajs))]
            for (i, j), p in zip(pairs, probes):
                sigma = "None" if p.sigma_min is None else p.sigma_min.hex()
                coeffs = ("None" if p.coefficients is None
                          else _words_digest(_hex(c) for c in p.coefficients))
                print(head, "probe", f"{i}-{j}", p.verdict, f"sigma={sigma}",
                      f"coeffs={coeffs}")


def exact(seeds):
    for seed in seeds:
        work = workloads.Exact(seed)
        for n, op in enumerate(work.round):
            summary = work.summarise(op, work.run(op))
            print(seed, f"op{n}", op[0], f"summary={_digest(repr(summary).encode())}")


def counts(seeds):
    tally = {"FieldElem": 0, "_pmul": 0}
    init, pmul = field.FieldElem.__init__, field._pmul

    def counted_init(self, *args, **kwargs):
        tally["FieldElem"] += 1
        init(self, *args, **kwargs)

    def counted_pmul(a, b):
        tally["_pmul"] += 1
        return pmul(a, b)

    field.FieldElem.__init__, field._pmul = counted_init, counted_pmul
    try:
        for seed in seeds:
            tally.update(FieldElem=0, _pmul=0)
            work = workloads.Exact(seed)
            for _ in range(3):
                for op in work.round:
                    work.run(op)
            print(seed, *(f"{k}={v}" for k, v in tally.items()))
    finally:
        field.FieldElem.__init__, field._pmul = init, pmul


CHECKS = {"stage": stage, "flow": flow, "exact": exact, "counts": counts}


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(CHECKS)}}} [SEED ...]")
    try:
        CHECKS[sys.argv[1]]([int(s) for s in sys.argv[2:]] or [1])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped reading: end quietly, with stdout on the null
        # device so that the flush at exit has no pipe to report either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(1)
