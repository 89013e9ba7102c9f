"""Print a digest of every Darboux filter decision in `search` rounds.

    PYTHONPATH=src python3 tools/stage_digests.py 1 2 3 4 5

Runs one round of the perfbench `search` workload for each seed given.
For each call of the mod-p candidate filter it prints one line: the seed,
the operation, the candidate count, and SHA-256 digests of the filter's
inputs A_mod and B_mod, of the stage array of ``_accel.eigen_stages`` and
of the keep mask of ``_accel.darboux_candidate_flags``.  For each
operation it then prints the certificates found, one line each, sorted by
their strings.  Two checkouts build the same systems, decide every
candidate at every stage alike and certify the same polynomials exactly
when their outputs are equal, so a change to the search is checked by
running this on both and comparing; ``tools/stage_digests.sha256`` pins
the output for seeds 1 2 3.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from painlevekit import _accel  # noqa: E402

import workloads  # noqa: E402


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def main(seeds):
    calls = []
    eigen_stages = _accel.eigen_stages
    flags = _accel.darboux_candidate_flags

    def stages(A, B, cand, p):
        out = eigen_stages(A, B, cand, p)
        calls[-1].append("stages=" + _digest(out))
        return out

    def kept(A, B, cand, p=_accel.MOD_P):
        calls.append([len(cand), "x".join(map(str, B.shape)),
                      "A=" + _digest(A), "B=" + _digest(B)])
        out = flags(A, B, cand, p)
        calls[-1].append("keep=" + _digest(out))
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


if __name__ == "__main__":
    try:
        main([int(s) for s in sys.argv[1:]] or [1])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped reading: end quietly, with stdout on the null
        # device so that the flush at exit has no pipe to report either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(1)
