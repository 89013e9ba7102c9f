"""Print a digest of every Darboux filter decision in `search` rounds.

    PYTHONPATH=src python3 tools/stage_digests.py 1 2 3 4 5

Runs one round of the perfbench `search` workload for each seed given and
prints one line per call of the mod-p candidate filter: the seed, the
operation, the candidate count, and SHA-256 digests of the stage array of
``_accel.eigen_stages`` and of the keep mask of
``_accel.darboux_candidate_flags``.  Two checkouts decide every candidate
at every stage alike exactly when their outputs are equal, so a change to
the filter's arithmetic is checked by running this on both and comparing.
"""

import hashlib
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
        calls.append([len(cand), _digest(out)])
        return out

    def kept(A, B, cand, p=_accel.MOD_P):
        out = flags(A, B, cand, p)
        calls[-1].append(_digest(out))
        return out

    _accel.eigen_stages, _accel.darboux_candidate_flags = stages, kept
    try:
        for seed in seeds:
            work = workloads.Search(seed)
            for family, params in work.round:
                work.run((family, params))
                name = family + "(" + ", ".join(
                    f"{k}={v}" for k, v in sorted(params.items())) + ")"
                for call in calls:
                    print(seed, name, *call)
                calls.clear()
    finally:
        _accel.eigen_stages, _accel.darboux_candidate_flags = eigen_stages, flags


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1])
