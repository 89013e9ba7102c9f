"""Print a digest of every trajectory, drift and probe in `flow` rounds.

    PYTHONPATH=src python3 tools/flow_digests.py 1 2 3

Runs one round of the perfbench `flow` workload for each seed given.  For
each operation it prints one line per trajectory (the seed, the
operation's place in the round and its path, the curve, the status, the
sample count, a SHA-256 digest of every sample written with ``float.hex``,
and the drift with ``float.hex``) and one line per pairwise probe (the
pair, the verdict, ``sigma_min`` with ``float.hex`` and a digest of the
coefficients).  Two checkouts integrate, check and probe alike, bit for
bit, exactly when their outputs are equal, so a change to the integrator
or the probe is checked by running this on both and comparing;
``tools/flow_digests.sha256`` pins the output for seeds 1 2 3.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def _hex(z):
    z = complex(z)
    return z.real.hex() + "," + z.imag.hex()


def _digest(words):
    return hashlib.sha256(" ".join(words).encode()).hexdigest()[:16]


def main(seeds):
    for seed in seeds:
        work = workloads.Flow(seed)
        for n, op in enumerate(work.round):
            k, points = op
            trajs, drifts, probes = work.run(op)
            head = f"{seed} op{n} path{k}"
            for (curve, _), tr, d in zip(points, trajs, drifts):
                samples = _digest(_hex(v) for s in tr.samples for v in s)
                print(head, "traj", curve, tr.status, len(tr),
                      f"samples={samples}", f"drift={float(d).hex()}")
            pairs = [(i, j) for i in range(len(trajs))
                     for j in range(i + 1, len(trajs))]
            for (i, j), p in zip(pairs, probes):
                sigma = "None" if p.sigma_min is None else p.sigma_min.hex()
                coeffs = ("None" if p.coefficients is None
                          else _digest(_hex(c) for c in p.coefficients))
                print(head, "probe", f"{i}-{j}", p.verdict, f"sigma={sigma}",
                      f"coeffs={coeffs}")


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
