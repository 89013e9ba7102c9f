"""Print a digest of every operation's summary in `exact` rounds.

    PYTHONPATH=src python3 tools/exact_digests.py 1 2 3

Runs one round of the perfbench `exact` workload for each seed given.  For
each operation it prints one line: the seed, the operation's place in the
round, its kind, and a SHA-256 digest of the ``repr`` of its summary (the
verdicts, the residuals, the symbolic systems, the first integrals and the
classifier verdicts, every field element written with ``str``).  Two
checkouts transform, check, search and classify alike exactly when their
outputs are equal, so a change to the exact layer is checked by running
this on both and comparing; ``tools/exact_digests.sha256`` pins the output
for seeds 1 2 3.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def main(seeds):
    for seed in seeds:
        work = workloads.Exact(seed)
        for n, op in enumerate(work.round):
            summary = work.summarise(op, work.run(op))
            digest = hashlib.sha256(repr(summary).encode()).hexdigest()[:16]
            print(seed, f"op{n}", op[0], f"summary={digest}")


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
