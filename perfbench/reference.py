"""Host-speed reference for the timed phases.

The shared host runs the same code up to 2.3 times slower, in spells
from seconds to hours, which whole-run medians cannot even out.  So a
short fixed kernel that does not touch painlevekit is timed around the
operations, and each operation's time is scaled by the kernel's nominal
time over the mean of the kernel times just before and just after it:
times then read as at the speed of the machine in perfbench/README.md.
Raw times are kept as well.

The slow spells do not slow every kind of work alike, so each workload
names the kernel that does its kind of work:

* "python": interpreted integer, Fraction and complex arithmetic and
  dict updates (exact, flow);
* "filter": the first FILTER_COLS column steps of the batched mod-p
  elimination of the Darboux candidate filter's numpy build, a frozen
  copy of it on one chunk of fixed inputs with the filter's shapes
  (search).  Its arrays are as large as the filter's, so it runs in a
  helper process of its own and adds nothing to the workload process's
  peak resident set:

      python3 perfbench/reference.py --serve

  reads a line, runs the kernel, prints its time, until end of input;
* "process": this file run as a fresh interpreter (cli, whose operations
  are fresh interpreters; a kernel run in the workload process just
  after a subprocess reads slow):

      python3 perfbench/reference.py

Every kernel is timed around every operation.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

NOMINAL_S = {"python": 0.0030, "filter": 0.140, "process": 0.066}
MOD_P = 2_147_483_647
# one chunk of the filter at SearchBounds(2, 1, 2): 4096 candidates of 6
# cofactor coefficients in -2..2, 30 x 12 systems (12 MB int64 arrays)
FILTER_ROWS, FILTER_MONOMIALS, FILTER_SHAPE, FILTER_COLS = 4096, 6, (30, 12), 3


def python_kernel():
    acc, table = 0, {}
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = table.get(i & 1023, 0) + acc
    f = Fraction(0)
    for i in range(1, 100):
        f += Fraction(1, i) * Fraction(i + 1, 7)
    z = 0j
    for i in range(1700):
        z = z * (0.5 + 0.1j) + complex(i)
    return acc, f, z


def _modinv_vec(a, p):
    import numpy as np

    result = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            result = (result * base) % p
        base = (base * base) % p
        e >>= 1
    return result


def filter_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.integers(0, MOD_P, FILTER_SHAPE)
    B = rng.integers(0, MOD_P, (FILTER_MONOMIALS, *FILTER_SHAPE))
    cand = rng.integers(-2, 3, (FILTER_ROWS, FILTER_MONOMIALS))
    return A, B, cand


def filter_kernel(A, B, cand, p=MOD_P):
    import numpy as np

    n = cand.shape[0]
    R = A.shape[0]
    rr = np.arange(R)
    M = (A[None, :, :] - np.tensordot(cand, B, axes=(1, 0))) % p
    row = np.zeros(n, np.int64)
    for col in range(FILTER_COLS):
        colv = M[:, :, col]
        avail = (rr[None, :] >= row[:, None]) & (colv != 0)
        ns = np.nonzero(avail.any(axis=1))[0]
        Mi = M[ns]
        piv = np.argmax(avail[ns], axis=1)
        r0 = row[ns]
        ar = np.arange(ns.size)
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
    return int(M[0, 0, 0])


def process_kernel():
    subprocess.run([sys.executable, str(Path(__file__))], check=True)


IN_PROCESS = {"python": python_kernel, "process": process_kernel}


def serve():
    """The "filter" kernel's helper process: one timed pass per input line."""
    inputs = filter_inputs()
    for _ in range(3):   # warm the caches and the allocator
        filter_kernel(*inputs)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        filter_kernel(*inputs)
        print(time.perf_counter() - t0, flush=True)


class Kernel:
    """Times one kind of kernel: in this process, or for "filter" in a
    helper process started here and stopped by close().

    For "filter" the calling process is first held to one CPU, which the
    helper inherits, so that the kernel reads the speed of the CPU the
    operations run on: on the shared host the CPUs differ, and with the
    helper left free the scaled times of a search operation spread about
    one and a half times as widely.
    """

    def __init__(self, kind):
        self.kind, self.helper = kind, None
        if kind == "filter":
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
            self.helper = subprocess.Popen(
                [sys.executable, str(Path(__file__)), "--serve"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self):
        """Time of one pass of the kernel."""
        if self.helper is None:
            t0 = time.perf_counter()
            IN_PROCESS[self.kind]()
            return time.perf_counter() - t0
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("the reference kernel's process ended early")
        return float(line)

    def scale(self):
        """Nominal time of the kernel over one timed pass of it."""
        return NOMINAL_S[self.kind] / self.seconds()

    def close(self):
        if self.helper is not None:
            self.helper.stdin.close()
            self.helper.wait()
            self.helper.stdout.close()
            self.helper = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        python_kernel()
