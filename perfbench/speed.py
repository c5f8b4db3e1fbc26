"""Fixed reference computations that track how fast the machine runs.

A run's times are scaled by a kernel's reference time over the median
time of its samples, taken all through the run, so that a shared
machine's changing speed cancels out of the reported figures.

- "compute": big-integer products and quotients, tuple allocation and
  small-integer bytecode, the work of the query-sweep queries. Its worker
  samples it between blocks of queries. On the 2-vCPU VM the benchmark
  was tuned on, ten query-sweep runs had a quartile spread of 13% in
  pass_s and 4% in op_p50_ms scaled, against 30% and 23% unscaled.
- "alloc": filling and freeing a 300,000-entry dict of small lists. The
  runner samples it between verify-suite processes. On that VM, one
  sample tracked one verify process poorly (correlation 0.3), but
  averages over six processes tracked each other with correlation 0.78:
  the machine's slow phases last minutes and slow both alike.
"""

from __future__ import annotations

import statistics
import time
from math import comb


def compute():
    start = time.perf_counter()
    acc = 0
    for r in range(200):
        acc += comb(120 + r % 40, 60) * 7 ** (r % 40 + 30) // (3 ** (r % 40) + 1)
    pairs = [(i, i * 3 % 11) for i in range(30000)]
    x = 0
    for i in range(150000):
        x += i * i % 7
    del acc, pairs, x
    return time.perf_counter() - start


def alloc():
    start = time.perf_counter()
    table = {}
    for i in range(300000):
        table[i * 7919 % 1000003] = [i, i + 1]
    del table
    return time.perf_counter() - start


# kernel: (function, median time of one sample on a 2-vCPU Linux VM
# (Python 3.11) in the quiet state, samples per call of sample()); scaled
# figures are seconds at that speed
KERNELS = {"compute": (compute, 0.025, 5), "alloc": (alloc, 0.25, 2)}


def sample(kernel):
    run, _, samples = KERNELS[kernel]
    return [run() for _ in range(samples)]


def scale(kernel, samples):
    """Factor that turns this run's seconds into seconds at the kernel's
    reference time."""
    return KERNELS[kernel][1] / statistics.median(samples)
