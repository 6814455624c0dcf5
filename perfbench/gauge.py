"""Machine-speed gauge: a fixed pure-Python computation timed around every sample.

On a shared virtual machine the same deterministic call ran at speeds up to
1.7x apart, in phases lasting from seconds to minutes: recognize on the
pendant clique m=70 took 0.69 s of CPU per call for several seconds and then
0.40 s, within one process. Between runs such phases moved medians by
20-30%, more than any bound a regression check can use. So each timed
sample is divided by the CPU time of this reference, timed just before and
just after the sample, and multiplied by REFERENCE_S: end-to-end times are
CPU seconds at the machine speed at which one reference run takes
REFERENCE_S. The reference is the benchmark's own closure code over a graph
fixed here, so no change to the program under test can change it. Raw CPU
times stay in the result file.

The reference tracks best what runs in its own process: over five runs of
notlinked_dense, where the worker times it around each call, the spread
(interquartile range over median) of decide_s fell from 0.32 raw to 0.03.
Fresh-process checks are gauged from the parent, which may run on the other
CPU; there the spread fell by about half.
"""

import math
import random
import statistics
from time import process_time

import inputs
import verdict

# CPU seconds of one reference run on the machine the benchmark was tuned on
# (2-vCPU KVM guest, Intel Xeon 2.1 GHz, Python 3.11.7): the median over
# about 500 runs, so that scaled times read close to raw ones there.
REFERENCE_S = 0.010
RUNS = 3
_M = 2000
_SEEDS = 1600


class Gauge:
    """Times the reference: closures from a fixed set of seed edges of a
    fixed G(2000, 0.8 p_c)."""

    def __init__(self):
        rng = random.Random("perfbench-gauge")
        edges = inputs.gnp(_M, 0.8 / math.sqrt(_M * math.log(_M)), rng)
        self._adj = verdict.adjacency(_M, edges)
        self._seeds = edges[:_SEEDS]

    def __call__(self) -> float:
        """CPU seconds of one reference run: the median of RUNS runs, since a
        single 10 ms run moves by up to 20% with brief disturbances that a
        sample of 0.1-4 s averages out."""
        times = []
        for _ in range(RUNS):
            start = process_time()
            for a, b in self._seeds:
                verdict.closure(self._adj, a, b)
            times.append(process_time() - start)
        return statistics.median(times)


def scaled(times: list[float], refs: list[float]) -> float:
    """Median of the samples scaled to the reference speed; refs[i] is the
    reference time around times[i]."""
    return statistics.median(t / r for t, r in zip(times, refs)) * REFERENCE_S
