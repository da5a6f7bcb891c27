"""A fixed kernel whose time tracks the machine's current speed.

On a shared machine the speed of the host drifts.  On a 2-vCPU
Firecracker guest the same operation ran 20-40% slower for minutes at a
time, in process CPU time as much as in wall time, with no steal time
and no other busy process in the guest.  A 35 s run sits inside one such
phase, so longer runs do not average the drift out, and the medians of
two sets of runs of unchanged code differed by up to 39%.

The runner times this kernel between set-ups and between operations,
and divides each interval by the kernel times that bracket it.  A time
in units of the kernel's keeps what the code costs and drops most of the
host's drift.  The kernel does the kinds
of work the workloads do: elementwise powers, exponentials, clamps and
row and column sums over a 2 MiB array, and float formatting and parsing.
It allocates nothing while timed.  It is part of the benchmark, so a
change to ``betaot`` cannot change its time.
"""

import time

import numpy as np

ARRAY_SHAPE = (512, 512)
ARRAY_PASSES = 12
TEXT_PASSES = 2
TEXT_VALUES = 4096


class Reference:
    """The kernel's inputs, made once; :meth:`seconds` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.uniform(0.5, 2.0, ARRAY_SHAPE)
        self.b = np.empty_like(self.a)
        self.values = self.a.ravel()[:TEXT_VALUES].tolist()

    def seconds(self) -> float:
        a, b = self.a, self.b
        start = time.perf_counter()
        for _ in range(ARRAY_PASSES):
            np.power(a, 1.2, out=b)
            np.exp(b, out=b)
            np.maximum(a, b, out=b)
            b.sum(axis=0)
            b.sum(axis=1)
        for _ in range(TEXT_PASSES):
            text = ",".join(["%.17g" % v for v in self.values])
            sum(float(x) for x in text.split(","))
        return time.perf_counter() - start
