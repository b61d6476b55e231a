"""A fixed task that measures how fast the machine runs at this moment.

On a shared host, other tenants slow this machine's CPUs by up to ~50%, and
the slowdown drifts over minutes, so the median of raw wall times moves by
more between runs of the same code than a regression bound can allow. The
driver runs this task in its own process, on the CPU its children are
pinned to, right before and after every ``ordeval`` invocation. An
invocation's wall time divided by the mean of the two task times varies
two to four times less between runs than the wall time itself.

The task does a little of each kind of work the CLI does: Python string
building (CSV lines and reports), many numpy calls on small arrays (the
bootstrap on small files), resampled sorts of 50 000 scores (the bootstrap
on a large file) and one sort of a million (ranking a large file). It
depends on nothing in ``ordeval``, so a change to the program cannot move
it. Its inputs are built once, outside any timing.
"""

import time

import numpy as np

# a fixed scale: about what ``Calibration.run`` takes on the 2-vCPU Intel Xeon
# virtual machine the benchmark was written on, with its host quiet. Normalised
# times are wall times x REFERENCE_S / calibration time, so they read as
# seconds at that speed
REFERENCE_S = 0.2


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.large = rng.random(1_000_000)
        self.medium = rng.random(50_000)
        self.resamples = rng.integers(0, 50_000, (8, 50_000))
        self.small = rng.integers(0, 7, 2_000)

    def run(self):
        """Seconds the task takes now."""
        start = time.perf_counter()
        lines = {}
        for i in range(40_000):
            lines[f"r{i}"] = ",".join([str(i), f"{i * 0.1:.6f}"])
        for i in range(1_000):
            np.bincount(self.small[: 100 + i], minlength=7)
            np.argsort(self.small, kind="stable")
        for resample in self.resamples:
            np.argsort(-self.medium[resample], kind="stable")
        order = np.argsort(self.large)
        self.large[order].sum()
        return time.perf_counter() - start
