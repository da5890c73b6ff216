"""The host's speed, measured beside a workload to scale its times.

The benchmark shares a few cores of a busy host, whose speed drifts by
a third or more over seconds and minutes while the program stays the
same.  A workload that runs its studies in its own process therefore
reports its times in *reference seconds*: the measured seconds times
``REFERENCE_S`` over the mean time of a fixed reference kernel, sampled
in the same process between the timed units of the same run.  On a
host where the kernel takes ``REFERENCE_S`` the two agree.

The kernel uses no ``repro`` code, so no change to the program moves
it.  It makes mini-batch hinge-loss steps over a shuffled array of the
paper's shape: many small numpy calls, the pattern of the victim fit
that dominates the studies.  Samples are taken in proportion to the
time that passed since the last ones, so their mean weighs the host's
states as the workload met them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# What one kernel call takes on the reference host: about its mean over
# paper-serial runs on a 2-CPU x86-64 container with numpy 2.4 and the
# BLAS pinned to one thread.
REFERENCE_S = 0.008
# Share of the elapsed time spent sampling at each tick.
SAMPLE_SHARE = 0.05
# The kernel's array has the paper's shape (n_train x d); the victim
# fit's mini-batch size.
ROWS, COLS, BATCH, EPOCHS = 3221, 57, 64, 7


class HostClock:
    """Kernel samples taken between timed units, and the scale factor
    from measured to reference seconds."""

    def __init__(self):
        rng = np.random.default_rng(20240611)
        self.X = rng.standard_normal((ROWS, COLS))
        self.y = np.sign(rng.standard_normal(ROWS))
        self.orders = [rng.permutation(ROWS) for _ in range(EPOCHS)]
        # The gather buffers are allocated once: a fresh array per epoch
        # would time the process's allocator and page faults, which
        # differ between the benchmark's processes, instead of the host.
        self.Xs = np.empty_like(self.X)
        self.ys = np.empty_like(self.y)
        self.kernel()  # warm-up, not a sample
        self.samples: list[float] = []
        self.last = time.perf_counter()
        self.tick()

    def kernel(self) -> float:
        """Seconds one reference kernel call takes now."""
        start = time.perf_counter()
        w = np.zeros(COLS)
        for order in self.orders:
            np.take(self.X, order, axis=0, out=self.Xs, mode="clip")
            np.take(self.y, order, out=self.ys, mode="clip")
            for lo in range(0, ROWS, BATCH):
                Xb, yb = self.Xs[lo:lo + BATCH], self.ys[lo:lo + BATCH]
                active = yb * (Xb @ w) < 1.0
                w *= 0.999
                w += 1e-3 * np.einsum("i,ij->j", yb[active], Xb[active])
        return time.perf_counter() - start

    def tick(self) -> None:
        """Sample for ``SAMPLE_SHARE`` of the time since the last tick,
        at least once.  Call it only outside timed intervals."""
        budget = SAMPLE_SHARE * (time.perf_counter() - self.last)
        spent = 0.0
        while True:
            value = self.kernel()
            self.samples.append(value)
            spent += value
            if spent >= budget:
                break
        self.last = time.perf_counter()

    def scale(self) -> float:
        """Reference seconds per measured second over the samples."""
        return REFERENCE_S / statistics.fmean(self.samples)
