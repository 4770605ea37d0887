"""Host speed, measured with a fixed reference kernel, so that timed runs can
report seconds at one reference speed.

The benchmark runs on a shared host whose cores run the same code up to about
1.5x slower for stretches that last from seconds to minutes.  The slowdown
shows in CPU time as much as in wall time, and a stretch can outlast a whole
run, so neither CPU time nor more samples inside a run remove it.  A short
kernel that does not touch the program slows down by nearly the same factor
as some of the program's work, and which kernel tracks which work was
measured, in sets of ten seeds on a 2-core host.  Dividing by the time of

* ``"products"``, 40 products with a fixed random CSR matrix that stays in
  cache, left the m=32 sweep's times (desk-sweep) spreading (q3 - q1) /
  median 0.07 to 0.11 where wall times spread 0.15 to 0.23 and the
  pure-Python loop left 0.11 to 0.15; in four more sets, 0.03 to 0.16.
* ``"loop+products"``, a pure-Python loop followed by the same products,
  left the m=64 sweep's times (lownoise-m64) spreading 0.03 to 0.11 in that
  set (wall: 0.19 to 0.22), and 0.03 to 0.13 and 0.03 to 0.08 in two
  others.  Either part alone
  did worse in some set: the products 0.06 to 0.17, the loop 0.04 to 0.08,
  0.06 to 0.13 and 0.14 to 0.24.

Products with the 80 MB m=128 projector are bound by memory and followed
neither kernel: over six seeds of an m=128 sweep, wall-time spreads of 0.09
to 0.17 became 0.14 to 0.24 divided by the loop and 0.18 to 0.30 divided by
the products.  The benchmark has no m=128 workload for that reason.

``sample`` runs the kernel, at most once every ``SPACING_S`` seconds unless
forced.  Callers sample between the calls they time, never inside them, and
take the time spent sampling out of any interval that contains samples.
``factor`` is the run's scale from wall seconds to seconds at the reference
speed: ``REFERENCE_S`` per part of the kernel over the median of the run's
samples.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Kernel seconds per part ("loop", "products") that reported times are scaled
# to: a time reads the same as wall time when each part of the kernel takes
# REFERENCE_S, whatever the host's state.  Either part takes about that long
# on the host described above.
REFERENCE_S = 0.004
SPACING_S = 0.25


class Speed:
    def __init__(self, kernel):
        """``kernel`` is "products" or "loop+products"."""
        if kernel not in ("products", "loop+products"):
            raise ValueError(f"unknown speed kernel {kernel!r}")
        import numpy as np
        import scipy.sparse

        # 2000 x 2000 with 50 entries a row: 1.2 MB, the size of the m=32
        # projector, so it stays in cache like the products of a small sweep.
        rng = np.random.default_rng(1)
        n, per_row = 2000, 50
        self._matrix = scipy.sparse.csr_matrix(
            (rng.random(n * per_row), rng.integers(0, n, n * per_row),
             np.arange(0, n * per_row + 1, per_row)), shape=(n, n))
        self._matrix.sort_indices()
        self._vector = rng.standard_normal(n)
        self.times = []    # end of each sample
        self.seconds = []  # the kernel's seconds in each sample
        self.spent = 0.0   # seconds spent sampling so far
        self.kernel = kernel
        for _ in range(3):
            self._kernel()

    def _kernel(self):
        if self.kernel == "loop+products":
            total = 0
            for i in range(70_000):
                total += i
        for _ in range(40):
            self._matrix @ self._vector

    def sample(self, force=False):
        t0 = perf_counter()
        if not force and self.times and t0 - self.times[-1] < SPACING_S:
            return
        self._kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.seconds.append(t1 - t0)
        self.spent += t1 - t0

    def median(self):
        return statistics.median(self.seconds)

    def factor(self):
        """Wall seconds of this run times ``factor()`` are seconds at the
        reference speed."""
        return REFERENCE_S * len(self.kernel.split("+")) / self.median()
