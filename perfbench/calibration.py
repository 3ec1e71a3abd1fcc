"""A fixed reference computation that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host, whose speed for one
process drifts by a third or more over seconds to minutes while CPU time stays
equal to wall time.  The reference kernel runs the same kinds of work as the
library's layers, without calling the library: a Python loop (the backward
recursion's per-stage overhead), a numpy gather and scatter (``expect`` and
``push``), rank-one updates of a dense tableau of the size ``lp_core``
pivots on midgrid, and a HiGHS solve of a fixed sparse LP
(``highs.linprog``).  Its inputs never change, so its time moves only with
the machine.

``run.py`` times it before the first op and after every op, and scales an
op's wall time by ``REF_S`` over the median of the kernel's timings nearest
the op: a calibrated time is the time the op would take on a machine where
the kernel takes ``REF_S`` seconds.  Changes to the library move calibrated
times exactly as they move wall times.
"""

import time

import numpy as np
import scipy.optimize
import scipy.sparse

# Calibrated times are seconds on a machine where one pass of the kernel
# takes REF_S.  (A pass takes 18-26 ms on one core of a 2.0 GHz Xeon VM.)
REF_S = 0.02

_LOOP = 50_000
_SCATTER = (40_000, 80_000, 9)        # target size, index count, repeats
_TABLEAU = (131, 2374, 5)             # rows, columns, pivots: lp_core at m=5
_LP = (60, 150, 0.08)                 # rows, columns, density


class Reference:
    """The kernel with all its inputs and buffers allocated once, so that a
    pass allocates no array and its time does not depend on what the
    allocator did in the op before it."""

    def __init__(self):
        rng = np.random.default_rng(20101)
        size, count, _ = _SCATTER
        self.index = rng.integers(0, size, count)
        self.weights = rng.random(count)
        self.acc = np.empty(size)
        self.gathered = np.empty(count)
        self.start = rng.random(_TABLEAU[:2])
        self.tableau = np.empty(_TABLEAU[:2])
        self.update = np.empty(_TABLEAU[:2])
        self.row = np.empty(_TABLEAU[1])
        rows, cols, density = _LP
        self.lp = {"c": -rng.random(cols),
                   "A_ub": scipy.sparse.random(rows, cols, density=density,
                                               random_state=rng, format="csr"),
                   "b_ub": np.ones(rows), "bounds": (0, 1), "method": "highs"}
        self.expected = None
        self.expected = self.run()

    def run(self):
        """One pass of the kernel; returns its result, the same every pass."""
        total = 0
        for i in range(_LOOP):
            total += i * i
        self.acc.fill(0.0)
        gathered = 0.0
        for _ in range(_SCATTER[2]):
            np.add.at(self.acc, self.index, self.weights)
            np.take(self.acc, self.index, out=self.gathered)
            gathered += float(self.gathered.sum())
        tab = self.tableau
        np.copyto(tab, self.start)
        for r in range(_TABLEAU[2]):
            np.divide(tab[r], 1.0 + tab[r, r], out=self.row)
            np.multiply.outer(tab[:, r], self.row, out=self.update)
            tab -= self.update
        res = scipy.optimize.linprog(**self.lp)
        out = (total, gathered, float(tab[0, 0]), float(res.fun))
        if self.expected is not None and out != self.expected:
            raise RuntimeError("reference kernel result changed between passes")
        return out

    def seconds(self):
        """Wall time of one pass, after an untimed pass that brings the
        kernel's data back into the caches the op evicted."""
        self.run()
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start
