"""A fixed reference kernel that measures the host's speed during a run.

The benchmark runs on shared virtual machines whose speed drifts with the
load of other guests: the same pass can take 1.5 s for a minute and 1.15 s
the next.  So a run splits every pass into segments of at most a
second or two, times a short block of this kernel after each segment, and
reports each segment's wall time in units of the kernel's time on either
side of it.  The kernel does the kinds of work the three workloads do
(sparse block assembly and LU solves, cubic root finding, a tall dense
normal product, an interpreted loop) on fixed inputs and calls no chident
code, so a change to the package cannot move it.  It binds its NumPy and
SciPy functions at import, so the tracer's wrappers never see its calls.
"""

from __future__ import annotations

import time

import numpy as np
from numpy import roots
from scipy.sparse import bmat, diags
from scipy.sparse.linalg import splu

N = 400                 # unknowns per block, as in the paper forward solve
N_POLYS = 40            # cubic root solves per slice
DENSE_SHAPE = (2000, 42)
LOOP = 3000             # interpreted float operations per slice


class ReferenceKernel:
    """Fixed inputs built once; ``seconds_per_slice`` times a block of slices."""

    def __init__(self):
        ones = np.ones
        self.stiff = diags(
            [-ones(N - 2), -2 * ones(N - 1), 6 * ones(N), -2 * ones(N - 1), -ones(N - 2)],
            [-2, -1, 0, 1, 2], format="csr",
        )
        self.mass = diags(
            [ones(N - 1), 4 * ones(N), ones(N - 1)], [-1, 0, 1], format="csr"
        )
        self.rhs = ones(2 * N)
        rng = np.random.default_rng(0)
        self.dense = rng.random(DENSE_SHAPE)
        self.polys = rng.random((N_POLYS, 4))

    def one_slice(self) -> None:
        for _ in range(2):
            jac = bmat([[self.mass, self.stiff], [self.stiff, -self.mass]], format="csc")
            splu(jac).solve(self.rhs)
        for p in self.polys:
            roots(p)
        self.dense.T @ self.dense
        s = 0.0
        for i in range(LOOP):
            s += i * 0.5

    def seconds_per_slice(self, slices: int) -> float:
        t0 = time.perf_counter()
        for _ in range(slices):
            self.one_slice()
        return (time.perf_counter() - t0) / slices


class SegmentClock:
    """Times a pass segment by segment against the reference kernel.

    ``start`` opens a pass, ``split`` closes a segment and opens the next,
    ``stop`` closes the last one.  After every segment the kernel runs
    ``slices`` slices; a segment's reference is the mean seconds per slice
    of the blocks before and after it.  The first block runs when the
    clock is made, so the reference chain is unbroken across passes.
    """

    def __init__(self, slices: int):
        self.kernel = ReferenceKernel()
        self.kernel.one_slice()
        self.slices = slices
        self.ref = self.kernel.seconds_per_slice(slices)
        self.start()

    def start(self) -> None:
        self.segments = []            # (wall seconds, reference seconds per slice)
        self.t0 = time.perf_counter()

    def split(self) -> None:
        wall = time.perf_counter() - self.t0
        ref = self.kernel.seconds_per_slice(self.slices)
        self.segments.append((wall, (self.ref + ref) / 2))
        self.ref = ref
        self.t0 = time.perf_counter()

    def stop(self) -> tuple:
        """(wall seconds, wall in reference slices, median seconds per slice)."""
        self.split()
        walls, refs = zip(*self.segments)
        rel = sum(w / r for w, r in self.segments)
        return sum(walls), rel, sorted(refs)[len(refs) // 2]
