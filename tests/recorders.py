"""A checkpoint recorder for the tests' multi-pass references, and a call
log that forked grid workers can append to.

``solvers.run_batch`` records its checkpoints in blocks.  It advances the
kernel through up to ``kernel.slots`` checkpoints, which leaves a snapshot
of each in the kernel, then calls ``recorder.record(j, kernel, count)`` for
the checkpoints ``recorder.cp[j:j + count]`` and reads the (count, runs)
squared errors it returns.  This recorder takes the errors and the
iterates of the block from ``kernel.read(count, iterates=True)``, as the
solvers' recorder does, sums the iterates at each checkpoint and, given
``centers``, records each run's squared distance to ``centers[j]``.  It
makes the same numpy calls per checkpoint as the recorder modes the
references were first built with, so the references keep their bits.
"""

import multiprocessing

import numpy as np


class SummingRecorder:
    def __init__(self, inst, cp, runs, centers=None):
        self.inst, self.cp, self.centers = inst, cp, centers
        self.error_sq = np.empty((runs, cp.size))
        self.sum_x = np.zeros((cp.size, inst.m))
        self.centered_sq = np.empty((runs, cp.size))

    def record(self, j, kernel, count):
        err, xs = kernel.read(count, iterates=True)
        self.error_sq[:, j:j + count] = err.T
        for j, x in enumerate(xs, j):
            self.sum_x[j] += x.sum(axis=0)
            if self.centers is not None:
                d = x - self.centers[j]
                self.centered_sq[:, j] = np.einsum("rm,rm->r", d, d)
        return err


class CallLog:
    """A list that the test process and the grid's forked worker processes
    append to: each item goes through a fork-context pipe, and drain()
    returns the items in the order they arrived and empties the log.  A pipe
    holds about 64 KiB, so a test drains the log after each grid."""

    def __init__(self):
        self._queue = multiprocessing.get_context("fork").SimpleQueue()

    def append(self, item) -> None:
        self._queue.put(item)

    def drain(self) -> list:
        items = []
        while not self._queue.empty():
            items.append(self._queue.get())
        return items
