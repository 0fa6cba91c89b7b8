"""A checkpoint recorder for the tests' multi-pass references.

``solvers.run_batch`` calls ``recorder.record(j, kernel)`` at each
checkpoint ``recorder.cp[j]``.  Besides the per-run squared errors, which it
takes from ``kernel.error_sq()`` as the solvers' recorder does, this
recorder sums the iterates ``kernel.iterates()`` at each checkpoint and,
given ``centers``, records each run's squared distance to ``centers[j]``.
It makes the same numpy calls as the recorder modes the references were
first built with, so the references keep their bits.
"""

import numpy as np


class SummingRecorder:
    def __init__(self, inst, cp, runs, centers=None):
        self.inst, self.cp, self.centers = inst, cp, centers
        self.error_sq = np.empty((runs, cp.size))
        self.sum_x = np.zeros((cp.size, inst.m))
        self.centered_sq = np.empty((runs, cp.size))

    def record(self, j, kernel):
        err = kernel.error_sq()
        self.error_sq[:, j] = err
        x = kernel.iterates()
        self.sum_x[j] += x.sum(axis=0)
        if self.centers is not None:
            d = x - self.centers[j]
            self.centered_sq[:, j] = np.einsum("rm,rm->r", d, d)
        return err
