"""A fixed reference kernel, timed beside the tasks to measure machine speed.

On a shared virtual machine the same work can run up to 1.85 times slower for
stretches of seconds to minutes, and process CPU time slows just as much as
wall time.  A run therefore also times this kernel, which belongs to the
benchmark and never calls the package, between tasks (run.REF_SHARE of the
run's time).  run.py divides each task's time by the kernel's time measured
around it and multiplies by NOMINAL_MS: what remains is the task's cost at one
fixed machine speed.  A change to the package moves that figure as much as it
moves the task's time; a slow stretch of the machine moves both, and mostly
cancels: the kernel slows somewhat more than verify and spectrum do.

The kernel mixes the kinds of work the package spends its time on: complex
Givens rotations applied to numpy slices (the pattern of the QR sweep), scalar
float arithmetic in a Python loop (closed forms and recurrences) and JSON
encoding.  Changing it, or NOMINAL_MS, rescales every normalised figure, so
both stay as they are.
"""

import json
import math
from time import perf_counter

import numpy as np

# Kernel calls per sample; a sample takes 3–4 ms on a quiet machine.
REPEATS = 3
# The unit of normalised times: a task that takes as long as one sample reads
# NOMINAL_MS.  Close to a sample's time on a quiet 2-vCPU Xeon VM, so that
# normalised figures read near wall times there.
NOMINAL_MS = 4.0

_SIZE = 40
_rng = np.random.default_rng(20260101)
_MATRIX = _rng.standard_normal((_SIZE, _SIZE)) + 1j * _rng.standard_normal((_SIZE, _SIZE))


def kernel():
    """One fixed unit of work; returns a number so nothing is optimised away."""
    h = _MATRIX.copy()
    for k in range(_SIZE - 1):
        x, z = h[k, k], h[k + 1, k]
        r = math.hypot(abs(x), abs(z)) or 1.0
        c, s = x.conjugate() / r, z.conjugate() / r
        top = h[k, :].copy()
        bot = h[k + 1, :]
        h[k, :] = c * top + s * bot
        h[k + 1, :] = -s.conjugate() * top + c.conjugate() * bot
        left = h[:, k].copy()
        right = h[:, k + 1]
        h[:, k] = c.conjugate() * left + s.conjugate() * right
        h[:, k + 1] = -s * left + c * right
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i + 0.5) * 1.0001
    text = json.dumps([float(v) for v in h.real.ravel()[:400]])
    return acc + len(text)


def sample():
    """Wall time of REPEATS kernel calls, in ms."""
    start = perf_counter()
    for _ in range(REPEATS):
        kernel()
    return 1e3 * (perf_counter() - start)
