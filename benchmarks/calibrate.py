"""A fixed reference kernel that measures how fast the host runs at the moment.

The benchmark's host is shared with other work, and its speed changes by up
to a factor of 1.7 for seconds to minutes at a time.  A run of half a minute
lands in whatever state the host is in, so raw seconds per operation spread
by a fifth or more between runs of the same code.  Timing this kernel after
each block of operations measures the host's speed around that block, and
``rescale`` turns the block's seconds into seconds at the reference speed.
On a 2-vCPU Xeon virtual machine shared with other work, that halves the
spread of a run's median or better (see README.md).

The kernel does not use screenlab, so a change to the program moves the
operation's time and leaves the kernel's alone.  It mixes the kinds of work
the workloads do:

- pure-Python row formatting that allocates tens of megabytes of strings;
- scalar math calls;
- numpy/scipy calls on panel-sized arrays, where the per-call cost dominates;
- vectorized passes over arrays too large for the caches.

A kernel that stays in the caches does not slow down with the workloads
when the host's memory is contended.  Because the kernel allocates, the
worker reads its peak memory before the first calibration.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy.special import expit, log_ndtr, ndtr

# the kernel's seconds on a quiet host; it sets the scale of rescaled times
REFERENCE_S = 0.75

ROWS = 150_000
SCALARS = 150_000
PANEL_N = 60
PANEL_CALLS = 15_000
VECTOR_N = 1_000_000
VECTOR_PASSES = 6
VECTOR_SEED = 20221201


def _rows() -> int:
    rows = []
    for i in range(ROWS):
        v = i * 0.37 - 11.0
        rows.append(",".join((repr(v), f"{v * v:.6g}", str(i & 1))))
    return len("\n".join(rows))


def _scalars() -> float:
    acc = 0.0
    for i in range(SCALARS):
        x = i * 1e-5 - 1.5
        acc += 0.5 * math.erfc(-x / math.sqrt(2.0)) * math.exp(-x * x)
    return acc


def _panels() -> float:
    x = np.linspace(-1.5, 1.5, PANEL_N)
    acc = 0.0
    for i in range(PANEL_CALLS):
        t = np.asarray(i * 1e-4 - 0.3, dtype=float)
        acc += float(expit(np.log1p(t * t) + log_ndtr(t - 0.7 * x)).sum())
    return acc


def _vectors() -> float:
    x = np.random.default_rng(VECTOR_SEED).standard_normal(VECTOR_N)
    acc = 0.0
    for _ in range(VECTOR_PASSES):
        y = ndtr(x * 1.3 - 0.2) - np.exp(-0.5 * x * x)
        acc += float(np.sort(y)[VECTOR_N // 2])
    return acc


def kernel_s() -> float:
    """Seconds the fixed kernel takes now."""
    started = perf_counter()
    _rows()
    _scalars()
    _panels()
    _vectors()
    return perf_counter() - started


def rescale(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the kernel took ``calibration_s``, at the
    speed at which it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / calibration_s
