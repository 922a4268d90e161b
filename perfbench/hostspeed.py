"""Host-speed reference: a fixed piece of work that shares no code with kwspot.

On a shared host the speed of a vCPU drifts by a quarter or more over
minutes: neighbours take the other hyperthread, the caches and the memory
bus. kwspot's code and this reference slow down together, so a timed run
runs a block of reference passes between every two operations and every
two set-ups, and scales each one's time by `NOMINAL_PASS_S` over the mean
pass time of the blocks on either side of it. The scaled time is what the
operation would take on a host where one pass takes `NOMINAL_PASS_S`. A
change to kwspot moves it; the host's drift mostly does not.

One pass mixes the kinds of work kwspot does: interpreter loops (the
autodiff graph), many numpy calls on small arrays (batch 1 layers), small
matrix products (dense and LSTM gates) and a pass over a few MB of memory
(batch 32 conv and batch-norm).
"""

from __future__ import annotations

import time

import numpy as np

# About one pass on an idle 2-vCPU Xeon host with one BLAS thread.
NOMINAL_PASS_S = 4.2e-3
# A block of passes lasts about this share of the interval it brackets.
SHARE = 0.1

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 64))
_MATRIX = _rng.standard_normal((96, 96))
_LARGE = _rng.standard_normal(1 << 18)  # 2 MB
_SCRATCH = np.empty_like(_LARGE)  # so that a pass allocates no large array


def reference_pass() -> float:
    total = 0
    for j in range(20000):
        total += j * j
    x = _SMALL
    for _ in range(160):
        x = np.tanh(x * 0.5 + 0.1)
    for _ in range(16):
        x = _MATRIX @ _MATRIX
    np.multiply(_LARGE, _LARGE, out=_SCRATCH)
    np.add(_SCRATCH, 1.0, out=_SCRATCH)
    np.sqrt(_SCRATCH, out=_SCRATCH)
    return float(total) + float(x[0, 0]) + float(_SCRATCH.sum())


def block(covering: float) -> float:
    """Run passes for about SHARE of `covering` seconds (at least one) and
    return the mean seconds of one pass."""
    n = max(1, round(SHARE * covering / NOMINAL_PASS_S))
    t0 = time.perf_counter()
    for _ in range(n):
        reference_pass()
    return (time.perf_counter() - t0) / n


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two blocks whose mean pass times were
    `before` and `after`, at the nominal host speed."""
    return seconds * NOMINAL_PASS_S / ((before + after) / 2)
