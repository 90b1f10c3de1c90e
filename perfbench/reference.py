"""A fixed reference job, timed between ops to track the host's speed.

On a shared host the CPU speed available to one process can swing by a
factor of two over tens of seconds, which moves every wall time with it.
The runner times this job next to each op and reports op time in units of
it ("ref"), which cancels that swing.  The job uses no cmclab code, so a
change to cmclab moves op time in ref units exactly as it moves seconds.
It mixes the two kinds of work cmclab does: formatting doubles at 17
significant digits, and batched complex 2x2 products with elementwise math.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_VALUES = [k / 7.0 + 1e-3 * k for k in range(10_000)]
_A = np.linspace(0.0, 1.0, 101 * 101 * 4).reshape(101, 101, 2, 2) * (1.0 + 0.5j)


def reference_seconds() -> float:
    """Wall time of one run of the reference job."""
    t0 = perf_counter()
    for _ in range(4):
        " ".join(f"{v:.17g}" for v in _VALUES)
    for _ in range(8):
        B = _A @ _A.conj().swapaxes(-1, -2)
        np.exp(B.real).sum()
    return perf_counter() - t0
