"""Machine-speed probe for the end-to-end times.

On a shared host the same solve can take up to 1.8 times longer in one
minute than in the next, with no steal time and CPU time equal to wall
time: the host slows the virtual CPU down. Longer runs do not remove that,
since the slow and fast phases last minutes. So every timed solve is bracketed by runs of a
fixed probe kernel that calls nothing of ergmart, and its wall time is
scaled by REFERENCE_S over the probe time measured around it. The result is
in seconds at the speed the machine had when REFERENCE_S was measured; a
change to ergmart moves it as it moves the wall time, but a slow phase of
the host moves the probe as well and largely cancels out.

The kernel mixes the two kinds of work that ergmart's solves are made of, in
about equal time: interpreted Python making many small numpy calls, and
vectorised numpy over arrays of about 10^5 elements. (A BLAS
matrix product was tried as a third part; it tracked the solves' times less
well, dense wide_space solves included.)
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.035     # median probe time on the machine the README names
_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((64, 2))
_LONG = _RNG.standard_normal((840, 64, 2))
_COUNTS = np.arange(1, 841, dtype=float)[:, None, None]


def probe() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(2000):
        b = _SMALL * (i % 7) + 1.0
        table[i % 97] = table.get(i % 97, 0.0) + float(np.abs(b).max())
        sum(x * x for x in range(20))
    for _ in range(12):
        c = np.cumsum(_LONG, axis=0) / _COUNTS
        np.abs(c - _LONG).max(axis=(1, 2)).sum()
    return time.perf_counter() - start


def scaled(wall_s: float, probe_s: float) -> float:
    """Wall seconds scaled to the reference speed."""
    return wall_s * REFERENCE_S / probe_s
