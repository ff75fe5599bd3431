"""A fixed probe of host speed, run between operations.

On a shared virtual machine the speed of the host drifts: on the 2-core box
this benchmark was sized on, one identical 1500-step operation took from
1.05 s to 2.4 s within half an hour, while the work done (pair counts,
builds, contacts) was the same to the bit and no steal time was reported.
A fixed probe run right before and after each operation sees the same
drift, so an operation's wall time divided by its probe time measures the
program, not the host.

The probe is frozen here on purpose: it must not change when the program
does.  It is two numpy passes shaped like the engine's two kinds of work:
a pair search (cell binning, stable sort, ``searchsorted``, ragged gathers,
``einsum``, ``np.add.at``) with about as many candidate pairs as a build of
500 particles, and a dense distance matrix like the shadow scan's at 588
particles.  Logged for nine minutes beside all three workloads, the two
passes together tracked every workload better than either pass alone: the
medians of six-operation windows spread by 4-7% against 10-16% unscaled.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe wall time, in seconds, that defines one reference second: about
#: the probe's time on the box above in a fast phase.
REFERENCE_S = 0.1

_RNG = np.random.default_rng(20221)
_POINTS = _RNG.uniform(0.0, 1.0, (2000, 3))
_GRID = 6
_DENSE = _RNG.uniform(0.0, 0.2, (588, 3))


def _pair_pass(reps: int = 25) -> None:
    p = _POINTS
    ids = np.arange(len(p))
    for _ in range(reps):
        cell = np.floor(p * _GRID).astype(np.int64)
        lin = (cell[:, 0] * _GRID + cell[:, 1]) * _GRID + cell[:, 2]
        order = np.argsort(lin, kind="stable")
        ordered = lin[order]
        lo = np.searchsorted(ordered, lin)
        counts = np.searchsorted(ordered, lin, side="right") - lo
        a = np.repeat(ids, counts)
        head = np.repeat(np.cumsum(counts) - counts, counts)
        b = order[np.repeat(lo, counts) + np.arange(len(a)) - head]
        d = p[a] - p[b]
        close = np.einsum("ij,ij->i", d, d) < 0.01
        acc = np.zeros((len(p), 3))
        np.add.at(acc, a[close], d[close])


def _dense_pass(reps: int = 15, block: int = 147) -> None:
    # row blocks keep the probe's temporaries (~0.7 MB) below the program's,
    # so that peak_rss_mb measures the program
    q = _DENSE
    for _ in range(reps):
        sq = np.einsum("ij,ij->i", q, q)
        for lo in range(0, len(q), block):
            d2 = sq[lo:lo + block, None] + sq[None, :] - 2.0 * (q[lo:lo + block] @ q.T)
            np.nonzero(d2 <= 1e-4)


def probe() -> float:
    """Wall seconds for one fixed unit of probe work."""
    t0 = time.perf_counter()
    _pair_pass()
    _dense_pass()
    return time.perf_counter() - t0
