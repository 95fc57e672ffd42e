"""Reference-speed calibration of the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.8x for a minute at a time, and every job of a repetition is slowed
alike, so no statistic over the repetitions of one run removes the drift.
Each child therefore times a fixed piece of pure-Python work, the
calibration sample, before ``import schurgrid``, after the tables are
built and after every job.  A span's time is multiplied by
``(REFERENCE_S / s) ** ELASTICITY``, where ``s`` is the mean of the samples
taken just before and just after it: the reported times are seconds at the
speed at which one slice takes ``REFERENCE_S``.  The sample never calls
``schurgrid``, so at any one speed of the host a change to the program
moves the calibrated times exactly as it moves the raw ones.

The sample composes permutations, collects them in a set and counts their
descent sets in a dict: the kind of work the program spends its time on.
It is more sensitive to the host's slow phases than the program is: over
ten runs of each workload (81 grid-star and 36 fold-qsym repetitions), the
log of a repetition's raw time rose by 0.62 (grid-star) and 0.72
(fold-qsym) per unit of the log of its mean sample.  :data:`ELASTICITY`
rounds that slope; with 1 the calibration over-corrects and the drift
shows up reversed.
"""

from __future__ import annotations

import time
from typing import Sequence

# About the mean time of one slice in the quiet phases of the 2-core host
# the bounds were measured on (Python 3.11), so that calibrated times read
# close to raw ones there.
REFERENCE_S = 0.007

# How strongly the program's speed follows the sample's (see above).
ELASTICITY = 0.7

SLICES = 4


def _permutations(count: int, n: int) -> list[tuple[int, ...]]:
    """``count`` fixed permutations of ``range(n)`` (a seeded shuffle that
    does not depend on the ``random`` module's version)."""
    x, out = 12345, []
    for _ in range(count):
        p = list(range(n))
        for i in range(n - 1, 0, -1):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            j = x % (i + 1)
            p[i], p[j] = p[j], p[i]
        out.append(tuple(p))
    return out


_PERMS = _permutations(60, 8)


def _slice() -> int:
    seen: set[tuple[int, ...]] = set()
    counts: dict[int, int] = {}
    for a in _PERMS:
        for b in _PERMS:
            c = tuple([a[i] for i in b])
            seen.add(c)
            mask = 0
            for i in range(len(c) - 1):
                if c[i] > c[i + 1]:
                    mask |= 1 << i
            counts[mask] = counts.get(mask, 0) + 1
    return len(seen) + len(counts)


def sample() -> float:
    """Mean time of one slice over :data:`SLICES` slices, in seconds."""
    t = time.perf_counter()
    for _ in range(SLICES):
        _slice()
    return (time.perf_counter() - t) / SLICES


def scale(durations: Sequence[float], samples: Sequence[float]) -> float:
    """Sum of ``durations`` at reference speed.

    ``samples`` has one more entry than ``durations``: the sample taken
    before the first span, then the one taken after each span.
    """
    if len(samples) != len(durations) + 1:
        raise ValueError(f"{len(durations)} spans need {len(durations) + 1} samples, got {len(samples)}")
    return sum(
        d * (REFERENCE_S / ((before + after) / 2)) ** ELASTICITY
        for d, before, after in zip(durations, samples, samples[1:])
    )
