"""Accumulated cycle spectra, and what survives in the limit.

When graphs converge locally-globally their spectra converge too, so
eigenvalue accumulation points and spectral gaps are limit objects worth
tracking.

``accumulate_spectra`` unions the spectra of the cycles C_3..C_N, whose
closed form ``cycle_spectrum`` takes (so no graph is built and no matrix
solved), merging duplicates at tolerance, and records each cycle's spectral
gap (or why it has none); ``max_gap`` measures how densely the accumulated
points fill an interval.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .spectral import TOL, _gap


@dataclass(frozen=True)
class GapEntry:
    index: int
    gap: Optional[float]
    error: Optional[str] = None


@dataclass
class SpectrumAccumulation:
    points: Tuple[float, ...]
    gaps: Tuple[GapEntry, ...]


# The merge sorts every value as one float64 array and reads it back
# _MERGE_CHUNK values at a time, so at most one chunk of them is ever a
# Python float: ``limit --max-n 2048`` (2.1 million values) peaked at 137 MB
# as one list and 95 MB so.
_MERGE_CHUNK = 1 << 16


def _merge(values: Sequence[float], tol: float) -> Tuple[float, ...]:
    """Sort and collapse near-duplicates, keeping the smaller of each pair."""
    ordered = np.sort(np.asarray(values, dtype=float))
    out: List[float] = []
    for i in range(0, ordered.size, _MERGE_CHUNK):
        for v in ordered[i:i + _MERGE_CHUNK].tolist():
            if not out or v - out[-1] > tol:
                out.append(v)
    return tuple(out)


def cycle_spectrum(n: int) -> Tuple[float, ...]:
    """Adjacency spectrum of C_n, sorted; values with ``|x| <= TOL`` are 0.0,
    as the tolerance policy sets a dense solve's noise."""
    vals = sorted(2 * math.cos(2 * math.pi * k / n) for k in range(n))
    return tuple(0.0 if abs(v) <= TOL else v for v in vals)


def accumulate_spectra(max_n: int, tol: float = TOL) -> SpectrumAccumulation:
    """The spectra of C_3..C_max_n merged at ``tol``, and each cycle's gap."""
    if max_n < 3:
        raise ValueError(f"family 'cycles' has no members at index <= {max_n}")
    gaps: List[GapEntry] = []
    values = array("d")  # about max_n^2 / 2 of them, 8 bytes each
    for n in range(3, max_n + 1):
        spec = cycle_spectrum(n)
        try:  # a --tol near 4 or above leaves no eigenvalue below the degree
            gaps.append(GapEntry(n, _gap(spec, 2, tol)))
        except ValueError as exc:
            gaps.append(GapEntry(n, None, str(exc)))
        values.extend(spec)
    return SpectrumAccumulation(points=_merge(values, tol), gaps=tuple(gaps))


def max_gap(acc: SpectrumAccumulation, interval: Tuple[float, float]) -> float:
    """Largest distance between consecutive accumulated points in an interval.

    The interval endpoints act as anchors, so sparse coverage near the ends
    is charged to the gap as well.
    """
    lo, hi = interval
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    inside = [p for p in acc.points if lo <= p <= hi]
    anchors = [lo] + inside + [hi]
    return max(b - a for a, b in zip(anchors, anchors[1:]))
