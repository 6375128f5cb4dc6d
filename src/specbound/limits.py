"""Accumulated spectra along graph families, and what survives in the limit.

When graphs converge locally-globally their spectra converge too, so
eigenvalue accumulation points and spectral gaps are limit objects worth
tracking.

``accumulate_spectra`` unions the spectra of a family's members up to an
index bound, merging duplicates at tolerance, and records each member's
spectral gap (or why it has none) while the member is at hand, so no member
is built twice and none is kept; ``max_gap`` measures how densely the
accumulated points fill an interval; ``gap_persistence`` lists the recorded
gaps, per-member failures included rather than aborting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .generators import GraphFamily
from .spectral import TOL, _check_gap_domain, _gap, adjacency_spectrum


@dataclass(frozen=True)
class GapEntry:
    index: int
    gap: Optional[float]
    error: Optional[str] = None


@dataclass
class SpectrumAccumulation:
    points: Tuple[float, ...]
    gaps: Tuple[GapEntry, ...]


def _merge(values: List[float], tol: float) -> Tuple[float, ...]:
    """Sort and collapse near-duplicates, keeping the smaller of each pair."""
    out: List[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


def accumulate_spectra(family: GraphFamily, max_index: int,
                       tol: float = TOL) -> SpectrumAccumulation:
    gaps: List[GapEntry] = []
    values: List[float] = []
    for k, g in family.members(max_index):
        spec = adjacency_spectrum(g, tol)
        try:  # irregular or disconnected members have no gap
            _check_gap_domain(g)
            gaps.append(GapEntry(k, _gap(spec, g.max_degree)))
        except ValueError as exc:
            gaps.append(GapEntry(k, None, str(exc)))
        values.extend(spec.values)
    if not gaps:
        raise ValueError(f"family {family.name!r} has no members at index <= {max_index}")
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


def gap_persistence(acc: SpectrumAccumulation) -> List[GapEntry]:
    """Spectral gap of each member ``accumulate_spectra`` collected into
    ``acc``, in index order; per-member errors (irregular or disconnected
    members) are recorded, never raised."""
    return list(acc.gaps)
