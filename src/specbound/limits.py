"""Accumulated spectra along graph families, and what survives in the limit.

When graphs converge locally-globally their spectra converge too, so
eigenvalue accumulation points and spectral gaps are limit objects worth
tracking.

``accumulate_spectra`` unions the spectra of a family's members up to an
index bound, merging duplicates at tolerance; ``max_gap`` measures how densely
the accumulated points fill an interval; ``gap_persistence`` watches the
spectral gap across the accumulated members, reading each member's spectrum
from the accumulation and recording per-member failures rather than
aborting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .generators import GraphFamily
from .spectral import TOL, Spectrum, _check_gap_domain, _gap, adjacency_spectrum


@dataclass
class SpectrumAccumulation:
    points: Tuple[float, ...]
    per_index: Dict[int, Spectrum]
    tol: float = TOL


def _merge(values: List[float], tol: float) -> Tuple[float, ...]:
    """Sort and collapse near-duplicates, keeping the smaller of each pair."""
    out: List[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


def accumulate_spectra(family: GraphFamily, max_index: int,
                       tol: float = TOL) -> SpectrumAccumulation:
    per_index: Dict[int, Spectrum] = {}
    values: List[float] = []
    for k, g in family.members(max_index):
        spec = adjacency_spectrum(g, tol)
        per_index[k] = spec
        values.extend(spec.values)
    if not per_index:
        raise ValueError(f"family {family.name!r} has no members at index <= {max_index}")
    return SpectrumAccumulation(points=_merge(values, tol), per_index=per_index, tol=tol)


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


@dataclass(frozen=True)
class GapEntry:
    index: int
    gap: Optional[float]
    error: Optional[str] = None


def gap_persistence(family: GraphFamily,
                    acc: SpectrumAccumulation) -> List[GapEntry]:
    """Spectral gap of each member ``accumulate_spectra`` collected from
    ``family`` into ``acc``; per-member errors are recorded (irregular or
    disconnected members), never raised."""
    entries: List[GapEntry] = []
    for k, g in family.members(max(acc.per_index)):
        try:
            _check_gap_domain(g)
            entries.append(GapEntry(k, _gap(acc.per_index[k], g.max_degree)))
        except ValueError as exc:
            entries.append(GapEntry(k, None, str(exc)))
    return entries
