"""Cycle spectra: accumulation, coverage gaps, gap persistence."""

import math

import pytest

from specbound import limits
from specbound.generators import cycle
from specbound.limits import (
    GapEntry,
    SpectrumAccumulation,
    _merge,
    accumulate_spectra,
    cycle_spectrum,
    max_gap,
)
from specbound.spectral import adjacency_spectrum


def test_accumulate_small_cycles():
    # C_3 = {2, -1, -1}, C_4 = {2, 0, 0, -2}: -1 is 2cos(2 pi/3) to within an ulp
    acc = accumulate_spectra(4)
    assert acc.points == pytest.approx((-2.0, -1.0, 0.0, 2.0), abs=1e-15)
    assert [e.index for e in acc.gaps] == [3, 4]


def test_accumulate_requires_members():
    with pytest.raises(ValueError, match="no members at index <= 2"):
        accumulate_spectra(2)


def test_merge_collapses_near_duplicates_keeping_smaller():
    out = _merge([2.0, 1.0 + 5e-10, 1.0, 2.0 + 2e-10], tol=1e-9)
    assert out == (1.0, 2.0)
    out = _merge([1.0, 1.0 + 2e-9], tol=1e-9)
    assert out == (1.0, 1.0 + 2e-9)


def _list_merge(values, tol):
    """The merge as it was written for one Python list of every value."""
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 3.99, 4.0])
def test_accumulated_points_match_the_list_merge(tol):
    for max_n in range(3, 65):
        points = accumulate_spectra(max_n, tol).points
        values = [v for n in range(3, max_n + 1) for v in cycle_spectrum(n)]
        assert points == _list_merge(values, tol), max_n
        assert all(type(p) is float for p in points)


def test_merge_carries_its_last_point_across_chunks(monkeypatch):
    # runs of near-duplicates straddle the chunk boundaries
    monkeypatch.setattr(limits, "_MERGE_CHUNK", 5)
    values = [0.25 * (k % 7) + 4e-10 * (k // 7) for k in range(63)]
    assert _merge(values, 1e-9) == _list_merge(values, 1e-9)
    assert len(_merge(values, 1e-9)) == 21  # keeps 0, 1.2e-9 and 2.4e-9 above each 0.25 j


def test_max_gap_single_edge():
    acc = SpectrumAccumulation(points=(-1.0, 1.0), gaps=())
    assert max_gap(acc, (-1.0, 1.0)) == pytest.approx(2.0)
    assert max_gap(acc, (-2.0, 2.0)) == pytest.approx(2.0)  # end gaps are 1 each
    assert max_gap(acc, (0.0, 3.0)) == pytest.approx(2.0)  # 1 -> 3, the point at -1 is outside
    with pytest.raises(ValueError):
        max_gap(acc, (1.0, -1.0))


def test_cycle_accumulation_fills_band():
    acc64 = accumulate_spectra(64)
    acc32 = accumulate_spectra(32)
    assert max_gap(acc64, (-2.0, 2.0)) <= max_gap(acc32, (-2.0, 2.0))
    assert max_gap(acc64, (-2.0, 2.0)) < 0.2
    # refinement: every accumulated point persists under a larger sweep
    for x in acc32.points:
        assert min(abs(x - y) for y in acc64.points) <= 1e-9


def test_gap_persistence_cycles():
    entries = accumulate_spectra(12).gaps
    assert [e.index for e in entries] == list(range(3, 13))
    for e in entries:
        assert e.error is None
        assert e.gap == pytest.approx(2 - 2 * math.cos(2 * math.pi / e.index), abs=1e-9)
    gaps = [e.gap for e in entries]
    assert gaps == sorted(gaps, reverse=True)  # gaps shrink as cycles grow
    assert gaps[0] == pytest.approx(3.0, abs=1e-9)  # the triangle


def test_gap_persistence_records_errors():
    # at --tol 5 every eigenvalue lies within tol of the degree 2, so no cycle
    # has a gap; each failure is recorded and the sweep goes on
    acc = accumulate_spectra(8, tol=5)
    # the CLI prints these strings, so they are pinned byte for byte
    assert acc.gaps == tuple(GapEntry(n, None, "no eigenvalue below the degree; gap undefined")
                             for n in range(3, 9))
    assert acc.points == (-2.0,)  # every point merges into the smallest


def test_accumulation_record_fields():
    acc = accumulate_spectra(4)
    assert isinstance(acc, SpectrumAccumulation)
    assert acc.gaps == (GapEntry(3, pytest.approx(3.0)), GapEntry(4, pytest.approx(2.0)))


@pytest.mark.parametrize("n", [3, 4, 7, 12, 50, 256])
def test_cycle_spectrum_zeros_follow_the_noise_rule(n):
    # 2cos(pi/2) is 1.2e-16, not 0: like the dense solve's noise, it prints as 0.0
    closed = cycle_spectrum(n)
    assert list(closed) == sorted(closed)
    zeros = closed.count(0.0)
    assert zeros == adjacency_spectrum(cycle(n)).count(0.0) == (2 if n % 4 == 0 else 0)
