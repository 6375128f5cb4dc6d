"""Spectra along graph families: accumulation, coverage gaps, gap persistence."""

import math

import pytest

from specbound.generators import GraphFamily, complete, cycle_family, path
from specbound.limits import (
    SpectrumAccumulation,
    _merge,
    accumulate_spectra,
    gap_persistence,
    max_gap,
)

# the single edge at every index 1, 2, ...
SINGLE_EDGE = GraphFamily("constant", lambda _k: complete(2), range(1, 100))


def test_accumulate_constant_family():
    acc = accumulate_spectra(SINGLE_EDGE, 5)
    assert acc.points == (-1.0, 1.0)
    assert set(acc.per_index) == {1, 2, 3, 4, 5}
    assert acc.tol == pytest.approx(1e-9)


def test_accumulate_requires_members():
    fam = GraphFamily("empty", lambda n: complete(2), range(3, 3))
    with pytest.raises(ValueError):
        accumulate_spectra(fam, 10)


def test_merge_collapses_near_duplicates_keeping_smaller():
    out = _merge([2.0, 1.0 + 5e-10, 1.0, 2.0 + 2e-10], tol=1e-9)
    assert out == (1.0, 2.0)
    out = _merge([1.0, 1.0 + 2e-9], tol=1e-9)
    assert out == (1.0, 1.0 + 2e-9)


def test_max_gap_single_edge():
    acc = accumulate_spectra(SINGLE_EDGE, 3)
    assert max_gap(acc, (-1.0, 1.0)) == pytest.approx(2.0)
    assert max_gap(acc, (-2.0, 2.0)) == pytest.approx(2.0)  # end gaps are 1 each
    with pytest.raises(ValueError):
        max_gap(acc, (1.0, -1.0))


def test_cycle_accumulation_fills_band():
    acc64 = accumulate_spectra(cycle_family(), 64)
    acc32 = accumulate_spectra(cycle_family(), 32)
    assert max_gap(acc64, (-2.0, 2.0)) <= max_gap(acc32, (-2.0, 2.0))
    assert max_gap(acc64, (-2.0, 2.0)) < 0.2
    # refinement: every accumulated point persists under a larger sweep
    for x in acc32.points:
        assert min(abs(x - y) for y in acc64.points) <= 1e-9


def test_gap_persistence_cycles():
    fam = cycle_family()
    entries = gap_persistence(accumulate_spectra(fam, 12))
    assert [e.index for e in entries] == list(range(3, 13))
    for e in entries:
        assert e.error is None
        assert e.gap == pytest.approx(2 - 2 * math.cos(2 * math.pi / e.index), abs=1e-9)
    gaps = [e.gap for e in entries]
    assert gaps == sorted(gaps, reverse=True)  # gaps shrink as cycles grow
    assert gaps[0] == pytest.approx(3.0, abs=1e-9)  # the triangle


def test_gap_persistence_records_errors():
    fam = GraphFamily("paths", path, range(1, 100))
    entries = gap_persistence(accumulate_spectra(fam, 5))
    # paths are not regular (endpoints differ), so most entries report a failure
    failing = [e for e in entries if e.error is not None]
    assert len(failing) >= 3
    for e in failing:
        assert e.gap is None
    # the CLI prints these strings, so they are pinned byte for byte
    assert {e.index: e.error for e in failing} == {
        1: "no eigenvalue below the degree; gap undefined",
        3: "spectral gap is defined for regular graphs",
        4: "spectral gap is defined for regular graphs",
        5: "spectral gap is defined for regular graphs"}
    # ...but the single-edge path is 1-regular, and its gap is 2
    ok = {e.index: e.gap for e in entries if e.error is None}
    assert ok == {2: pytest.approx(2.0)}


def test_accumulation_record_fields():
    acc = accumulate_spectra(SINGLE_EDGE, 2)
    assert isinstance(acc, SpectrumAccumulation)
    assert acc.per_index[1].values == acc.per_index[2].values
