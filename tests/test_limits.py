"""Spectra along graph families: accumulation, gap decay, distance functionals."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from specbound.generators import GraphFamily, complete, constant_family, cycle, cycle_family, path
from specbound.limits import (
    SpectrumAccumulation,
    _merge,
    accumulate_spectra,
    delta,
    gap_persistence,
    max_gap,
)
from specbound.spectral import adjacency_spectrum


def test_accumulate_constant_family():
    acc = accumulate_spectra(constant_family(complete(2)), 5)
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
    acc = accumulate_spectra(constant_family(complete(2)), 3)
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


def test_delta_matches_band_distance_for_cycles():
    # eigenvalues of large cycles fill [-2, 2]; distance-squared to the spectrum
    # approaches the distance to the band
    spec = adjacency_spectrum(cycle(200))
    for x in (-3.0, -1.3, 0.0, 0.7, 2.5):
        band = 0.0 if abs(x) <= 2 else (abs(x) - 2) ** 2
        slack = (2 * math.pi / 200) * (4 + 2 * abs(x))
        assert abs(delta(spec, x) - band) <= slack


@given(graphs(min_n=2, max_n=10), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_delta_equals_direct_minimum(g, x):
    spec = adjacency_spectrum(g)
    direct = min((x - lam) ** 2 for lam in spec.values)
    assert delta(spec, x) == pytest.approx(direct, abs=1e-9)


def test_delta_zero_iff_on_spectrum():
    spec = adjacency_spectrum(complete(3))
    assert delta(spec, 2.0) == pytest.approx(0.0, abs=1e-9)
    assert delta(spec, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_gap_persistence_cycles():
    fam = cycle_family()
    rep = gap_persistence(fam, accumulate_spectra(fam, 12))
    assert [e.index for e in rep.entries] == list(range(3, 13))
    for e in rep.entries:
        assert e.error is None
        assert e.gap == pytest.approx(2 - 2 * math.cos(2 * math.pi / e.index), abs=1e-9)
    assert rep.gaps == sorted(rep.gaps, reverse=True)  # gaps shrink as cycles grow
    assert rep.min_gap == pytest.approx(2 - 2 * math.cos(2 * math.pi / 12), abs=1e-9)
    assert rep.max_gap == pytest.approx(3.0, abs=1e-9)  # the triangle


def test_gap_persistence_records_errors():
    fam = GraphFamily("paths", path, range(1, 100))
    rep = gap_persistence(fam, accumulate_spectra(fam, 5))
    # paths are not regular (endpoints differ), so most entries report a failure
    failing = [e for e in rep.entries if e.error is not None]
    assert len(failing) >= 3
    for e in failing:
        assert e.gap is None
    # ...but the single-edge path is 1-regular, and its gap is 2
    ok = {e.index: e.gap for e in rep.entries if e.error is None}
    assert ok == {2: pytest.approx(2.0)}


def test_accumulation_record_fields():
    acc = accumulate_spectra(constant_family(complete(2)), 2)
    assert isinstance(acc, SpectrumAccumulation)
    assert acc.per_index[1].values == acc.per_index[2].values
