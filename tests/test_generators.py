"""Graph builders: named families, subdivision, function systems, pairing model."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import isomorphic
from specbound.generators import (
    complete,
    complete_bipartite,
    cycle,
    function_graph,
    paley_tournament,
    path,
    petersen,
    random_regular,
    subdivide,
)
from specbound.graphs import Graph


def test_cycle_and_path_shapes():
    assert cycle(3) == complete(3)
    assert path(1).n == 1 and path(1).m == 0
    assert path(5).m == 4
    assert cycle(7).m == 7
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


def test_complete_bipartite_degrees():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert g.degrees[0] == 3 and g.degrees[4] == 2
    # no edges inside either side
    for u in range(2):
        assert all(v >= 2 for v in g.adj[u])


def test_petersen_shape():
    p = petersen()
    assert p.n == 10 and p.m == 15
    assert p.is_regular and p.max_degree == 3
    assert p.adj[0] == (1, 4, 5)
    assert p.adj[5] == (0, 7, 8)


def test_subdivide_cycle_doubles_it():
    assert isomorphic(subdivide(cycle(4)), cycle(8))
    assert isomorphic(subdivide(cycle(5)), cycle(10))


def test_subdivide_complete_graph_is_biregular():
    s = subdivide(complete(4))
    assert s.n == 10  # 4 originals + 6 midpoints
    assert sorted(set(s.degrees)) == [2, 3]
    assert all(s.degrees[v] == 3 for v in range(4))
    assert all(s.degrees[v] == 2 for v in range(4, 10))


def test_subdivide_requires_regular():
    with pytest.raises(ValueError):
        subdivide(path(4))


def test_paley_tournament():
    d = paley_tournament()
    assert d.n == 7
    assert d.out[0] == (1, 2, 4)
    assert d.out[3] == (0, 4, 5)
    assert d.underlying() == complete(7)
    assert all(sum(v in out for out in d.out) == 3 for v in range(7))  # in-degrees
    assert d.n_functions == 3


def test_function_graph_dedupes_and_skips_fixed_points():
    d = function_graph([[1, 2, 0], [1, 2, 0]])  # identical maps collapse
    assert d.out == ((1,), (2,), (0,))
    e = function_graph([[0, 0, 0]])  # 0 is a fixed point: no loop arc
    assert e.out == ((), (0,), (0,))
    assert e.n_functions == 1


def test_function_graph_validates():
    with pytest.raises(ValueError):
        function_graph([[0, 3, 1]])
    with pytest.raises(ValueError):
        function_graph([[0, 1], [0, 1, 2]])
    with pytest.raises(ValueError):
        function_graph([])


def test_random_regular_is_deterministic_and_regular():
    a = random_regular(10, 3, seed=7)
    b = random_regular(10, 3, seed=7)
    assert a == b
    assert a.is_regular and a.max_degree == 3
    c = random_regular(10, 3, seed=8)
    assert c.is_regular
    assert a != c  # distinct seeds give distinct pairings here


@given(st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_random_regular_always_simple_and_regular(seed):
    g = random_regular(12, 4, seed=seed)
    assert isinstance(g, Graph)
    assert g.is_regular and g.max_degree == 4
    assert g.m == 12 * 4 // 2


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)  # odd total degree
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)


def test_random_regular_large_degree_is_an_input_error():
    # about one pairing in 10^7 is simple at d = 8: the attempts run out
    with pytest.raises(ValueError, match="d=8 is too large"):
        random_regular(40, 8, seed=0)


def test_random_regular_draws_are_pinned():
    # one seeded draw each at d = 3 and d = 4, edge for edge
    assert random_regular(10, 3, seed=7).edges() == (
        (0, 5), (0, 6), (0, 9), (1, 4), (1, 6), (1, 7), (2, 3), (2, 5), (2, 7), (3, 4),
        (3, 7), (4, 8), (5, 9), (6, 8), (8, 9))
    assert random_regular(12, 4, seed=1).edges() == (
        (0, 4), (0, 5), (0, 9), (0, 10), (1, 2), (1, 3), (1, 8), (1, 9), (2, 6), (2, 8),
        (2, 10), (3, 4), (3, 5), (3, 10), (4, 6), (4, 9), (5, 7), (5, 11), (6, 7), (6, 11),
        (7, 8), (7, 11), (8, 9), (10, 11))


def test_random_regular_fails_fast_where_no_pairing_is_simple():
    # below 10^-12 of pairings are simple from d = 11: no stub is shuffled
    start = time.perf_counter()
    with pytest.raises(ValueError, match="d=3000 is too large"):
        random_regular(4000, 3000, seed=0)
    assert time.perf_counter() - start < 1.0

