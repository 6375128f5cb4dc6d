"""Core graph container, BFS connectivity, bridges, edge-list I/O."""

import hashlib

import pytest
from hypothesis import given, settings

from conftest import graphs
from specbound.enumeration import enumerate_graphs
from specbound.generators import cycle, path, petersen
from specbound.graphs import (
    DirectedGraph,
    Graph,
    bfs_levels,
    bridges,
    canonical_digest,
    dump_directed_edge_list,
    dump_edge_list,
    is_connected,
    load_directed_edge_list,
    load_edge_list,
    mask_of,
)


def test_construction_validates_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0, [])
    # reversed endpoints are normalized, not rejected (only the file format is strict)
    assert Graph(3, [(2, 1)]) == Graph(3, [(1, 2)])


def test_adjacency_is_sorted_and_symmetric():
    g = Graph(4, [(0, 3), (0, 1), (1, 3)])
    assert g.adj[0] == (1, 3)
    assert g.adj[3] == (0, 1)
    for u in range(g.n):
        for v in g.adj[u]:
            assert u in g.adj[v]


def test_degree_stats_star():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert (g.min_degree, g.max_degree) == (1, 3)
    assert sum(g.degrees) == 2 * g.m
    assert not g.is_regular
    assert cycle(5).is_regular


def test_mu_is_normalized_counting_measure():
    g = cycle(8)
    assert g.mu(g.full_mask) == pytest.approx(1.0)
    assert g.mu(mask_of([0, 1, 2])) == pytest.approx(3 / 8)
    assert g.mu(0) == 0.0


def test_components_ordered_by_least_vertex():
    # ``bfs_levels`` roots each component at its least vertex (level 0)
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert bfs_levels(g) == [0, 1, 1, 0, 1]
    assert not is_connected(g)
    assert is_connected(cycle(6))


def test_isolated_vertices_are_their_own_components():
    assert bfs_levels(Graph(3, [])) == [0, 0, 0]
    assert not is_connected(Graph(3, []))
    assert is_connected(Graph(1, []))


def _bridges_by_deletion(g):
    """Edges whose deletion adds a component, found by deleting each one;
    ``bfs_levels`` puts exactly each component's least vertex at level 0."""
    count = bfs_levels(g).count(0)
    return [e for e in g.edges()
            if bfs_levels(Graph(g.n, [f for f in g.edges() if f != e])).count(0) > count]


def test_bridges_match_edge_deletion_on_every_small_class():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert bridges(g) == _bridges_by_deletion(g), g


@given(graphs(max_n=16))
@settings(max_examples=150, deadline=None)
def test_bridges_match_edge_deletion_random(g):
    assert bridges(g) == _bridges_by_deletion(g)


def test_bridges_need_no_recursion_on_long_graphs():
    assert bridges(cycle(5000)) == []
    assert bridges(path(5000)) == [(v, v + 1) for v in range(4999)]


def test_edge_list_round_trip():
    g = petersen()
    text = dump_edge_list(g)
    assert load_edge_list(text) == g
    assert dump_edge_list(load_edge_list(text)) == text


@given(graphs(max_n=14))
@settings(max_examples=60, deadline=None)
def test_edge_list_round_trip_random(g):
    assert load_edge_list(dump_edge_list(g)) == g


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 1\n1 0\n",  # reversed endpoints
        "3 1\n0 3\n",  # out of range
        "3 2\n0 1\n",  # short
        "3 1\n0 1\n0 2\n",  # long
        "3 1\n0 1 2\n",  # malformed line
        "a b\n",
    ],
)
def test_edge_list_rejects_malformed(text):
    with pytest.raises(ValueError):
        load_edge_list(text)


def test_digest_is_sha256_of_dump():
    g = cycle(6)
    expected = hashlib.sha256(dump_edge_list(g).encode()).hexdigest()
    assert canonical_digest(g) == expected


def test_directed_round_trip_and_functions():
    d = DirectedGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    text = dump_directed_edge_list(d)
    back = load_directed_edge_list(text)
    assert back.arcs() == d.arcs()
    assert back.n == 3
    u = d.underlying()
    assert u == Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_directed_in_degrees():
    d = DirectedGraph(3, [(0, 1), (2, 1), (1, 0)])
    assert [sum(v in out for out in d.out) for v in range(3)] == [1, 2, 0]
    assert d.out_degrees == (1, 1, 1)
