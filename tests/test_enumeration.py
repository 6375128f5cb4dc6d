"""Isomorphism-free generation and canonical forms, pinned to classical counts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from specbound.enumeration import (
    MAX_ENUM_N,
    canonical_key,
    enumerate_graphs,
    isomorphic,
)
from specbound.generators import complete, complete_bipartite, cycle, petersen, subdivide
from specbound.graphs import CapExceeded, Graph

# numbers of simple graphs on n unlabeled vertices, and connected ones
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


@pytest.mark.parametrize("n", sorted(ALL_COUNTS))
def test_counts_all_graphs(n):
    assert len(enumerate_graphs(n)) == ALL_COUNTS[n]


@pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
def test_counts_connected_graphs(n):
    assert len(enumerate_graphs(n, connected=True)) == CONNECTED_COUNTS[n]


def test_counts_regular_graphs():
    # connected regular graphs on 6 vertices: C6; K3,3 and the prism; the
    # octahedron; K6
    got = enumerate_graphs(6, connected=True, regular=True)
    assert len(got) == 5
    degrees = sorted(g.max_degree for g in got)
    assert degrees == [2, 3, 3, 4, 5]


def test_enumeration_members_are_canonical_and_distinct():
    got = enumerate_graphs(5)
    keys = {canonical_key(g.adj_masks, g.n) for g in got}
    assert len(keys) == len(got)
    for g in got:
        assert g.n == 5


def test_cap_is_enforced():
    with pytest.raises(CapExceeded):
        enumerate_graphs(MAX_ENUM_N + 1)


def _relabel(g, perm):
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in [(u, v) for u in range(g.n) for v in g.adj[u] if u < v])
    return Graph(g.n, edges)


@given(graphs(min_n=1, max_n=8), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_canonical_key_is_relabeling_invariant(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = _relabel(g, perm)
    assert canonical_key(g.adj_masks, g.n) == canonical_key(h.adj_masks, h.n)
    assert isomorphic(g, h)


def test_isomorphic_distinguishes():
    assert isomorphic(subdivide(cycle(4)), cycle(8))
    assert not isomorphic(cycle(6), Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    assert not isomorphic(cycle(6), cycle(7))
    assert not isomorphic(complete_bipartite(3, 3), complete_bipartite(2, 4))


def test_petersen_is_its_own_class():
    p = petersen()
    assert isomorphic(p, _relabel(p, [3, 8, 1, 9, 4, 0, 2, 7, 5, 6]))


def test_complete_and_empty_special_cases():
    for n in (1, 2, 5, 8):
        assert canonical_key(complete(n).adj_masks, n) is not None
        assert canonical_key(Graph(n, []).adj_masks, n) is not None
        if n > 1:
            assert not isomorphic(complete(n), Graph(n, []))
    assert isomorphic(complete(1), Graph(1, []))
    assert isomorphic(complete(2), Graph(2, [(0, 1)]))
