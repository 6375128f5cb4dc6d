"""Isomorphism-free generation and canonical forms, pinned to classical counts."""

import gc
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, isomorphic
from specbound import enumeration, invariants
from specbound.enumeration import (
    MAX_ENUM_N,
    canonical_key,
    enumerate_graphs,
    graph_masks,
    masks_from_key,
)
from specbound.generators import complete, complete_bipartite, cycle, petersen, subdivide
from specbound.graphs import CapExceeded, Graph
from specbound.matching import perfect_matching_oracle

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
    got = [g for g in enumerate_graphs(6, connected=True) if g.is_regular]
    assert len(got) == 5
    degrees = sorted(g.max_degree for g in got)
    assert degrees == [2, 3, 3, 4, 5]


def test_enumerated_graphs_are_memoized_once():
    for n in (5, 6):
        assert enumerate_graphs(n) is enumerate_graphs(n)
        assert enumerate_graphs(n, connected=True) is enumerate_graphs(n, connected=True)
    # the invariant sweeps read the same objects and keep no cache of their own
    swept = list(invariants._connected([6]))
    assert len(swept) == CONNECTED_COUNTS[6]
    assert all(a is b for a, b in zip(swept, enumerate_graphs(6, connected=True)))
    assert not any(hasattr(v, "cache_info") for v in vars(invariants).values())


def test_connected_members_are_the_full_lists_objects():
    # one Graph per class, so a spectrum kept on it is solved once for both lists
    for n in range(1, 8):
        everyone = {id(g) for g in enumerate_graphs(n)}
        assert all(id(g) in everyone for g in enumerate_graphs(n, connected=True)), n


def test_enumeration_members_are_canonical_and_distinct():
    for n in range(1, 8):
        reps = graph_masks(n)
        for rep in reps:
            assert len(rep) == n
            assert masks_from_key(canonical_key(rep, n)) == rep
        assert len(set(reps)) == len(reps)


@pytest.fixture(scope="module")
def glued_and_deduped():
    """The class lists built the slow way: glue a new vertex onto every
    subset of every smaller class and keep one graph per canonical key."""
    levels = {1: [(0,)]}
    for n in range(2, 8):
        k = n - 1
        seen = {}
        for adj in levels[k]:
            for s in range(1 << k):
                cand = tuple(adj[v] | (((s >> v) & 1) << k) for v in range(k)) + (s,)
                key = canonical_key(cand, n)
                if key not in seen:
                    seen[key] = masks_from_key(key)
        levels[n] = list(seen.values())
    return levels


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_augmentation_matches_glue_and_dedup(glued_and_deduped, n):
    assert sorted(graph_masks(n)) == sorted(glued_and_deduped[n])


def test_graph_masks_match_networkx_atlas():
    nx = pytest.importorskip("networkx")

    def bucket(h):
        return h.number_of_nodes(), tuple(sorted(d for _, d in h.degree()))

    atlas = defaultdict(list)
    for h in nx.graph_atlas_g()[1:]:  # entry 0 is the graph on no vertices
        atlas[bucket(h)].append(h)
    ours = defaultdict(list)
    for n in range(1, 8):
        for adj in graph_masks(n):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from((u, v) for u in range(n) for v in range(u) if adj[u] >> v & 1)
            ours[bucket(h)].append(h)
    assert ours.keys() == atlas.keys()
    for key, hs in atlas.items():
        iso = [[nx.is_isomorphic(g, h) for h in hs] for g in ours[key]]
        assert len(iso) == len(hs), key
        assert all(sum(row) == 1 for row in iso), key
        assert all(sum(col) == 1 for col in zip(*iso)), key


def test_cold_enumeration_is_memoized_only_in_cache(monkeypatch):
    # a cold enumeration clears _CACHE alone, so any other memo (of
    # automorphisms or searches) would make the second run cheaper
    searches = []
    real = enumeration._search

    def counting(adj, n, ranks):
        searches.append(n)
        return real(adj, n, ranks)

    monkeypatch.setattr(enumeration, "_search", counting)
    saved = dict(enumeration._CACHE)
    counts = []
    try:
        for _ in range(2):
            enumeration._CACHE.clear()
            enumeration._CACHE[1] = [(0,)]
            before = len(searches)
            classes = sum(len(graph_masks(n)) for n in range(1, 8))
            counts.append(len(searches) - before)
    finally:
        enumeration._CACHE.clear()
        enumeration._CACHE.update(saved)
    assert counts[0] == counts[1]
    # one search per parent and about one per class, not one per candidate
    assert counts[0] < 2 * classes


def test_cold_enumeration_returns_few_labelings(monkeypatch):
    # the search returns only twin-sorted optimal labelings: 14,244 over a
    # cold n <= 7 enumeration when it returned every one
    searches = []
    real = enumeration._search

    def counting(adj, n, ranks):
        key, labelings = real(adj, n, ranks)
        searches.append(len(labelings or ()))
        return key, labelings

    monkeypatch.setattr(enumeration, "_search", counting)
    saved = dict(enumeration._CACHE)
    try:
        enumeration._CACHE.clear()
        enumeration._CACHE[1] = [(0,)]
        for n in range(1, 8):
            graph_masks(n)
    finally:
        enumeration._CACHE.clear()
        enumeration._CACHE.update(saved)
    assert len(searches) == 1461
    assert sum(searches) <= 3000


def _reference_search(adj, n, ranks):
    """The canonical search without the twin restriction: the best key and
    every optimal labeling, that is the whole automorphism coset (None for
    the empty and the complete graph)."""
    full = (1 << n) - 1
    if all(a == 0 for a in adj):
        return tuple(0 for _ in range(n)), None
    if all(adj[v] == full ^ (1 << v) for v in range(n)):
        return tuple((1 << i) - 1 for i in range(n)), None
    cells = [[v for v in range(n) if ranks[v] == r] for r in sorted(ranks)]
    best = None
    optimal = []
    placed = []
    current = []

    def rec(pos, state):
        nonlocal best, optimal
        if pos == n:
            if best is None or state == 1:
                best = current.copy()
                optimal = [tuple(placed)]
                return True
            optimal.append(tuple(placed))
            return False
        scored = []
        for v in cells[pos]:
            if v not in placed:
                row = sum(((adj[v] >> p) & 1) << j for j, p in enumerate(placed))
                scored.append((row, v))
        scored.sort(reverse=True)
        updated = False
        for row, v in scored:
            if best is not None and state == 0:
                if row < best[pos]:
                    break
                child = 0 if row == best[pos] else 1
            else:
                child = 1
            placed.append(v)
            current.append(row)
            if rec(pos + 1, child):
                updated = True
                state = 0
            current.pop()
            placed.pop()
        return updated

    rec(0, 1)
    return tuple(best), optimal


def _twin_classes(adj, n):
    """Vertex sets with equal open or equal closed neighbourhoods."""
    classes = []
    for v in range(n):
        for c in classes:
            u = c[0]
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                c.append(v)
                break
        else:
            classes.append([v])
    return classes


def _assert_search_matches_reference(adj, n):
    ranks = enumeration.wl_ranks(adj, n)
    key, labelings = enumeration._search(adj, n, ranks)
    ref_key, ref_labelings = _reference_search(adj, n, ranks)
    assert key == ref_key
    if ref_labelings is None:  # every vertex a twin: only the identity is sorted
        assert labelings == [tuple(range(n))]
        return labelings, None
    classes = _twin_classes(adj, n)
    assert set(labelings) <= set(ref_labelings)
    for lab in labelings:  # each twin class in ascending vertex order
        assert all(sorted(c) == [v for v in lab if v in c] for c in classes)
    last = {lab[-1] for lab in labelings}
    closed = {v for c in classes if last & set(c) for v in c}
    assert closed == {lab[-1] for lab in ref_labelings}
    return labelings, ref_labelings


def test_twin_sorted_search_matches_the_unrestricted_one():
    # every class and every augmentation candidate with n <= 7
    for k in range(1, 7):
        for parent in graph_masks(k):
            labelings, ref_labelings = _assert_search_matches_reference(parent, k)
            gens = enumeration._automorphism_generators(parent, k, labelings)
            subsets = enumeration._orbit_minimal(gens, k)
            if ref_labelings is None:  # the full symmetric group
                assert subsets == [(1 << j) - 1 for j in range(k + 1)]
            else:  # no automorphism maps a listed subset below itself
                assert subsets == [s for s in range(1 << k) if all(
                    sum(1 << aut[v] for v in range(k) if s >> v & 1) >= s
                    for aut in ref_labelings)]
            for s in subsets:
                cand = tuple(parent[v] | (((s >> v) & 1) << k) for v in range(k)) + (s,)
                _assert_search_matches_reference(cand, k + 1)
    for adj in graph_masks(7):
        _assert_search_matches_reference(adj, 7)


def test_searches_leave_no_reference_cycles():
    g = petersen()
    gc.collect()
    gc.disable()
    try:
        canonical_key(g.adj_masks, g.n)
        assert gc.collect() == 0
        perfect_matching_oracle(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
