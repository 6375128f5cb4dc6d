"""Peeling orders, backwards list coloring, function-system palettes, brute oracles."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from specbound import coloring
from specbound.coloring import (
    Coloring,
    Peeling,
    PeelingStuck,
    backwards_list_color,
    brute_force_chromatic,
    brute_force_independence,
    function_graph_color,
    min_degree_peel_color,
    peel_by_threshold,
    wilf_color,
)
from specbound.generators import (
    complete,
    complete_bipartite,
    cycle,
    function_graph,
    paley_tournament,
    path,
    petersen,
    random_regular,
)
from specbound.enumeration import enumerate_graphs
from specbound.graphs import (CapExceeded, DirectedGraph, Graph, InternalError, bits,
                              load_directed_edge_list, mask_of)
from specbound.spectral import bounds, snapped_floor


def test_peel_path_layers():
    peeling = peel_by_threshold(path(4), 1)
    assert peeling.layers == [mask_of([0, 3]), mask_of([1, 2])]
    assert peeling.layers[0] | peeling.layers[1] == path(4).full_mask


def test_peel_reports_stuck_residual():
    with pytest.raises(PeelingStuck) as exc:
        peel_by_threshold(complete(5), 3)
    assert exc.value.residual == complete(5).full_mask


def test_backwards_list_color_reports_small_palette():
    peeling = peel_by_threshold(cycle(5), 2)
    with pytest.raises(ValueError, match="emptied"):
        backwards_list_color(cycle(5), peeling, 1)


def test_wilf_color_pentagon():
    col = wilf_color(cycle(5))
    assert col.is_total
    assert col.proper(cycle(5))
    assert col.palette_size <= 3


def test_wilf_color_petersen():
    col = wilf_color(petersen())
    assert col.is_total and col.proper(petersen())
    assert col.palette_size <= 4


@given(graphs(min_n=1, max_n=12))
@settings(max_examples=80, deadline=None)
def test_wilf_color_proper_within_bound(g):
    b = bounds(g)
    col = wilf_color(g)
    assert col.is_total
    assert col.proper(g)
    assert col.palette_size <= b.wilf


@given(graphs(min_n=1, max_n=10))
@settings(max_examples=40, deadline=None)
def test_peel_layer_sizes_decay_geometrically(g):
    # with threshold floor(M) and any s in (M - t, 1), uncovered mass contracts
    # by (t + s) / (t + 1) per layer
    b = bounds(g)
    t = snapped_floor(b.M)
    peeling = peel_by_threshold(g, t)
    s = min(0.999, (b.M - t + 1) / 2) if b.M > t else 0.5
    r = (t + s) / (t + 1)
    counts = [g.n]  # vertices not yet peeled, before and after each layer
    for layer in peeling.layers:
        counts.append(counts[-1] - layer.bit_count())
    for before, after in zip(counts, counts[1:]):
        assert after <= r * before + 1e-9


def test_min_degree_peel_tree():
    g = path(6)
    col = min_degree_peel_color(g, 1)
    assert col.is_total and col.proper(g)
    assert col.palette_size <= 2


def test_min_degree_peel_stuck_on_clique():
    with pytest.raises(PeelingStuck):
        min_degree_peel_color(complete(5), 3)


def test_function_graph_color_paley():
    col = function_graph_color(paley_tournament())
    assert col.is_total
    assert col.proper(paley_tournament().underlying())
    assert col.palette_size <= 7
    # the underlying graph is K7, so seven colors are genuinely needed
    assert col.palette_size == 7


def test_function_graph_color_single_permutation():
    d = function_graph([[1, 2, 3, 4, 0]])  # one 5-cycle
    col = function_graph_color(d)
    assert col.is_total and col.proper(d.underlying())
    assert col.palette_size <= 3


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_function_graph_color_random_systems(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(1, 30)
    k = rng.randint(1, 3)
    maps = [[rng.randrange(n) for _ in range(n)] for _ in range(k)]
    d = function_graph(maps)
    col = function_graph_color(d)
    assert col.is_total
    assert col.proper(d.underlying())
    assert col.palette_size <= 2 * d.n_functions + 1


def test_brute_chromatic_known_values():
    assert brute_force_chromatic(cycle(5)) == 3
    assert brute_force_chromatic(cycle(6)) == 2
    assert brute_force_chromatic(petersen()) == 3
    assert brute_force_chromatic(complete(7)) == 7
    assert brute_force_chromatic(complete_bipartite(3, 3)) == 2
    assert brute_force_chromatic(Graph(1, [])) == 1
    assert brute_force_chromatic(Graph(3, [])) == 1


def test_brute_independence_known_values():
    size, witness = brute_force_independence(petersen())
    assert size == 4
    g = petersen()
    members = [v for v in range(10) if (witness >> v) & 1]
    assert len(members) == 4
    assert all(not g.adj_masks[u] >> v & 1 for u in members for v in members if u < v)
    assert brute_force_independence(cycle(7))[0] == 3
    assert brute_force_independence(complete(5))[0] == 1


def test_brute_oracles_refuse_large_inputs():
    with pytest.raises(CapExceeded):
        brute_force_chromatic(Graph(17, []))
    with pytest.raises(CapExceeded):
        brute_force_independence(Graph(25, []))


def test_coloring_helpers():
    col = Coloring([0, None, 1])
    assert not col.is_total
    assert col.palette_size == 2


def test_wilf_color_matches_chromatic_on_regular_samples():
    for seed in (0, 1, 2):
        g = random_regular(10, 3, seed=seed)
        col = wilf_color(g)
        chi = brute_force_chromatic(g)
        assert chi <= col.palette_size <= 4  # floor(3) + 1


# ---------------------------------------------------------------------------
# the queue peeling against the round-by-round loop it replaced
# ---------------------------------------------------------------------------

def _peel_by_rounds(g, threshold):
    """Reference: recompute every residual degree each round; returns the
    layers, or the PeelingStuck message and residual."""
    rem = g.full_mask
    layers = []
    while rem:
        degs = {v: (g.adj_masks[v] & rem).bit_count() for v in bits(rem)}
        layer = mask_of(v for v, d in degs.items() if d <= threshold)
        if layer == 0:
            return (f"peeling stuck: residual of {len(degs)} vertices starting "
                    f"{list(islice(bits(rem), 8))} has minimum degree "
                    f"{min(degs.values())} > threshold {threshold}", rem)
        layers.append(layer)
        rem &= ~layer
    return layers


def _peel_outcome(g, threshold):
    try:
        return peel_by_threshold(g, threshold).layers
    except PeelingStuck as exc:
        return str(exc), exc.residual


def _random_graph(seed, n, p):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_queue_peeling_matches_rounds_on_every_graph_up_to_7():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for t in range(-1, n):
                assert _peel_outcome(g, t) == _peel_by_rounds(g, t), (g.edges(), t)


@pytest.mark.parametrize("seed, n, p", [(1, 65, 0.05), (2, 100, 0.1), (3, 150, 0.03),
                                        (4, 200, 0.3), (5, 300, 0.01)])
def test_queue_peeling_matches_rounds_above_64_vertices(seed, n, p):
    g = _random_graph(seed, n, p)
    outcomes = [_peel_outcome(g, t) for t in range(g.max_degree + 1)]
    assert outcomes == [_peel_by_rounds(g, t) for t in range(g.max_degree + 1)]
    assert any(isinstance(o, tuple) for o in outcomes)  # some peelings got stuck
    assert isinstance(outcomes[-1], list)  # threshold d always exhausts


def test_stuck_peeling_message_and_residual():
    # K5 with a pendant path: the path peels away, K5 is left at degree 4
    g = Graph(8, [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5), (5, 6), (6, 7)])
    with pytest.raises(PeelingStuck) as exc:
        peel_by_threshold(g, 3)
    assert exc.value.residual == mask_of(range(5))
    assert str(exc.value) == ("peeling stuck: residual of 5 vertices starting "
                              "[0, 1, 2, 3, 4] has minimum degree 4 > threshold 3")


def _function_layers_by_rounds(d):
    """Reference: the round-by-round in-degree recount that
    ``function_graph_color`` made before it shared the queue."""
    rem = (1 << d.n) - 1
    layers = []
    while rem:
        indeg = {v: 0 for v in bits(rem)}
        for u in bits(rem):
            for v in d.out[u]:
                if rem >> v & 1:
                    indeg[v] += 1
        layer = mask_of(v for v, c in indeg.items() if c <= d.n_functions)
        assert layer, "the reference loop got stuck"
        layers.append(layer)
        rem &= ~layer
    return layers


def _function_systems():
    yield paley_tournament()
    # no generating maps: n_functions falls back to the out-degree 2, and
    # vertex 0 (in-degree 4) waits for a later layer
    yield load_directed_edge_list("6 9\n0 1\n0 2\n1 2\n2 0\n3 0\n3 1\n4 0\n5 0\n5 3\n")
    rng = random.Random(2026)
    for _ in range(3000):
        n = rng.randint(1, 60)
        k = rng.randint(1, 4)
        yield function_graph([[rng.randrange(n) for _ in range(n)] for _ in range(k)])


def test_function_peeling_queue_matches_rounds(monkeypatch):
    peelings = []
    monkeypatch.setattr(coloring, "backwards_list_color",
                        lambda g, p, palette: peelings.append(p.layers)
                        or backwards_list_color(g, p, palette))
    for d in _function_systems():
        layers = _function_layers_by_rounds(d)
        want = backwards_list_color(d.underlying(), Peeling(layers), 2 * d.n_functions + 1)
        assert function_graph_color(d).colors == want.colors
        assert peelings.pop() == layers


def test_stuck_function_peeling_is_an_internal_fault():
    # a triangle in both directions has in-degree 2 everywhere; claiming one
    # generating map is the inconsistency the queue must report
    d = DirectedGraph(3, [(u, v) for u in range(3) for v in range(3) if u != v], n_functions=1)
    with pytest.raises(InternalError, match="^residual digraph with all in-degrees above "
                       "the out-degree bound; impossible, since total in-degree equals "
                       "total out-degree$"):
        function_graph_color(d)
