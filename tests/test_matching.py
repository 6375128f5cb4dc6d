"""Odd-component scans, matching witnesses, eigenvalue matching conditions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound.enumeration import enumerate_graphs
from specbound.generators import (
    complete,
    complete_bipartite,
    cycle,
    path,
    petersen,
    random_regular,
)
from specbound.graphs import (CapExceeded, Graph, bits, components_within,
                              is_connected, mask_of, neighborhood, popcount)
from specbound import matching
from specbound.matching import (
    perfect_matching_oracle,
    tutte_scan,
    two_set_inequality,
)

try:
    import networkx as nx
except ImportError:  # optional second matching oracle (the ``dev`` extra)
    nx = None


def odd_component_count(g, removed):
    """Odd components of G - removed by a plain BFS over the vertex masks: the
    reference the table-driven kernel of ``tutte_scan`` is checked against."""
    region = g.full_mask & ~removed
    return sum(1 for comp in components_within(g.adj_masks, region)
               if popcount(comp) % 2 == 1)


def _matching_covers(g, matching):
    seen = set()
    for u, v in matching:
        assert g.has_edge(u, v)
        assert u not in seen and v not in seen
        seen.update((u, v))
    assert len(seen) == g.n


def test_odd_components_after_removing_star_center():
    g = complete_bipartite(1, 3)
    assert odd_component_count(g, mask_of([0])) == 3


def test_odd_components_complete_graph():
    g = complete(4)
    assert odd_component_count(g, mask_of([0])) == 1


def test_tutte_complete_graph():
    rep = tutte_scan(complete(4))
    assert rep.c_star == pytest.approx(1.0)
    assert rep.witness == mask_of([0])
    assert rep.classical_holds
    assert not rep.strict_holds  # a finite graph always has a ratio-one set
    assert rep.mode == "exhaustive"
    assert rep.scanned == 15
    assert rep.matching is not None
    _matching_covers(complete(4), rep.matching)


def test_tutte_star_fails_classical():
    rep = tutte_scan(complete_bipartite(1, 3))
    assert rep.c_star == pytest.approx(3.0)
    assert rep.witness == mask_of([0])
    assert not rep.classical_holds
    assert rep.matching is None


def test_tutte_even_cycle():
    rep = tutte_scan(cycle(6))
    assert rep.classical_holds
    assert rep.c_star == pytest.approx(1.0)
    _matching_covers(cycle(6), rep.matching)


def test_tutte_equivalence_small_exhaustive():
    # classical condition (o(G-A) <= |A| for all A) holds iff a perfect matching
    # exists, for connected graphs on an even number of vertices; networkx's
    # maximum matching, when it is installed, is a second oracle for the same
    for n in (2, 4, 6, 8):
        for g in enumerate_graphs(n, connected=True):
            has_matching = perfect_matching_oracle(g) is not None
            assert tutte_scan(g).classical_holds == has_matching, g
            if nx is not None:
                h = nx.Graph(g.edges())
                perfect = 2 * len(nx.max_weight_matching(h, maxcardinality=True)) == n
                assert perfect == has_matching, g
    if nx is None:
        pytest.skip("networkx is not installed; the second matching oracle did not run")


def _unbounded_scan(g, subsets=None):
    """The scan with no size bound: ``odd_component_count`` on every subset
    given, by default every nonempty subset in integer order."""
    best, witness, classical, strict, scanned = -1.0, 0, True, True, 0
    for a in subsets if subsets is not None else range(1, 1 << g.n):
        o = odd_component_count(g, a)
        s = popcount(a)
        scanned += 1
        classical = classical and o <= s
        strict = strict and o < s
        if o / s > best:
            best, witness = o / s, a
    return best, witness, classical, strict, scanned


def _scan_fields(rep):
    return rep.c_star, rep.witness, rep.classical_holds, rep.strict_holds, rep.scanned


def _random_graph_with_isolated(seed, n=None):
    """n = 8..14 unless given, at one of five densities, with up to three
    isolated vertices placed at random labels."""
    rng = random.Random(seed)
    n = n or rng.randint(8, 14)
    p = (0.1, 0.2, 0.35, 0.6, 0.9)[seed % 5]
    core = rng.sample(range(n), n - rng.randint(0, 3))
    return Graph(n, [(u, v) for i, u in enumerate(core) for v in core[i + 1:]
                     if rng.random() < p])


def _hub_obstruction():
    """Vertex 0 joined to five odd blocks (two triangles, two single vertices,
    a 5-cycle): removing it alone leaves 5 odd components, so from then on
    every subset of 3 or more of the 14 vertices is settled by the bound."""
    edges = [(0, 1), (0, 4), (0, 7), (0, 8), (0, 9)]
    edges += [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    edges += [(9 + i, 9 + (i + 1) % 5) for i in range(5)]
    return Graph(14, edges)


@pytest.mark.parametrize("graphs", [
    pytest.param(lambda: [g for n in range(1, 7) for g in enumerate_graphs(n)],
                 id="every-graph-n<=6"),
    pytest.param(lambda: [_random_graph_with_isolated(seed) for seed in range(40)],
                 id="random-n8-14"),
    pytest.param(lambda: [complete_bipartite(1, 5), _hub_obstruction()],
                 id="bound-settles-most"),
    pytest.param(lambda: [_random_graph_with_isolated(2, n=17)], id="third-byte-n17"),
])
def test_exhaustive_scan_matches_unbounded_reference(graphs):
    for g in graphs():
        assert _scan_fields(tutte_scan(g)) == _unbounded_scan(g), g


@pytest.mark.parametrize("seed,n", [(seed, 24) for seed in range(5)]
                         + [(5, 30), (6, 41), (7, 64)])
def test_randomized_scan_matches_unbounded_reference(seed, n):
    g = _random_graph_with_isolated(seed, n=n)
    rep = tutte_scan(g, mode="randomized", seed=seed, samples=400)
    subsets = list(matching._random_subsets(g, seed, 400))
    assert _scan_fields(rep) == _unbounded_scan(g, subsets)


def _random_subsets_by_lists(g, seed, samples):
    """Reference sampler: re-sums the weights on every draw, recomputes N(A)
    from scratch and lists the pool to pick from it."""
    rng = random.Random(seed)
    n = g.n
    verts = list(range(n))
    seed_weights = [1.0 / (1 + g.degrees[v]) for v in verts]
    sizes = list(range(1, n))
    size_weights = [2.0 ** -s for s in sizes]
    seen = set()
    for v in verts:
        seen.add(1 << v)
        yield 1 << v
    for _ in range(samples):
        s = rng.choices(sizes, weights=size_weights)[0] if sizes else 1
        v0 = rng.choices(verts, weights=seed_weights)[0]
        a = 1 << v0
        while popcount(a) < s:
            nbhd = 0
            for v in bits(a):
                nbhd |= g.adj_masks[v]
            nbhd &= ~a
            pool = nbhd if (nbhd and rng.random() < 0.7) else (g.full_mask & ~a)
            if pool == 0:
                break
            pool_list = list(bits(pool))
            a |= 1 << pool_list[rng.randrange(len(pool_list))]
        if a not in seen:
            seen.add(a)
            yield a


@pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (2, 9), (3, 24), (4, 65), (5, 130),
                                     (6, 250)])
def test_sampler_draws_match_the_listing_reference(seed, n):
    graphs = [path(n), Graph(n, [])]
    if n >= 4:
        graphs.append(_random_graph_with_isolated(seed, n=n))
    if n % 2 == 0 and n >= 4:
        graphs.append(random_regular(n, 3, seed))
    for g in graphs:
        assert (list(matching._random_subsets(g, seed, 300))
                == list(_random_subsets_by_lists(g, seed, 300))), g


@given(st.integers(1, (1 << 300) - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_kth_bit_is_the_kth_listed_bit(mask, data):
    listed = list(bits(mask))
    k = data.draw(st.integers(0, len(listed) - 1))
    assert matching._kth_bit(mask, k) == listed[k]


def test_tutte_randomized_is_seeded():
    g = random_regular(16, 3, seed=3)
    a = tutte_scan(g, mode="randomized", seed=11, samples=200)
    b = tutte_scan(g, mode="randomized", seed=11, samples=200)
    assert a == b
    assert a.mode == "randomized"
    assert a.scanned >= g.n  # singletons are always probed


def test_tutte_randomized_catches_star_violation():
    g = complete_bipartite(1, 5)
    rep = tutte_scan(g, mode="randomized", seed=0, samples=50)
    assert rep.c_star >= 5.0
    assert not rep.classical_holds


def test_tutte_exhaustive_cap():
    with pytest.raises(CapExceeded):
        tutte_scan(Graph(23, []), mode="exhaustive")


def test_brouwer_haemers_positive_cases():
    for g in (complete(4), cycle(4), complete_bipartite(3, 3)):
        assert tutte_scan(g).bh_condition is True


def test_brouwer_haemers_petersen_fails_antecedent():
    # Laplacian extremes 2 and 5: doubling the gap does not reach the top
    assert tutte_scan(petersen()).bh_condition is False
    # ...and indeed the conclusion still holds here (a matching exists),
    # the condition is only sufficient
    assert perfect_matching_oracle(petersen()) is not None


def test_brouwer_haemers_preconditions():
    # the scan reports the condition on every connected graph, regular or not
    assert tutte_scan(path(4)).bh_condition is False  # Laplacian 2 - sqrt 2 and 2 + sqrt 2
    assert tutte_scan(Graph(6, [(0, 1), (2, 3), (4, 5)])).bh_condition is None


def test_two_set_petersen_frozen():
    rep = two_set_inequality(petersen(), mask_of([0]), mask_of([7]))
    assert rep.lhs == pytest.approx(1 / 81)
    assert rep.rhs == pytest.approx(9 / 49)
    assert rep.holds
    assert rep.mL == pytest.approx(2.0) and rep.ML == pytest.approx(5.0)


def test_two_set_even_cycle():
    rep = two_set_inequality(cycle(6), mask_of([0]), mask_of([3]))
    assert rep.lhs == pytest.approx((1 / 36) / (25 / 36))
    assert rep.rhs == pytest.approx((3 / 5) ** 2)
    assert rep.holds


def test_two_set_identifies_offending_edge():
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        two_set_inequality(cycle(6), mask_of([0]), mask_of([1]))


def test_two_set_other_preconditions():
    g = cycle(6)
    with pytest.raises(ValueError):
        two_set_inequality(g, 0, mask_of([3]))
    with pytest.raises(ValueError):
        two_set_inequality(g, mask_of([0, 3]), mask_of([3]))
    with pytest.raises(ValueError):
        two_set_inequality(path(4), mask_of([0]), mask_of([3]))  # irregular
    with pytest.raises(ValueError):
        two_set_inequality(Graph(6, [(0, 1), (2, 3), (4, 5)]), mask_of([0]), mask_of([2]))


@given(st.integers(0, 5000))
@settings(max_examples=50, deadline=None)
def test_two_set_holds_on_random_regular(seed):
    rng = random.Random(seed)
    g = random_regular(10, 3, seed=seed)
    if not is_connected(g):
        return
    verts = list(range(10))
    rng.shuffle(verts)
    y = verts[0]
    rest = [v for v in verts[1:] if not g.has_edge(y, v)]
    if not rest:
        return
    rep = two_set_inequality(g, mask_of([y]), mask_of([rest[0]]))
    assert rep.holds


def test_independent_expansion_poor_expansion_blocks_matching():
    g = complete_bipartite(2, 4)
    leaves = mask_of(range(2, 6))  # independent, with only two neighbours
    assert popcount(neighborhood(g, leaves)) < popcount(leaves)
    assert perfect_matching_oracle(g) is None
    rep = tutte_scan(g)
    assert not rep.classical_holds


def test_perfect_matching_oracle_basics():
    assert perfect_matching_oracle(cycle(5)) is None  # odd order
    m = perfect_matching_oracle(path(4))
    assert m == [(0, 1), (2, 3)]
    assert perfect_matching_oracle(complete_bipartite(1, 3)) is None
    m = perfect_matching_oracle(petersen())
    _matching_covers(petersen(), m)


def test_perfect_matching_oracle_deterministic():
    g = random_regular(14, 3, seed=2)
    assert perfect_matching_oracle(g) == perfect_matching_oracle(g)


def test_perfect_matching_oracle_cap():
    with pytest.raises(CapExceeded):
        perfect_matching_oracle(Graph(26, []))


@given(st.integers(0, 8000))
@settings(max_examples=60, deadline=None)
def test_oracles_agree_on_random_even_graphs(seed):
    rng = random.Random(seed)
    n = rng.choice((4, 6, 8, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, sorted(rng.sample(pairs, rng.randint(1, len(pairs)))))
    if not is_connected(g):
        return
    rep = tutte_scan(g)
    assert rep.classical_holds == (perfect_matching_oracle(g) is not None)


def _scalar_scan(g):
    return matching._scan(g, range(1, 1 << g.n))


def _star_of_odd_blocks(blocks):
    """Vertex 0 joined to one vertex of each block; block i is a path on
    ``blocks[i]`` vertices, so an odd block is an odd component of G - {0}."""
    edges, start = [], 1
    for size in blocks:
        edges.append((0, start))
        edges += [(start + i, start + i + 1) for i in range(size - 1)]
        start += size
    return Graph(start, edges)


def _disjoint_union(*parts):
    edges, start = [], 0
    for h in parts:
        edges += [(start + u, start + v) for u, v in h.edges()]
        start += h.n
    return Graph(start, edges)


def _subdivide_first_edge(g):
    """``g`` with its first edge in ``edges()`` order replaced by a path
    through a new vertex n."""
    (u, v), *others = g.edges()
    return Graph(g.n + 1, others + [(u, g.n), (v, g.n)])


def test_block_kernel_matches_scalar_scan_on_every_small_class():
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            assert matching._scan_blocks(g) == _scalar_scan(g), g


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _random_graph_with_isolated(seed, n=n), id=f"random-{n}-s{seed}")
    for seed, n in [(0, 12), (1, 13), (2, 14), (3, 15), (4, 16), (5, 16), (6, 17)]
] + [
    pytest.param(lambda: Graph(12, []), id="edgeless-12"),
    pytest.param(lambda: Graph(20, []), id="edgeless-20"),
    pytest.param(_hub_obstruction, id="hub-obstruction-14"),
    pytest.param(lambda: _star_of_odd_blocks([1, 1, 3, 3, 5, 5]), id="obstruction-19"),
    pytest.param(lambda: _star_of_odd_blocks([3, 1, 5, 1, 7, 1, 1]), id="obstruction-20"),
    pytest.param(lambda: cycle(13), id="odd-cycle-13"),
    pytest.param(lambda: path(15), id="odd-path-15"),
    pytest.param(lambda: _disjoint_union(petersen(), cycle(5)), id="disconnected-15"),
    pytest.param(lambda: _disjoint_union(complete(3), path(4), Graph(2, []), cycle(7)),
                 id="disconnected-16"),
    # c_star = 1 is reached by {0} in the first block and tied by later blocks
    pytest.param(lambda: random_regular(16, 3, seed=5), id="ties-cubic-16"),
    pytest.param(lambda: random_regular(18, 3, seed=2), id="ties-cubic-18"),
    # c_star = 13 at A = {13}, in the second block, although N(A) - A is
    # {6..10}: the boundary bound holds only on connected graphs
    pytest.param(lambda: Graph(14, [(13, v) for v in range(6, 11)]), id="hub-with-isolated-14"),
    # c_star = 7/8: the boundary bound is tight at the witness, where G - A
    # has 7 odd components and |N(A) - A| = n - |A| = 7
    pytest.param(lambda: _subdivide_first_edge(random_regular(14, 3, seed=1)),
                 id="subdivided-cubic-15"),
    # c_star = 6/7: the first block's best is 4/5, and the witness, |A| = 7 in
    # the second block, beats it by less than 1/7, so retiring a lane one odd
    # component below (odd so far + |rest|) would drop it
    pytest.param(lambda: _subdivide_first_edge(random_regular(14, 3, seed=3)),
                 id="retirement-subdivided-cubic-15"),
])
def test_block_kernel_matches_scalar_scan(make):
    g = make()
    assert matching._scan_blocks(g) == _scalar_scan(g), g


def test_block_kernel_keeps_the_earliest_tied_witness():
    # every singleton of an even cycle leaves one odd path: ratio 1 first at
    # {0}, tied in every block after the first
    g = cycle(16)
    c_star, witness, classical, strict, scanned = matching._scan_blocks(g)
    assert (c_star, witness, classical, strict, scanned) == (1.0, 1, True, False, 2 ** 16 - 1)
    assert _unbounded_scan(g) == (c_star, witness, classical, strict, scanned)


@pytest.mark.parametrize("n, kernel", [(11, "_scan"), (12, "_scan_blocks")])
def test_exhaustive_scan_dispatch_by_size(monkeypatch, n, kernel):
    called = []
    for name in ("_scan", "_scan_blocks"):
        fn = getattr(matching, name)
        monkeypatch.setattr(matching, name,
                            lambda *a, _fn=fn, _name=name: called.append(_name) or _fn(*a))
    tutte_scan(cycle(n))
    assert called == [kernel]
    called.clear()
    tutte_scan(cycle(n), mode="randomized", samples=20)
    assert called == ["_scan"]  # randomized masks are big integers of any n
