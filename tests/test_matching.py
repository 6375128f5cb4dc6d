"""Odd-component scans, matching witnesses, eigenvalue matching conditions."""

import importlib.util
import random
from pathlib import Path

import numpy as np
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
from specbound.graphs import (
    CapExceeded,
    Graph,
    bits,
    bridges,
    is_connected,
    load_edge_list,
    mask_of,
)
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
    """Odd components of G - removed by a plain mask BFS from each least
    vertex left: the reference the kernels of ``tutte_scan`` are checked
    against."""
    rest = g.full_mask & ~removed
    odd = 0
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= g.adj_masks[v]
            frontier = reach & rest & ~comp
            comp |= frontier
        odd += comp.bit_count() % 2
        rest &= ~comp
    return odd


def _matching_covers(g, matching):
    seen = set()
    for u, v in matching:
        assert g.adj_masks[u] >> v & 1
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


def test_tutte_scan_of_k2_has_the_doubled_gap_flag():
    # the flag needs n >= 2: K2, mL = ML = 2, is its smallest case
    assert tutte_scan(complete(2)).bh_condition is True


def test_tutte_scan_searches_a_matching_up_to_24_vertices():
    # the oracle's cap, n = 24, is inclusive: the randomized scan of C24 keeps
    # its scan short
    assert tutte_scan(cycle(24), mode="randomized").matching is not None


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
    # networkx's maximum matching, when it is installed, is a second oracle
    # for perfect_matching_oracle; the tutte-equivalence invariant checks the
    # classical condition against the latter on the same classes
    for n in (2, 4, 6, 8):
        for g in enumerate_graphs(n, connected=True):
            has_matching = perfect_matching_oracle(g) is not None
            if nx is not None:
                h = nx.Graph(g.edges())
                perfect = 2 * len(nx.max_weight_matching(h, maxcardinality=True)) == n
                assert perfect == has_matching, g
    if nx is None:
        pytest.skip("networkx is not installed; the second matching oracle did not run")


def _unbounded_scan(g, subsets=None):
    """The scan with no size bound: ``odd_component_count`` on every subset
    given, by default every nonempty subset in integer order.  Returns the
    kernels' result, the worst (o, s) by float ratio with its earliest
    witness and the count of subsets, then both Tutte flags, each decided
    subset by subset."""
    best, best_o, best_s, witness, classical, strict, scanned = -1.0, -1, 1, 0, True, True, 0
    for a in subsets if subsets is not None else range(1, 1 << g.n):
        o = odd_component_count(g, a)
        s = a.bit_count()
        scanned += 1
        classical = classical and o <= s
        strict = strict and o < s
        if o / s > best:
            best, best_o, best_s, witness = o / s, o, s, a
    return (best_o, best_s, witness, scanned), classical, strict


def _unbounded_report(g, subsets=None):
    """The report fields of ``_scan_fields``, from ``_unbounded_scan``."""
    (o, s, witness, scanned), classical, strict = _unbounded_scan(g, subsets)
    return o / s, witness, classical, strict, scanned


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
    pytest.param(lambda: [_random_graph_with_isolated(2, n=17)], id="random-n17"),
])
def test_exhaustive_scan_matches_unbounded_reference(graphs):
    for g in graphs():
        assert _scan_fields(tutte_scan(g)) == _unbounded_report(g), g


@pytest.mark.parametrize("seed,n", [(seed, 24) for seed in range(5)]
                         + [(5, 30), (6, 41), (7, 64)])
def test_randomized_scan_matches_unbounded_reference(seed, n):
    g = _random_graph_with_isolated(seed, n=n)
    rep = tutte_scan(g, mode="randomized", seed=seed, samples=400)
    subsets = list(matching._random_subsets(g, seed, 400))
    assert _scan_fields(rep) == _unbounded_report(g, subsets)


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
        while a.bit_count() < s:
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
    rest = [v for v in verts[1:] if not g.adj_masks[y] >> v & 1]
    if not rest:
        return
    rep = two_set_inequality(g, mask_of([y]), mask_of([rest[0]]))
    assert rep.holds


def test_independent_expansion_poor_expansion_blocks_matching():
    g = complete_bipartite(2, 4)
    leaves = mask_of(range(2, 6))  # independent, with only two neighbours
    reached = 0
    for v in bits(leaves):
        reached |= g.adj_masks[v]
    assert reached.bit_count() < leaves.bit_count()
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


def _scalar_scan(g, subsets=None):
    """``_scan`` over ``subsets``, by default every nonempty subset, with the
    even-degree mask that ``tutte_scan`` would give a randomized scan."""
    _, even = matching._scan_facts(g, exhaustive=False)
    return matching._scan(g, range(1, 1 << g.n) if subsets is None else subsets, even)


def _block_scan(g):
    """``_scan_blocks`` with the arguments that ``tutte_scan`` would give it
    where the degree ceiling stays open."""
    even = matching._scan_facts(g, exhaustive=True)[1]
    return matching._scan_blocks(g, even, matching._scan(g, (1,), None)[0])


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


def _stars(leaves, joined):
    """Stars centred on the high vertices 13, 14 and 15 of a 16-vertex graph,
    ``leaves[i]`` leaves on the lane vertices for centre 13 + i; ``joined``
    adds the path 13-14-15.  Removing a centre leaves its leaves isolated
    and every other part even, so c_star is the largest star's leaf count,
    at a single centre in block 1 or 2 (high bits {13} or {14})."""
    edges, start = [], 0
    for centre, k in zip((13, 14, 15), leaves):
        edges += [(start + i, centre) for i in range(k)]
        start += k
    return Graph(16, edges + ([(13, 14), (14, 15)] if joined else []))


def _hubs_and_pair():
    """Two gadgets joined by the edge 3-4: every triple of the hubs 0..3
    shares two leaves, and 4 and 5 share four.  G - {0, 1, 2, 3} isolates
    the eight hub leaves and G - {4, 5} the four shared ones, ratio 2 both
    times, the maximum."""
    edges, v = [(3, 4)], 6
    for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        for _ in range(2):
            edges += [(h, v) for h in triple]
            v += 1
    for _ in range(4):
        edges += [(4, v), (5, v)]
        v += 1
    return Graph(v, edges)


_JOINED = [(True, "joined"), (False, "apart")]


def _dense(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_block_kernel_matches_scalar_scan_on_every_small_class(monkeypatch):
    # the scalar kernel takes the edge-cut bound on every connected bridgeless
    # class; the block kernel runs each graph as one block, bounded by the
    # size bound alone against the prior {0}
    monkeypatch.setattr(matching, "_VECTOR_MIN_N", 1)
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            assert _block_scan(g) == _scalar_scan(g), g


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
    # c_star = 13 at A = {13}, in the second block: on a disconnected graph
    # the size bound alone drops lanes there, and it is tight at the witness,
    # where G - A has 13 odd components and n - |A| = 13
    pytest.param(lambda: Graph(14, [(13, v) for v in range(6, 11)]), id="hub-with-isolated-14"),
    # c_star = 7/8 at a witness in the second block: both bounds taken before
    # a BFS are tight there, as G - A has 7 odd components, n - |A| = 7 and
    # the edge-cut bound (cut 20, t 1) is 7
    pytest.param(lambda: _subdivide_first_edge(random_regular(14, 3, seed=1)),
                 id="subdivided-cubic-15"),
    # c_star = 6/7: the first block's best is 4/5, and the witness, |A| = 7 in
    # the second block, beats it by less than 1/7, so retiring a lane one odd
    # component below (odd so far + |rest|) would drop it
    pytest.param(lambda: _subdivide_first_edge(random_regular(14, 3, seed=3)),
                 id="retirement-subdivided-cubic-15"),
    # one block: A = V is the only nonempty subset of K1, with o = 0
    pytest.param(lambda: Graph(1, []), id="K1"),
    # c_star = 4/5, 2/3, 7/10 and 1/2: most lanes of every block run a BFS
    *[pytest.param(lambda n=n, p=p, seed=seed: _dense(n, p, seed), id=f"dense-{n}-{p}-s{seed}")
      for n, p, seed in [(15, 0.5, 0), (15, 0.5, 1), (17, 0.4, 1), (17, 0.6, 0)]],
    # Block 0 runs alone (its best: 1 at a leaf); the blocks after it share
    # batches (joined: blocks 1-7, apart: blocks 1-2, one block's worth of
    # lanes).  {13} and {14} tie at 5 in blocks 1 and 2 (joined, {13, 14}
    # too, in block 3): the least mask, {13}, is the witness
    *[pytest.param(lambda joined=joined: _stars((5, 5, 3), joined),
                   id=f"tie-in-two-blocks-{name}") for joined, name in _JOINED],
    # block 1's best, 3 at {13}, is beaten in block 2 by 5 at {14}
    *[pytest.param(lambda joined=joined: _stars((3, 5, 5), joined),
                   id=f"improves-in-block-2-{name}") for joined, name in _JOINED],
    # ratio 2 at {0, 1, 2, 3} and at {4, 5}, both in block 0: its lanes run
    # in the order of their size, but the witness is the earlier mask
    pytest.param(_hubs_and_pair, id="tie-across-sizes-in-one-block"),
    # the prior A = {0}: vertex 0 isolated beside C13, so o(G - {0}) = 1 and
    # c_star = 1 first at {0}, the prior's own witness
    pytest.param(lambda: Graph(14, [(v, v % 13 + 1) for v in range(1, 14)]),
                 id="prior-isolated-0-14"),
    # odd order: G - {0} = K14 leaves no odd component, so the prior ratio is
    # 0, and c_star = 1/2 first at {0, 1}
    pytest.param(lambda: complete(15), id="prior-zero-complete-15"),
    # hubs 1 and 2 share six leaves and 3 has three: {1, 2} and the later
    # singleton {3} tie at 3, above the prior's 1, and the earlier mask {1, 2}
    # is the witness
    pytest.param(lambda: Graph(14, [(h, v) for h in (1, 2) for v in range(4, 10)]
                               + [(3, v) for v in (10, 11, 12)]
                               + [(0, 1), (0, 3), (0, 13), (2, 13)]),
                 id="prior-beaten-by-a-tied-singleton-14"),
])
def test_block_kernel_matches_scalar_scan(make):
    g = make()
    assert _block_scan(g) == _scalar_scan(g), g


def test_block_kernel_keeps_the_earliest_tied_witness():
    # every singleton of an even cycle leaves one odd path: ratio 1 first at
    # {0}, tied in every block after the first
    g = cycle(16)
    result = _block_scan(g)
    assert result == (1, 1, 1, 2 ** 16 - 1)  # o = s = 1 at the witness {0}
    assert _unbounded_scan(g)[0] == result
    assert _scan_fields(tutte_scan(g)) == (1.0, 1, True, False, 2 ** 16 - 1)


# paths up to the cap: their bridges leave every block after the first to the
# size bound alone.  G - A has at most |A| + 1 components, so c_star <= 2,
# reached first at A = {1} on path(21).  On path(22), |A| + 1 odd components
# would hold 22 - |A| vertices, of the other parity, so c_star <= 1
@pytest.mark.parametrize("n, fields", [
    (21, (2.0, mask_of([1]), False, False, 2 ** 21 - 1)),
    (22, (1.0, mask_of([0]), True, False, 2 ** 22 - 1)),
])
def test_exhaustive_scan_of_a_path_at_the_cap(n, fields):
    assert _scan_fields(tutte_scan(path(n))) == fields


def _bridged_pair(h):
    """Two copies of ``h``, each with its first edge subdivided, and one
    bridge between the two new vertices: cubic when ``h`` is."""
    a = _subdivide_first_edge(h)
    g = _disjoint_union(a, a)
    return Graph(g.n, list(g.edges()) + [(a.n - 1, g.n - 1)])


def _bridged_star(blocks):
    """Three copies of ``blocks`` with their first edge subdivided, each new
    vertex joined by a bridge to a hub, the last vertex: on K4 a cubic graph
    whose hub alone leaves three odd components."""
    a = _subdivide_first_edge(blocks)
    g = _disjoint_union(a, a, a)
    return Graph(g.n + 1, list(g.edges()) + [(a.n * i - 1, g.n) for i in (1, 2, 3)])


# (graph, whether it has a bridge): the edge-cut bound applies exactly to the
# connected bridgeless rows
@pytest.mark.parametrize("make, bridged", [
    pytest.param(lambda: random_regular(16, 3, seed=5), False, id="cubic-16"),
    pytest.param(lambda: random_regular(18, 3, seed=2), False, id="cubic-18"),
    # every vertex has even degree: the t term carries the bound
    pytest.param(lambda: random_regular(14, 4, seed=0), False, id="quartic-14"),
    pytest.param(lambda: _subdivide_first_edge(random_regular(14, 3, seed=3)), False,
                 id="subdivided-cubic-15"),
    *[pytest.param(lambda n=n: cycle(n), False, id=f"cycle-{n}") for n in range(13, 17)],
    pytest.param(lambda: _bridged_pair(random_regular(6, 3, seed=0)), True,
                 id="bridged-cubic-14"),
    # c_star = 3 at A = {15}, with cut 3: one third of a component per edge
    pytest.param(lambda: _bridged_star(complete(4)), True, id="bridged-star-16"),
])
def test_cut_bound_kernels_match_unbounded_reference(make, bridged):
    g = make()
    assert bool(bridges(g)) == bridged
    expected = _unbounded_scan(g)[0]
    assert _block_scan(g) == expected, g
    assert _scalar_scan(g) == expected, g


@pytest.mark.parametrize("make", [
    pytest.param(lambda: random_regular(200, 3, seed=1), id="cubic-200"),
    pytest.param(lambda: cycle(200), id="cycle-200"),
    pytest.param(lambda: cycle(201), id="cycle-201"),
    # bridged: every subset the size bound leaves open runs a BFS over masks
    # several machine words wide
    pytest.param(lambda: path(301), id="path-301"),
])
def test_randomized_cut_bound_matches_unbounded_reference(make):
    g = make()
    subsets = list(matching._random_subsets(g, 1, 300))
    assert _scalar_scan(g, iter(subsets)) == _unbounded_scan(g, subsets)[0]


class _CountingNumpy:
    """numpy, but recording the size of each ``flatnonzero``: in
    ``_scan_blocks``, the lanes open for one more BFS round, and the lanes at
    a batch's maximum; and of each ``arange`` without a dtype: the lanes of
    a batch, which it numbers."""

    def __init__(self):
        self.sizes = []
        self.batches = []

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, a):
        out = np.flatnonzero(a)
        self.sizes.append(out.size)
        return out

    def arange(self, *args, **kwargs):
        out = np.arange(*args, **kwargs)
        if not kwargs:
            self.batches.append(out.size)
        return out


# the prior {0} shows c_star = 1 (G - {0} has odd order), and then every
# nonempty subset has ub <= s: cut <= 3 s on a cubic graph, and on a cycle
# cut = 2 r and t >= r for its r runs
@pytest.mark.parametrize("make", [
    pytest.param(lambda: random_regular(16, 3, seed=5), id="cubic-16"),
    pytest.param(lambda: cycle(16), id="cycle-16"),
    pytest.param(lambda: random_regular(18, 3, seed=2), id="cubic-18"),
])
def test_cut_bound_runs_no_lane_bfs(monkeypatch, make):
    g = make()
    counting = _CountingNumpy()
    monkeypatch.setattr(matching, "np", counting)
    assert _block_scan(g)[:3] == (1, 1, 1)  # o = s = 1 at the witness {0}
    assert counting.sizes == []  # no batch ran: every lane was bounded


def test_later_blocks_are_bounded_against_the_best_of_block_0(monkeypatch):
    # odd order: G - {0} is a path on 16 vertices, so the prior's ratio is 0
    # and block 0 runs nearly whole.  Its best, c_star = 8/9 at the
    # alternating set, leaves few lanes of the 15 later blocks open, and
    # they share one batch; bounded against the prior, block 1 alone would
    # fill one
    counting = _CountingNumpy()
    monkeypatch.setattr(matching, "np", counting)
    assert _block_scan(cycle(17))[:2] == (8, 9)
    assert len(counting.batches) == 2 and counting.batches[1] < 2 ** 10


@pytest.mark.parametrize("make", [
    pytest.param(lambda: random_regular(200, 3, seed=1), id="cubic-200"),
    pytest.param(lambda: cycle(200), id="cycle-200"),
])
def test_cut_bound_runs_no_bfs_after_the_singletons(make):
    g = make()
    subsets = list(matching._random_subsets(g, 1, 300))
    assert subsets[:g.n] == [1 << v for v in range(g.n)]
    _, even = matching._scan_facts(g, exhaustive=False)  # before the count: its checks read the masks too
    assert even is not None
    lookups = []

    class Counting(tuple):
        def __getitem__(self, i):
            lookups.append(i)
            return tuple.__getitem__(self, i)

    g.adj_masks = Counting(g.adj_masks)  # every BFS step and cut term reads it
    assert matching._scan(g, subsets[:g.n], even)[:3] == (1, 1, 1)
    singletons = len(lookups)
    lookups.clear()
    assert matching._scan(g, subsets, even)[:3] == (1, 1, 1)
    # a later subset of size s >= n / 2 is settled by (n - s) / s <= 1, and
    # every other one by the cut bound alone, at one lookup per vertex of A
    cut_terms = sum(a.bit_count() for a in subsets[g.n:] if 2 * a.bit_count() < g.n)
    assert cut_terms
    assert len(lookups) == singletons + cut_terms


def test_cut_bound_holds_on_every_small_bridgeless_class():
    tight = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected=True):
            if bridges(g):
                continue
            even = mask_of(v for v in range(n) if g.degrees[v] % 2 == 0)
            for a in range(1, 1 << n):
                cut = sum((a >> u & 1) != (a >> v & 1) for u, v in g.edges())
                t = (even & ~a).bit_count()
                ub = (cut + min(t, cut // 2)) // 3
                o = odd_component_count(g, a)
                assert o <= ub, (g, a)
                tight += o == ub and o > 0
    assert tight  # the bound is attained, not only valid


def _degree_ceiling_args(g):
    """The even-degree mask and o(G - {0}) that ``tutte_scan`` gives the
    degree ceiling, at any n."""
    even = mask_of(v for v in range(g.n) if g.degrees[v] % 2 == 0)
    return even, matching._scan(g, (1,), None)[0]


def test_degree_ceiling_on_every_small_bridgeless_class():
    # where the ceiling closes, the scan of every subset ends at (o, 1) with
    # witness {0}.  The count of closures pins the ceiling from both sides:
    # D_s summed from the smallest degrees closes 6,227 classes (114 wrongly),
    # and u(s) left at the parity of neither closes only 41
    classes = closed = 0
    for n in range(2, 9):
        for g in enumerate_graphs(n, connected=True):
            if bridges(g):
                continue
            classes += 1
            even, o = _degree_ceiling_args(g)
            if matching._degree_ceiling_closes(g, even, o):
                closed += 1
                assert (o, 1, 1) == matching._scan(g, range(1, 1 << n), None)[:3], g
    assert (classes, closed) == (7980, 335)


def _subset_scan_inputs(seed):
    """The graphs of the benchmark's subset-scan workload for ``seed``, by
    name, from the benchmark's own generators (standard library only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.subset_scan(seed)["inputs"]
    return {name: load_edge_list(text) for name, text in inputs.items()
            if name.startswith(("matching-", "obstruction-", "odd-"))}


@pytest.mark.parametrize("seed", range(1, 11))
def test_degree_ceiling_keeps_the_report_on_the_benchmark_scans(seed):
    # the ceiling closes the two bridgeless cubic graphs of even order, and
    # tutte_scan reports there what the block kernel finds
    closed = []
    for name, g in _subset_scan_inputs(seed).items():
        o, s, witness, scanned = _block_scan(g)
        assert _scan_fields(tutte_scan(g)) == (o / s, witness, o <= s, o < s, scanned), name
        bridgeless = matching._scan_facts(g, exhaustive=True)[1] is not None
        if bridgeless and matching._degree_ceiling_closes(g, *_degree_ceiling_args(g)):
            closed.append(name)
    assert closed == ["matching-16", "matching-18"]


def test_degree_ceiling_keeps_the_randomized_report():
    # the ceiling closes C2000: the draws are counted, none is scanned
    g = cycle(2000)
    even = matching._scan_facts(g, exhaustive=False)[1]
    o, s, witness, scanned = matching._scan(g, matching._random_subsets(g, 0, 2000), even)
    assert (o, s, witness) == (1, 1, 1)
    rep = tutte_scan(g, mode="randomized")
    assert _scan_fields(rep) == (1.0, 1, True, False, scanned)


# each call, with the subsets ``_scan`` was given (``draws`` for the sampler's
# generator): the prior A = {0} is one BFS in ``tutte_scan``, for the degree
# ceiling and for ``_scan_blocks``, which must get no other subset through
# ``_scan``.  The ceiling needs the even-degree mask, given from 11 vertices
# in a randomized scan and from 14 in an exhaustive one
_PRIOR = ("_scan", (1,))
_DRAWS = ("_scan", "draws")


@pytest.mark.parametrize("make, exhaustive, randomized", [
    pytest.param(lambda: cycle(10), [("_scan", range(1, 1 << 10))], [_DRAWS], id="10-_scan"),
    # odd order: o(G - {0}) = 0 keeps the ceiling open
    pytest.param(lambda: cycle(11), [_PRIOR, ("_scan_blocks", None)], [_PRIOR, _DRAWS],
                 id="11-_scan_blocks"),
    # bridgeless, cubic and of even order: the ceiling closes both modes
    pytest.param(lambda: random_regular(16, 3, seed=1), [_PRIOR], [_PRIOR], id="16-closed"),
])
def test_exhaustive_scan_dispatch_by_size(monkeypatch, make, exhaustive, randomized):
    called = []

    def record(name, subsets):
        if name == "_scan":
            called.append((name, subsets if isinstance(subsets, (tuple, range)) else "draws"))
        else:
            called.append((name, None))

    for name in ("_scan", "_scan_blocks"):
        fn = getattr(matching, name)
        monkeypatch.setattr(matching, name,
                            lambda g, *a, _fn=fn, _name=name: record(_name, a[0]) or _fn(g, *a))
    tutte_scan(make())
    assert called == exhaustive
    called.clear()
    tutte_scan(make(), mode="randomized", samples=20)
    assert called == randomized  # randomized masks are big integers of any n


@pytest.mark.parametrize("make, mode", [
    pytest.param(lambda: cycle(201), "randomized", id="randomized-cycle-201"),
    pytest.param(lambda: random_regular(16, 3, seed=5), "exhaustive", id="exhaustive-cubic-16"),
])
def test_scan_checks_connectivity_and_bridges_once(monkeypatch, make, mode):
    g = make()
    calls = []
    for name in ("is_connected", "bridges"):
        fn = getattr(matching, name)
        monkeypatch.setattr(matching, name,
                            lambda h, _fn=fn, _name=name: calls.append(_name) or _fn(h))
    tutte_scan(g, mode=mode, samples=300)
    assert sorted(calls) == ["bridges", "is_connected"]
