"""Eigenvalue plumbing: spectra, Rayleigh extremes, block bounds, derived numbers."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import friendship, graphs
from specbound import spectral
from specbound.bipartite import spectral_bipartite_test
from specbound.coloring import min_degree_peel_color
from specbound.enumeration import enumerate_graphs
from specbound.generators import (
    complete,
    complete_bipartite,
    cycle,
    path,
    petersen,
    random_regular,
    subdivide,
)
from specbound.graphs import CapExceeded, Graph, mask_of
from specbound.matching import tutte_scan
from specbound.spectral import (
    adjacency_matrix,
    adjacency_spectrum,
    block_extremes,
    bounds,
    laplacian_matrix,
    laplacian_spectrum,
    margin,
    multiset_close,
    norm_floor,
    snapped_ceil,
    snapped_floor,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_path_four_spectrum():
    s = adjacency_spectrum(path(4))
    want = sorted(2 * math.cos(k * math.pi / 5) for k in (1, 2, 3, 4))
    assert multiset_close(s, want, 1e-9)
    assert s[-1] == pytest.approx(GOLDEN, abs=1e-9)


def test_cycle_spectra_match_cosines():
    for n in (3, 4, 5, 6, 12):
        s = adjacency_spectrum(cycle(n))
        want = sorted(2 * math.cos(2 * math.pi * k / n) for k in range(n))
        assert multiset_close(s, want, 1e-9)


def test_complete_graph_laplacian():
    s = laplacian_spectrum(complete(4))
    assert multiset_close(s, [0, 4, 4, 4], 1e-9)


def test_petersen_frozen_spectra():
    p = petersen()
    s = adjacency_spectrum(p)
    assert multiset_close(s, [-2] * 4 + [1] * 5 + [3], 1e-9)
    ls = laplacian_spectrum(p)
    assert multiset_close(ls, [0] + [2] * 5 + [5] * 4, 1e-9)


def test_spectrum_contains():
    s = adjacency_spectrum(cycle(6))  # a sorted tuple: 2cos(2 pi k / 6)
    for x, inside in ((2.0, True), (-2.0, True), (1.0, True), (1.5, False)):
        assert any(abs(v - x) <= 1e-9 for v in s) == inside


def test_laplacian_kernel_counts_components():
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
    assert laplacian_spectrum(g).count(0.0) == 3  # the kernel's noise is zeroed


@pytest.mark.parametrize("make", [lambda: subdivide(random_regular(16, 3, 1)),
                                  lambda: friendship(16)],
                         ids=["irregular-bipartite-40", "irregular-odd-cycle-33"])
def test_spectral_commands_read_no_adjacency_mask(make):
    # connectivity, 2-colorings and peeling walk the neighbor lists, so the
    # per-vertex bitmasks could be built lazily without touching these paths
    def maskless():
        g = make()
        del g.adj_masks
        return g

    for run in (bounds, norm_floor, spectral_bipartite_test, adjacency_spectrum,
                lambda g: min_degree_peel_color(g, g.max_degree)):
        run(maskless())


@given(graphs(min_n=2, max_n=10))
@settings(max_examples=60, deadline=None)
def test_extremes_bracket_average_degree(g):
    spec = adjacency_spectrum(g)
    m, M = spec[0], spec[-1]
    avg = 2 * g.m / g.n
    assert m - 1e-9 <= avg <= M + 1e-9
    assert M <= g.max_degree + 1e-9
    if g.m > 0:
        assert m < 0  # adjacency trace is zero, so some eigenvalue is negative
        assert M >= 1 - 1e-9  # an edge alone already gives norm 1


@given(st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_regular_laplacian_is_degree_shift(seed):
    g = random_regular(10, 3, seed=seed)
    adj = np.linalg.eigvalsh(adjacency_matrix(g))  # a solve of its own, not derived from L
    lap = laplacian_spectrum(g)
    shifted = sorted(3 - x for x in adj)
    assert multiset_close(lap, shifted, 1e-9)


def _assert_derived_adjacency_matches_the_dense_solve(g):
    adj = adjacency_spectrum(g)
    dense = np.linalg.eigvalsh(adjacency_matrix(g)).tolist()  # not derived from L
    # each solve strays by at most margin(g), and the noise rule may zero
    # either side of a pair that straddles its threshold
    slack = max(spectral.TOL, margin(g)) + 2 * margin(g)
    assert len(adj) == len(dense)
    assert all(abs(x - y) <= slack for x, y in zip(adj, dense))  # in order


def test_derived_adjacency_spectrum_on_every_regular_class_up_to_8():
    # edgeless, disconnected and complete graphs and n = 1 are all among them
    regular = [g for n in range(1, 9) for g in enumerate_graphs(n) if g.is_regular]
    assert len(regular) == 48  # 1 + 2 + 2 + 4 + 3 + 8 + 6 + 22, OEIS A005176
    for g in regular:
        _assert_derived_adjacency_matches_the_dense_solve(g)


@pytest.mark.parametrize("n", [50, 250, 1000])
@pytest.mark.parametrize("d", [3, 4])
def test_derived_adjacency_spectrum_on_random_regular_graphs(n, d):
    _assert_derived_adjacency_matches_the_dense_solve(random_regular(n, d, seed=n + d))


@pytest.mark.parametrize("g, solves", [
    (petersen(), ["eigvalsh"]),  # the Laplacian's; the adjacency's is d - lambda
    (path(12), ["eigvalsh"] * 2),
    (subdivide(petersen()), ["eigvalsh"] * 2),
    (path(40), ["svd", "eigvalsh"]),  # bipartite above the gate: the adjacency's is +-sigma(B)
], ids=["petersen", "path-12", "subdivided-petersen", "path-40"])
def test_each_operator_is_solved_once_per_graph(eigensolves, g, solves):
    # bounds, the Wilf floor, the bipartite test and the Tutte scan's flag
    # all read the spectra kept on the graph
    bounds(g)
    norm_floor(g)
    spectral_bipartite_test(g)
    tutte_scan(g, mode="randomized", samples=100)  # 25 vertices exceed the exhaustive cap
    assert eigensolves == solves


def test_regular_norm_equals_degree():
    for seed in range(10):
        g = random_regular(14, 4, seed=seed)
        M = adjacency_spectrum(g)[-1]
        assert M == pytest.approx(4.0, abs=1e-9)  # constants are always eigenvectors


def test_spectral_gap_values():
    assert bounds(complete(4)).gap == pytest.approx(4.0)
    assert bounds(cycle(4)).gap == pytest.approx(2.0)
    assert bounds(petersen()).gap == pytest.approx(2.0)


def test_spectral_gap_preconditions():
    assert bounds(path(3)).gap is None  # not regular
    assert bounds(Graph(6, [(0, 1), (2, 3), (4, 5)])).gap is None  # disconnected
    assert bounds(Graph(1, [])).gap is None


def test_mean_zero_extremes_cycle():
    b = bounds(cycle(6))
    assert b.mL == pytest.approx(1.0, abs=1e-9)
    assert b.ML == pytest.approx(4.0, abs=1e-9)
    b = bounds(Graph(4, [(0, 1), (2, 3)]))
    assert b.mL is None and b.ML is None


def test_block_extremes_petersen_halves():
    p = petersen()
    outer, inner = mask_of(range(5)), mask_of(range(5, 10))
    blocks = block_extremes(p, [outer, inner])
    for b in blocks:
        assert b.M == pytest.approx(2.0, abs=1e-9)  # each half induces a 5-cycle
        assert b.m == pytest.approx(-GOLDEN, abs=1e-9)


def test_block_extremes_empty_part():
    g = cycle(4)
    blocks = block_extremes(g, [g.full_mask, 0])
    assert blocks[1].m == 0.0 and blocks[1].M == 0.0


def test_block_extremes_builds_the_adjacency_matrix_once(record):
    g = petersen()
    parts = [mask_of([0, 1, 2]), mask_of([3, 4, 5, 6]), mask_of([7, 8, 9])]
    assert len(block_extremes(g, parts)) == 3
    assert len(record["matrix"]) == 1


def test_block_extremes_validates_partition():
    g = cycle(4)
    with pytest.raises(ValueError):
        block_extremes(g, [mask_of([0, 1]), mask_of([1, 2, 3])])
    with pytest.raises(ValueError):
        block_extremes(g, [mask_of([0, 1])])


def test_block_inequality_examples():
    # (k-1) m(T) + M(T) <= sum of block maxima, for any vertex partition
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(4, 18)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, sorted(rng.sample(pairs, rng.randint(n // 2, len(pairs)))))
        k = rng.randint(2, 4)
        labels = [rng.randrange(k) for _ in range(n)]
        parts = [mask_of([v for v in range(n) if labels[v] == i]) for i in range(k)]
        spec = adjacency_spectrum(g)
        m, M = spec[0], spec[-1]
        rhs = sum(b.M for b in block_extremes(g, parts))
        assert (k - 1) * m + M <= rhs + 1e-9


def test_matrices_agree_with_definitions():
    g = path(3)
    a = adjacency_matrix(g)
    l = laplacian_matrix(g)
    assert np.array_equal(a, a.T)
    d = np.diag(g.degrees)
    assert np.array_equal(l, d - a)


def test_snapping_absorbs_eigensolver_noise():
    assert snapped_floor(3.0 - 1e-12) == 3
    assert snapped_floor(2.9) == 2
    assert snapped_ceil(2.0 + 1e-12) == 2
    assert snapped_ceil(2.1) == 3


def test_bounds_pentagon():
    b = bounds(cycle(5))
    assert b.wilf == 3
    assert b.hoffman == 3  # ceil(1 + 2/1.618)
    assert b.gap == pytest.approx(2 - 2 * math.cos(2 * math.pi / 5))


def test_bounds_complete_graph_tight():
    b = bounds(complete(6))
    assert b.wilf == 6 and b.hoffman == 6


def test_bounds_petersen():
    b = bounds(petersen())
    assert b.M == pytest.approx(3.0, abs=1e-9)
    assert b.m == pytest.approx(-2.0, abs=1e-9)
    assert b.wilf == 4
    assert b.hoffman == 3
    assert b.gap == pytest.approx(2.0)
    assert b.mL == pytest.approx(2.0) and b.ML == pytest.approx(5.0)
    assert b.independence_bound == pytest.approx(0.4)


def test_bounds_edgeless_and_disconnected():
    b = bounds(Graph(3, []))
    assert b.hoffman is None and b.wilf == 1
    assert b.gap is None and b.mL is None
    c = bounds(Graph(4, [(0, 1), (2, 3)]))
    assert c.gap is None  # disconnected
    assert c.hoffman == 2


def test_min_degree_independence_bound_star():
    b = bounds(complete_bipartite(1, 3))
    # delta = 1, max Laplacian eigenvalue = 4: alpha/n <= 3/4, attained by the leaves
    assert b.mindeg_independence_bound == pytest.approx(0.75)


def test_dense_cap():
    with pytest.raises(CapExceeded):
        adjacency_spectrum(Graph(4097, []))


def test_dense_cap_is_checked_before_any_allocation(monkeypatch, record):
    allocated = []
    real = np.zeros
    monkeypatch.setattr(np, "zeros", lambda *a, **k: allocated.append(a) or real(*a, **k))
    for solve in (adjacency_spectrum, laplacian_spectrum, bounds, norm_floor,
                  lambda g: block_extremes(g, [g.full_mask])):
        for big in (cycle(4097), path(4097)):  # regular, and bipartite above the SVD gate
            with pytest.raises(CapExceeded):
                solve(big)
    assert allocated == [] and record["two_coloring"] == []
    assert len(adjacency_spectrum(cycle(5))) == 5  # the spy still counts
    assert allocated


# ---------------------------------------------------------------------------
# the adjacency spectrum of an irregular bipartite graph, from sigma(B)
# ---------------------------------------------------------------------------

def _union(*parts):
    edges, base = [], 0
    for g in parts:
        edges += [(base + u, base + v) for u, v in g.edges()]
        base += g.n
    return Graph(base, edges)


def _grid(a, b):
    return Graph(a * b, [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
                 + [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)])


def _random_tree(n, seed):
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def _random_bipartite(p, q, density, seed):
    rng = random.Random(seed)
    return Graph(p + q, [(u, v) for u in range(p) for v in range(p, p + q)
                         if rng.random() < density])


_BIPARTITE = {
    "path-32": path(32), "path-33": path(33), "path-200": path(200),
    "tree-50": _random_tree(50, 1), "tree-120": _random_tree(120, 2),
    "grid-6x7": _grid(6, 7), "grid-20x25": _grid(20, 25),
    "subdivided-K8": subdivide(complete(8)), "subdivided-rr20": subdivide(random_regular(20, 3, 1)),
    "bipartite-10x45": _random_bipartite(10, 45, 0.3, 3),
    "bipartite-40x12": _random_bipartite(40, 12, 0.2, 4),
    "star-40": complete_bipartite(1, 40),  # B has rank 1
    "disconnected": _union(path(10), complete_bipartite(1, 5), _grid(3, 4), Graph(6, [])),
    "edgeless-40": Graph(40, []),  # 0-regular: the Laplacian's solve gives both
}


@pytest.mark.parametrize("g", _BIPARTITE.values(), ids=_BIPARTITE.keys())
def test_bipartite_spectrum_from_sigma_matches_the_full_solve(eigensolves, g):
    adj, lap = adjacency_spectrum(g), laplacian_spectrum(g)
    assert eigensolves == (["eigvalsh"] if g.is_regular else ["svd", "eigvalsh"])
    full = np.linalg.eigvalsh(adjacency_matrix(g)).tolist()
    slack = max(spectral.TOL, margin(g)) + 2 * margin(g)
    assert len(adj) == len(full)
    assert all(abs(x - y) <= slack for x, y in zip(adj, full))  # in order
    printed = [float(f"{x:.12g}") for x in adj]
    assert printed == [-x for x in reversed(printed)]  # exact +-x pairs
    dense_lap = np.linalg.eigvalsh(laplacian_matrix(g)).tolist()
    assert lap == spectral._denoised(dense_lap, spectral._noise(g))


@pytest.mark.parametrize("g, solve", [
    (path(31), "eigvalsh"), (path(32), "svd"),
    (Graph(40, [(i, i + 1) for i in range(39)] + [(0, 2)]), "eigvalsh"),  # a triangle
], ids=["path-31", "path-32", "odd-cycle-40"])
def test_svd_gate(eigensolves, g, solve):
    adjacency_spectrum(g)
    assert eigensolves == [solve]


# ---------------------------------------------------------------------------
# norm_floor: the certified floor(M) against the dense solve it replaces
# ---------------------------------------------------------------------------

def _dense_floor(g):
    return snapped_floor(float(np.linalg.eigvalsh(adjacency_matrix(g))[-1]))


def test_norm_floor_matches_dense_on_every_class_up_to_8():
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            assert norm_floor(g) == _dense_floor(g), g.edges()


@pytest.mark.parametrize("seed", range(12))
def test_norm_floor_matches_dense_on_seeded_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(9, 201)
    p = rng.choice((0.02, 0.05, 0.2, 0.6))
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    assert norm_floor(g) == _dense_floor(g)
    h = random_regular(n - n % 2, rng.randrange(1, 5), seed)
    assert norm_floor(h) == _dense_floor(h) == h.max_degree
    assert norm_floor(path(n)) == _dense_floor(path(n)) == 1


@pytest.mark.parametrize("g, want", [
    (complete_bipartite(1, 4), 2), (complete_bipartite(1, 9), 3),
    (complete_bipartite(4, 9), 6), (cycle(7), 2), (complete(6), 5),
], ids=["star-4", "star-9", "K4,9", "C7", "K6"])
def test_integer_norm_is_certified_without_an_eigensolve(eigensolves, g, want):
    assert norm_floor(g) == want
    assert eigensolves == []


@pytest.mark.parametrize("g, want", [
    (Graph(6, [(0, 5), (1, 5), (2, 4), (3, 4), (4, 5)]), 2),  # double star, M = 2
    (friendship(3), 3), (friendship(6), 4), (friendship(10), 5),
    (_union(complete(4), Graph(1, [])), 3),
], ids=["double-star", "friendship-3", "friendship-6", "friendship-10", "K4+K1"])
def test_integer_norm_off_the_certificate_goes_dense(eigensolves, g, want):
    # the lower end of the bracket floors to t = M - 1, and no bound can
    # show M < t + 1 = M, so eigvalsh decides
    assert norm_floor(g) == want
    assert eigensolves == ["eigvalsh"]
    assert _dense_floor(g) == want


def test_margin_scales_with_order_and_degree():
    eps = np.finfo(float).eps
    for g in (Graph(1, []), path(50), complete(30), random_regular(200, 3, 1)):
        assert margin(g) >= g.n * max(g.max_degree, 1) * eps


@pytest.mark.parametrize("g, eps, boundary, want, solves", [
    (petersen(), 1e-11, 3, 3, ["eigvalsh"]),  # M = 3, margin 3.2e-9 > TOL
    (path(200), 1e-6, 2, 1, ["svd"]),  # M = 2 - 2.4e-4, margin 4.8e-3
], ids=["petersen", "path-200"])
def test_no_certificate_within_the_margin_of_a_snap_boundary(eigensolves, monkeypatch,
                                                             g, eps, boundary, want, solves):
    # a dense solve may stray by the margin, and within it of the snap
    # boundary (an integer minus TOL) the floor it snaps to could differ, so
    # neither the degree bracket nor the 2-walk bound may settle it; the
    # machine epsilon is inflated to put M that close
    monkeypatch.setattr(spectral, "EPS", eps)
    # the precondition is read off a copy, so the fallback solve on g counts
    copy = Graph(g.n, g.edges())
    assert abs(boundary - spectral.TOL - adjacency_spectrum(copy)[-1]) < margin(g)
    eigensolves.clear()
    assert norm_floor(g) == want
    assert eigensolves == solves
