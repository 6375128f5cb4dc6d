"""The certified bipartite verdict, doubled-gap flag and Wilf floor against
the dense path, and the two proved eigenvalue gaps behind them.

Each certificate may settle an answer only where the dense solve it skips
would print the same one.  The dense reference is the same function on a
copy of the graph that already carries its spectra, which switches the
certificates off; the BFS 2-coloring is the ground truth.  The hit rates are
asserted too, so a certificate that never closes cannot pass unnoticed.
"""

import io
import json
import math
import random
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import friendship, graphs
from specbound import bipartite, cli, spectral
from specbound.bipartite import _odd_cycle_gap, bfs_bipartition_oracle, spectral_bipartite_test
from specbound.coloring import wilf_color
from specbound.enumeration import enumerate_graphs
from specbound.generators import (complete, complete_bipartite, cycle, path, petersen,
                                  random_regular, subdivide)
from specbound.graphs import Graph, bfs_levels, bits, components, dump_edge_list, is_connected
from specbound.matching import _doubled_gap_holds
from specbound.spectral import (TOL, _irregular_gap, adjacency_spectrum, bounds,
                                laplacian_spectrum, margin, norm_floor)

TOLS = (1e-300, 1e-12, 1e-9, 1e-6, 0.5, 1.0, 5.0)


def _fresh(g):
    return Graph(g.n, g.edges())


def _forget(g):
    """Drop the spectra memoized on ``g``, so the certificates run again."""
    g._adj_spectrum = g._lap_spectrum = None


def _solved(g):
    """A copy of ``g`` carrying both spectra, so no certificate runs on it."""
    h = _fresh(g)
    adjacency_spectrum(h)
    laplacian_spectrum(h)
    return h


def _eccentricity(g, s):
    dist, frontier = {s: 0}, [s]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return max(dist.values())


def _assert_gap_lemmas(g):
    """The proved gaps hold on a connected ``g`` carrying its spectrum, up to
    ``eta``: ``d + l_min >= _odd_cycle_gap`` on a regular graph with an odd
    cycle, ``d - M >= _irregular_gap`` on an irregular one.  Each is taken at
    the radius, the least eccentricity they allow, up to 12 vertices, and at
    vertex 0's, the one the certificates read, above."""
    if g.n < 2:
        return
    e = (min(_eccentricity(g, s) for s in range(g.n)) if g.n <= 12
         else max(bfs_levels(g)))
    adj, d, eta = adjacency_spectrum(g), g.max_degree, margin(g)
    if not g.is_regular:
        assert d - adj[-1] >= _irregular_gap(g.n, e) - eta, g.edges()
    elif bfs_bipartition_oracle(g) is None:
        assert d + adj[0] >= _odd_cycle_gap(g.n, e) - eta, g.edges()


def _check(g, tols=TOLS):
    """For each tolerance: the certified bipartite verdict and doubled-gap
    flag equal the dense ones, and a certified verdict, or any printed
    bipartition, agrees with the BFS truth.  Returns, per tolerance, whether
    each certificate settled its answer without solving a spectrum.  The
    proved gaps are checked against the dense spectrum too."""
    dense = _solved(g)
    _assert_gap_lemmas(dense)
    oracle = bfs_bipartition_oracle(g)
    h = _fresh(g)
    closed = []
    for tol in tols:
        _forget(h)
        verdict = spectral_bipartite_test(h, tol)
        assert verdict == spectral_bipartite_test(dense, tol), (g.edges(), tol)
        if verdict.bipartition is not None:
            assert set(verdict.bipartition) == set(oracle), g.edges()
        bip_closed = h._adj_spectrum is None and h._lap_spectrum is None
        if bip_closed:
            assert verdict.symmetric_spectrum == verdict.minus_d_in_spectrum == (oracle is not None)
        flag_closed = None
        if g.n >= 2:
            _forget(h)
            assert _doubled_gap_holds(h, tol) == _doubled_gap_holds(dense, tol), (g.edges(), tol)
            flag_closed = h._lap_spectrum is None
        closed.append((bip_closed, flag_closed))
    return closed


def _far_odd_cycle():
    """A 9-leaf star, a 6-edge path from one leaf and a triangle at its end:
    irregular, with ``M + l_min`` about 4.2e-7, far below the regular gap
    bound at its order, so at tol 1e-6 its -M indicator is true, and only
    the dense solve, after the factorization fails, may say so."""
    es = [(0, i) for i in range(1, 10)] + [(1, 10)] + [(i, i + 1) for i in range(10, 17)]
    return Graph(18, es + [(15, 17)])


def _corpus():
    """Connected graphs: seeded regular ones, their subdivisions, paths and
    cycles, named graphs, and an irregular one with a far odd cycle."""
    out = [petersen(), subdivide(petersen()), complete(6), subdivide(complete(5)),
           _far_odd_cycle()]
    for n in (10, 12, 16, 20, 30, 50, 100, 250):
        for d in (3, 4):
            for seed in range(3):
                g = random_regular(n, d, seed)
                if is_connected(g):
                    out += [g, subdivide(g)]
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 25, 64, 101, 200):
        out.append(path(n))
        if n >= 3:
            out.append(cycle(n))
    return out


def test_certified_verdicts_match_the_dense_path_on_every_class_up_to_8():
    total = 0
    bip = dict.fromkeys(TOLS, 0)
    flag = dict.fromkeys(TOLS, 0)
    for n in range(1, 9):
        for g in enumerate_graphs(n, connected=True):
            total += 1
            for tol, (b, f) in zip(TOLS, _check(g)):
                bip[tol] += b
                flag[tol] += bool(f)
    assert total == 12_113  # connected graphs on 1..8 vertices, OEIS A001349
    assert bip[1e-300] == 0  # below 4 eta no certificate may run
    # measured: 12,107 at 1e-12..1e-6; 11,043 at 0.5; 8,377 at 1; 254 at 5
    assert bip[1e-12] == bip[TOL] == bip[1e-6] >= 12_000
    # measured: 11,462 at 1e-300..1e-6; 11,071 at 0.5; 10,394 at 1; 106 at 5
    assert flag[1e-300] == flag[TOL] >= 11_000


def test_certified_verdicts_match_the_dense_path_on_larger_graphs():
    for g in _corpus():
        _check(g)


def test_certificates_close_on_random_cubic_graphs():
    # 2U < Delta + 1 = 4 once the BFS levels spread; rr(10, 3) and rr(20, 3)
    # may fall back
    for n in range(10, 101, 2):
        for seed in range(2):
            g = random_regular(n, 3, seed)
            if is_connected(g):
                [(bip, flag)] = _check(g, (TOL,))
                assert bip, (n, seed)
                assert flag or n < 30, (n, seed)


def test_certificates_close_on_bipartite_and_subdivided_graphs():
    # the BFS 2-coloring proves regular and irregular bipartite graphs alike
    for g in (path(200), cycle(200), subdivide(petersen()),
              subdivide(random_regular(100, 3, 1))):
        assert _check(g, (TOL,))[0][0], g


@given(graphs(min_n=2, max_n=12), st.sampled_from(TOLS) | st.floats(0.0, 6.0),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_certified_verdicts_match_the_dense_path_on_random_graphs(g, tol, rng):
    # join the components by a path through one vertex of each
    picks = [rng.choice(list(bits(c))) for c in components(g)]
    g = Graph(g.n, set(g.edges()) | {tuple(sorted(p)) for p in zip(picks, picks[1:])})
    _check(g, (tol,))


def _count_calls(monkeypatch):
    """The names of the numpy factorizations and solves, and of the dense
    adjacency matrix builds, called from here on, in order."""
    calls = []

    def counting(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or real(*a, **k))

    for name in ("cholesky", "solve"):
        counting(np.linalg, name)
    for module in (spectral, bipartite):  # bipartite binds its own name
        counting(module, "adjacency_matrix")
    return calls


def test_each_graph_tries_only_the_certificate_that_can_close(monkeypatch):
    # a bipartite graph is proved so by its BFS 2-coloring, a regular graph
    # with an odd cycle by the proved gap d + l_min >= 2 / (n (4e + 1)), and
    # an irregular one, or one that gap is too weak for (Petersen at --tol
    # 5), factors A + (h - tol - 3 eta) I; an irregular connected graph with
    # t = d - 1 has its Wilf floor from d - M >= 1 / (n (2e + 1)), a star
    # from the 2-walk bound M <= sqrt(W), and 4 triangles at a hub, whose
    # W = 16 gives only M <= 4, factor
    calls = _count_calls(monkeypatch)
    for test, g, tried in (
            (spectral_bipartite_test, cycle(200), []),
            (spectral_bipartite_test, subdivide(petersen()), []),
            (spectral_bipartite_test, path(101), []),
            (spectral_bipartite_test, cycle(201), []),
            (spectral_bipartite_test, petersen(), []),
            (partial(spectral_bipartite_test, tol=5.0), petersen(), ["cholesky"]),
            (spectral_bipartite_test, _far_odd_cycle(), ["cholesky"]),
            (norm_floor, path(1000), []),
            (norm_floor, complete_bipartite(1, 4), []),
            (norm_floor, friendship(4), ["cholesky"])):
        calls.clear()
        test(_fresh(g))
        assert [c for c in calls if c != "adjacency_matrix"] == tried, g.edges()
        if not tried:  # not even a matrix is built
            assert calls == [], g.edges()


def _centred_path(n):
    """P_n labelled so that vertex 0 is a centre: its eccentricity is n // 2."""
    return Graph(n, [((i - n // 2) % n, (i + 1 - n // 2) % n) for i in range(n - 1)])


def test_the_proved_gaps_are_within_a_factor_pi_squared_on_odd_cycles_and_paths():
    # C_n (odd n) and P_n have d + l_min = 2 - 2 cos(pi / n) and
    # d - M = 2 - 2 cos(pi / (n + 1)); the bounds sit below them, by a ratio
    # that tends to pi^2, so a bound made 10x stronger fails here
    ratios = []
    for n in range(3, 1002, 2):
        e = max(bfs_levels(cycle(n)))
        assert e == (n - 1) // 2
        exact = 2 - 2 * math.cos(math.pi / n)
        assert exact >= _odd_cycle_gap(n, e), n
        ratios.append(exact / _odd_cycle_gap(n, e))
    for n in range(3, 1002):
        e = max(bfs_levels(_centred_path(n)))
        assert e == n // 2
        exact = 2 - 2 * math.cos(math.pi / (n + 1))
        assert exact >= _irregular_gap(n, e), n
        ratios.append(exact / _irregular_gap(n, e))
    assert max(ratios) < math.pi ** 2 < 10


def test_the_wilf_floor_after_bounds_reads_the_kept_spectrum(monkeypatch):
    # as the sweeps and verify run it: no matrix is built and nothing factored
    # (the friendship graph would factor once on a fresh graph)
    solved = [(g, bounds(g).wilf) for g in (petersen(), path(12), friendship(4))]
    calls = _count_calls(monkeypatch)
    for g, wilf in solved:
        assert wilf_color(g).palette_size <= wilf
    assert calls == []


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_large_bipartite_and_wilf_commands_factor_nothing(monkeypatch):
    # the shapes of the benchmark's n = 250..1000 ops: connected cubic
    # graphs with odd cycles, and a path in a random vertex order
    cubic = [g for g in (random_regular(n, 3, seed) for n in (250, 500, 1000) for seed in range(3))
             if is_connected(g)]
    assert len(cubic) >= 3
    calls = _count_calls(monkeypatch)
    for argv, g in [(["bipartite"], c) for c in cubic] + [
            (["color", "--algorithm", "wilf"], _relabelled(path(1000), 1))]:
        assert cli.run(argv, stdin_text=dump_edge_list(g), out=io.StringIO()) == 0
        assert calls == [], (argv, g)


def test_a_bipartite_op_runs_one_two_coloring(monkeypatch):
    # the bfs_bipartite field is the verdict's, from its one BFS 2-coloring
    colorings = []
    real = bipartite._two_coloring
    monkeypatch.setattr(bipartite, "_two_coloring",
                        lambda *a, **k: colorings.append(1) or real(*a, **k))
    for g, bfs in ((cycle(1000), True), (cycle(999), False)):
        colorings.clear()
        out = io.StringIO()
        assert cli.run(["bipartite"], stdin_text=dump_edge_list(g), out=out) == 0
        assert json.loads(out.getvalue())["payload"]["bfs_bipartite"] is bfs
        assert len(colorings) == 1


def test_a_regular_graph_carrying_its_spectrum_prints_the_bfs_sides(monkeypatch):
    # the dense path, as verify takes it after bounds: the spectrum decides
    # the indicators, the BFS 2-coloring gives the sides, and nothing solves
    g = _solved(cycle(200))
    calls = _count_calls(monkeypatch)
    verdict = spectral_bipartite_test(g)
    assert calls == []
    assert verdict.symmetric_spectrum and verdict.minus_d_in_spectrum
    assert verdict.bipartition == bfs_bipartition_oracle(g)
    assert verdict.bipartition[0] & 1  # vertex 0's side first
