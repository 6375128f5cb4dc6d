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

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import friendship, graphs
from specbound import cli
from specbound.bipartite import _odd_cycle_gap, bfs_bipartition_oracle, spectral_bipartite_test
from specbound.coloring import wilf_color
from specbound.enumeration import enumerate_graphs
from specbound.generators import (complete, complete_bipartite, cycle, path, petersen,
                                  random_regular, subdivide)
from specbound.graphs import Graph, bfs_levels, bits, dump_edge_list, is_connected
from specbound.invariants import _is_bipartition
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
    flag equal the dense ones, a certified verdict agrees with the BFS
    truth, and any printed bipartition is one by definition.  Returns, per
    tolerance, whether each certificate settled its answer without solving
    a spectrum.  The proved gaps are checked against the dense spectrum
    too."""
    dense = _solved(g)
    _assert_gap_lemmas(dense)
    truth = bfs_bipartition_oracle(g) is not None
    h = _fresh(g)
    closed = []
    for tol in tols:
        _forget(h)
        verdict = spectral_bipartite_test(h, tol)
        assert verdict == spectral_bipartite_test(dense, tol), (g.edges(), tol)
        if verdict.bipartition is not None:
            assert _is_bipartition(g, verdict.bipartition), g.edges()
        bip_closed = h._adj_spectrum is None and h._lap_spectrum is None
        if bip_closed:
            assert verdict.symmetric_spectrum == verdict.minus_d_in_spectrum == truth
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
    the dense solve may say so."""
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
    # from 1e-12 to 1e-6 the BFS 2-coloring proves every bipartite class
    # with an edge and the odd-cycle gap every regular class with an odd
    # cycle; from 0.5 that gap is too weak, and below 4 eta nothing may run
    total = bipartite_classes = odd_regular_classes = 0
    flag = dict.fromkeys(TOLS, 0)
    for n in range(1, 9):
        for g in enumerate_graphs(n, connected=True):
            total += 1
            is_bipartite = bfs_bipartition_oracle(g) is not None
            proved = is_bipartite and n >= 2
            odd_regular = g.is_regular and not is_bipartite
            bipartite_classes += proved
            odd_regular_classes += odd_regular
            narrow = proved or odd_regular
            expected = {1e-300: False, 1e-12: narrow, TOL: narrow, 1e-6: narrow,
                        0.5: proved, 1.0: proved, 5.0: proved}
            for tol, (b, f) in zip(TOLS, _check(g)):
                assert b == expected[tol], (g.edges(), tol)
                flag[tol] += bool(f)
    assert total == 12_113  # connected graphs on 1..8 vertices, OEIS A001349
    assert (bipartite_classes, odd_regular_classes) == (253, 25)
    assert flag == {1e-300: 11_462, 1e-12: 11_462, TOL: 11_462, 1e-6: 11_462,
                    0.5: 11_071, 1.0: 10_394, 5.0: 106}


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


def _components(g):
    """Vertex masks of the components of ``g``, ordered by least vertex."""
    comps, rest = [], g.full_mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= g.adj_masks[v]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


@given(graphs(min_n=2, max_n=12), st.sampled_from(TOLS) | st.floats(0.0, 6.0),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_certified_verdicts_match_the_dense_path_on_random_graphs(g, tol, rng):
    # join the components by a path through one vertex of each
    picks = [rng.choice(list(bits(c))) for c in _components(g)]
    g = Graph(g.n, set(g.edges()) | {tuple(sorted(p)) for p in zip(picks, picks[1:])})
    _check(g, (tol,))


def test_each_graph_tries_only_the_certificate_that_can_close(record, eigensolves):
    # a bipartite graph is proved so by its BFS 2-coloring and a regular
    # graph with an odd cycle by the proved gap d + l_min >= 2 / (n (4e + 1));
    # an irregular one with an odd cycle, or one that gap is too weak for
    # (Petersen at --tol 5), is solved; an irregular connected graph with
    # t = d - 1 has its Wilf floor from d - M >= 1 / (n (2e + 1)), a star
    # from the 2-walk bound M <= sqrt(W), and 4 triangles at a hub, whose
    # W = 16 gives only M <= 4, is solved
    builds = record["matrix"]
    for test, g, solved in (
            (spectral_bipartite_test, cycle(200), False),
            (spectral_bipartite_test, subdivide(petersen()), False),
            (spectral_bipartite_test, path(101), False),
            (spectral_bipartite_test, cycle(201), False),
            (spectral_bipartite_test, petersen(), False),
            (partial(spectral_bipartite_test, tol=5.0), petersen(), True),
            (spectral_bipartite_test, _far_odd_cycle(), True),
            (norm_floor, path(1000), False),
            (norm_floor, complete_bipartite(1, 4), False),
            (norm_floor, friendship(4), True)):
        builds.clear()
        eigensolves.clear()
        test(_fresh(g))
        assert (len(builds), eigensolves) == ((1, ["eigvalsh"]) if solved else (0, [])), g.edges()


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


def test_the_wilf_floor_after_bounds_reads_the_kept_spectrum(record, eigensolves):
    # as the sweeps and verify run it: no matrix is built and nothing solved
    # again (the friendship graph would be solved once on a fresh graph)
    solved = [(g, bounds(g).wilf) for g in (petersen(), path(12), friendship(4))]
    builds = record["matrix"]
    builds.clear()
    eigensolves.clear()
    for g, wilf in solved:
        assert wilf_color(g).palette_size <= wilf
    assert builds == eigensolves == []


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_large_bipartite_and_wilf_commands_factor_nothing(record, eigensolves):
    # the shapes of the benchmark's n = 250..1000 ops: connected cubic
    # graphs with odd cycles, and a path in a random vertex order; no matrix
    # is built and nothing is solved
    cubic = [g for g in (random_regular(n, 3, seed) for n in (250, 500, 1000) for seed in range(3))
             if is_connected(g)]
    assert len(cubic) >= 3
    builds = record["matrix"]
    for argv, g in [(["bipartite"], c) for c in cubic] + [
            (["color", "--algorithm", "wilf"], _relabelled(path(1000), 1))]:
        assert cli.run(argv, stdin_text=dump_edge_list(g), out=io.StringIO()) == 0
        assert builds == eigensolves == [], (argv, g)


def test_a_bipartite_op_runs_one_two_coloring(record):
    # the bfs_bipartite field is the verdict's, from its one BFS 2-coloring
    colorings = record["two_coloring"]
    for g, bfs in ((cycle(1000), True), (cycle(999), False)):
        colorings.clear()
        out = io.StringIO()
        assert cli.run(["bipartite"], stdin_text=dump_edge_list(g), out=out) == 0
        assert json.loads(out.getvalue())["payload"]["bfs_bipartite"] is bfs
        assert len(colorings) == 1


def test_a_regular_graph_carrying_its_spectrum_prints_the_bfs_sides(record, eigensolves):
    # the dense path, as verify takes it after bounds: the spectrum decides
    # the indicators, the BFS 2-coloring gives the sides, and nothing solves
    g = _solved(cycle(200))
    builds = record["matrix"]
    builds.clear()
    eigensolves.clear()
    verdict = spectral_bipartite_test(g)
    assert builds == eigensolves == []
    assert verdict.symmetric_spectrum and verdict.minus_d_in_spectrum
    assert _is_bipartition(g, verdict.bipartition)
