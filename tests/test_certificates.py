"""The certified bipartite verdict and doubled-gap flag against the dense path.

Each certificate may settle an answer only where the dense solve it skips
would print the same one.  The dense reference is the same function on a
copy of the graph that already carries its spectra, which switches the
certificates off; the BFS 2-coloring is the ground truth.  The hit rates are
asserted too, so a certificate that never closes cannot pass unnoticed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from specbound import bipartite, spectral
from specbound.bipartite import bfs_bipartition_oracle, spectral_bipartite_test
from specbound.enumeration import enumerate_graphs
from specbound.generators import complete, cycle, path, petersen, random_regular, subdivide
from specbound.graphs import Graph, bits, components, is_connected
from specbound.matching import _doubled_gap_holds
from specbound.spectral import TOL, adjacency_spectrum, laplacian_spectrum

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


def _check(g, tols=TOLS):
    """For each tolerance: the certified bipartite verdict and doubled-gap
    flag equal the dense ones, and a certified verdict, or any printed
    bipartition, agrees with the BFS truth.  Returns, per tolerance, whether
    each certificate settled its answer without solving a spectrum."""
    dense = _solved(g)
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


def _corpus():
    """Connected graphs: seeded regular ones, their subdivisions, paths and
    cycles, named graphs."""
    out = [petersen(), subdivide(petersen()), complete(6), subdivide(complete(5))]
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
    # a bipartite graph is proved so by its BFS 2-coloring, with no matrix
    # built, and a graph with an odd cycle factors A + (h - tol - 3 eta) I
    calls = _count_calls(monkeypatch)
    for g, tol, tried in ((cycle(200), TOL, []), (subdivide(petersen()), TOL, []),
                          (path(101), TOL, []), (cycle(201), TOL, ["cholesky"]),
                          (petersen(), TOL, ["cholesky"]), (petersen(), 5.0, ["cholesky"])):
        calls.clear()
        spectral_bipartite_test(_fresh(g), tol)
        assert [c for c in calls if c != "adjacency_matrix"] == tried, (g.edges(), tol)
        if not tried:  # bipartite: not even a matrix is built
            assert calls == [], g.edges()


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
