"""Spectral bipartiteness indicators, side extraction, rotation two-colorings."""

import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound.bipartite import (
    bfs_bipartition_oracle,
    is_symmetric_spectrum,
    rotation_two_coloring,
    spectral_bipartite_test,
)
from specbound.enumeration import enumerate_graphs
from specbound.generators import (
    complete,
    complete_bipartite,
    cycle,
    path,
    petersen,
    subdivide,
)
from specbound.cli import run
from specbound.graphs import Graph, bits, dump_edge_list, is_connected, mask_of
from specbound.invariants import _is_bipartition
from specbound.spectral import adjacency_matrix, adjacency_spectrum

GOLDEN_CONJUGATE = (math.sqrt(5) - 1) / 2
SIGN_EPS = 1e-9  # eigenvector entries closer to 0 than this are undecided


def _sides_as_sets(pair):
    a, b = pair
    return {frozenset(bits(a)), frozenset(bits(b))}


def test_even_cycle_verdict():
    v = spectral_bipartite_test(cycle(6))
    assert v.symmetric_spectrum and v.minus_d_in_spectrum
    assert v.regular
    assert _sides_as_sets(v.bipartition) == {frozenset({0, 2, 4}), frozenset({1, 3, 5})}


def test_extraction_agrees_with_search_oracle():
    for g in (cycle(8), complete_bipartite(3, 3), subdivide(complete(4))):
        oracle = bfs_bipartition_oracle(g)
        assert oracle is not None
        if g.is_regular:
            v = spectral_bipartite_test(g)
            assert v.bipartition is not None
            assert _sides_as_sets(v.bipartition) == _sides_as_sets(oracle)


def test_odd_cycle_verdict():
    v = spectral_bipartite_test(cycle(5))
    assert not v.symmetric_spectrum
    assert not v.minus_d_in_spectrum
    assert v.bipartition is None
    assert bfs_bipartition_oracle(cycle(5)) is None


def test_petersen_not_bipartite():
    v = spectral_bipartite_test(petersen())
    assert not v.symmetric_spectrum and not v.minus_d_in_spectrum


def test_irregular_graph_skips_extraction():
    v = spectral_bipartite_test(complete_bipartite(1, 3))
    assert not v.regular
    assert v.symmetric_spectrum  # stars are bipartite
    assert v.minus_d_in_spectrum  # -M is in the spectrum
    assert v.bipartition is None
    assert "not regular" in v.note


def test_irregular_non_bipartite():
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    v = spectral_bipartite_test(paw)
    assert not v.symmetric_spectrum
    assert not v.minus_d_in_spectrum


def test_disconnected_input_rejected():
    with pytest.raises(ValueError):
        spectral_bipartite_test(Graph(4, [(0, 1), (2, 3)]))


def test_symmetry_helper():
    assert is_symmetric_spectrum(adjacency_spectrum(cycle(4)))
    assert not is_symmetric_spectrum(adjacency_spectrum(cycle(3)))
    assert is_symmetric_spectrum(adjacency_spectrum(path(5)))  # trees are bipartite


def test_bfs_oracle_seeds_ascending():
    oracle = bfs_bipartition_oracle(path(4))
    assert oracle is not None
    side0, side1 = oracle
    assert (side0 >> 0) & 1  # vertex 0 goes on the first side
    assert side0 | side1 == mask_of(range(4))
    assert side0 & side1 == 0


def test_bfs_oracle_handles_disconnected_and_isolated():
    g = Graph(5, [(0, 1), (2, 3)])
    oracle = bfs_bipartition_oracle(g)
    assert oracle is not None
    side0, side1 = oracle
    g2 = Graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])  # triangle component
    assert bfs_bipartition_oracle(g2) is None


def test_rotation_label_of_origin():
    col = rotation_two_coloring(GOLDEN_CONJUGATE, 0.05, 200)
    assert col.labels[0] == 0  # the origin lands in the base interval immediately


def test_rotation_defect_is_sparse():
    gamma = 0.05
    n = 1000
    col = rotation_two_coloring(GOLDEN_CONJUGATE, gamma, n)
    assert col.defect_count <= int(gamma * n) + 1


def test_rotation_neighboring_samples_disagree_off_defect():
    alpha = GOLDEN_CONJUGATE
    gamma = 0.05
    n = 400
    col = rotation_two_coloring(alpha, gamma, n)
    # recompute hit times directly to find the defect samples
    def hit(x):
        j = 0
        while not (0.0 <= (x + j * alpha) % 1.0 < gamma):
            j += 1
        return j

    bad = 0
    for k in range(n - 1):
        x = (k * alpha) % 1.0
        if hit(x) == 0:  # x already inside the base interval: parity may not flip
            bad += 1
            continue
        assert col.labels[k] != col.labels[k + 1]
    # the defect is exactly the set of samples inside the base interval; the
    # final sample is outside the loop above
    assert col.defect_count - 1 <= bad <= col.defect_count


def test_rotation_validates_parameters():
    with pytest.raises(ValueError):
        rotation_two_coloring(0.5, 0.05, 10)  # rational angle
    with pytest.raises(ValueError):
        rotation_two_coloring(1 / 3, 0.05, 10)
    with pytest.raises(ValueError):
        rotation_two_coloring(GOLDEN_CONJUGATE, 0.7, 10)  # interval too wide
    with pytest.raises(ValueError):
        rotation_two_coloring(1.2, 0.05, 10)
    with pytest.raises(ValueError):
        rotation_two_coloring(GOLDEN_CONJUGATE, 0.05, 0)


@given(st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_even_cycles_bipartite_odd_not(k):
    n = 2 * k
    assert bfs_bipartition_oracle(cycle(n)) is not None
    assert bfs_bipartition_oracle(cycle(n + 1)) is None
    assert is_symmetric_spectrum(adjacency_spectrum(cycle(n)))
    assert not is_symmetric_spectrum(adjacency_spectrum(cycle(n + 1)))


def test_bipartiteness_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            expected = nx.is_bipartite(h)
            assert (bfs_bipartition_oracle(g) is not None) == expected, g
            if is_connected(g):
                assert spectral_bipartite_test(g).minus_d_in_spectrum == expected, g


# ---------------------------------------------------------------------------
# the printed sides against eigh's sign pattern and the BFS sides
# ---------------------------------------------------------------------------

def _eigh_sides(g):
    """Sides and undecided vertices from the sign pattern of eigh's least
    eigenvector, canonically ordered: the spectral extraction, independent
    of the BFS 2-coloring that prints the sides."""
    vec = np.linalg.eigh(adjacency_matrix(g))[1][:, 0]
    pos = mask_of(v for v in range(g.n) if vec[v] > SIGN_EPS)
    neg = mask_of(v for v in range(g.n) if vec[v] < -SIGN_EPS)
    lo = (pos | neg) & -(pos | neg)
    if lo & neg:
        pos, neg = neg, pos
    return (pos, neg), g.full_mask & ~(pos | neg)


def _bipartite_output(g, tol):
    out = io.StringIO()
    assert run(["bipartite", "--tol", repr(tol)], stdin_text=dump_edge_list(g), out=out) == 0
    return out.getvalue()


def _bipartite_cubic(n, seed):
    """Connected simple 3-regular bipartite graph: three perfect matchings
    between the sides 0..n/2-1 and n/2..n-1."""
    rng = random.Random(seed)
    k = n // 2
    while True:
        edges = set()
        for _ in range(3):
            right = list(range(k, n))
            while not edges.isdisjoint(zip(range(k), right)):
                rng.shuffle(right)
            edges.update(zip(range(k), right))
        g = Graph(n, sorted(edges))
        if is_connected(g):
            return g


@pytest.mark.parametrize("tol", [1e-9, 0.5, 1.0])
def test_extraction_matches_eigh_on_every_regular_class_up_to_8(tol):
    # tol = 0.5 and 1.0 let -d "match" the least eigenvalue of non-bipartite
    # graphs, multiple ones included: the edge check must print no sides there
    extracted = 0
    for n in range(2, 9):
        for g in enumerate_graphs(n, connected=True):
            if not g.is_regular:
                continue
            p = json.loads(_bipartite_output(g, tol))["payload"]
            oracle = bfs_bipartition_oracle(g)
            assert (p["bipartition"] is not None) == (oracle is not None), g.edges()
            if oracle is not None:
                extracted += 1
                assert _is_bipartition(g, tuple(map(mask_of, p["bipartition"]))), g.edges()
                assert p["defect"] == []
                assert _eigh_sides(g) == (oracle, 0), g.edges()
            else:  # a note exactly when -d matched the spectrum at this tol
                assert bool(p["note"]) == p["minus_d_in_spectrum"], g.edges()
    assert extracted == 7  # K2, C4, C6, C8, K33, K44 and the cube


@pytest.mark.parametrize("n, seed", [(20, 1), (100, 2), (250, 3), (500, 4), (1000, 5)])
def test_extraction_is_certified_on_bipartite_cubic_graphs(eigensolves, n, seed):
    g = _bipartite_cubic(n, seed)
    v = spectral_bipartite_test(g)
    assert eigensolves == []  # the BFS 2-coloring proved it and gave the sides
    assert _eigh_sides(g) == (v.bipartition, 0)
    assert _is_bipartition(g, v.bipartition)


@pytest.mark.parametrize("tol", [1.0, 5.0])
def test_petersen_with_wide_tolerance_prints_no_bipartition(eigensolves, tol):
    # a wide --tol lets -3 "match" the fourfold least eigenvalue -2; no sign
    # pattern of a non-bipartite graph passes the edge check
    p = json.loads(_bipartite_output(petersen(), tol))["payload"]
    assert eigensolves == ["eigvalsh"]
    assert p["minus_d_in_spectrum"] is True and p["bfs_bipartite"] is False
    assert p["bipartition"] is None and p["defect"] == []
    assert "no sign pattern is a bipartition" in p["note"]
