"""Constructors for the graphs the test-beds are built from.

Classical graphs (cycles, paths, complete and complete bipartite graphs,
Petersen), edge subdivision of regular graphs, function graphs generated by
finitely many self-maps, the mod-7 quadratic-residue tournament, and
pairing-model random regular graphs with a deterministic seed.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .graphs import DirectedGraph, Graph


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """Path on n vertices (n = 1 gives the one-point graph with no edges)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with sides 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs a, b >= 1")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, spokes, inner pentagram 5..9."""
    es: List[Tuple[int, int]] = []
    for i in range(5):
        es.append((i, (i + 1) % 5))          # outer cycle
        es.append((i, i + 5))                # spokes
        es.append((5 + i, 5 + (i + 2) % 5))  # inner 5-cycle at step 2
    return Graph(10, es)


def subdivide(g: Graph) -> Graph:
    """Replace every edge by a path of length two.

    Defined for regular graphs only.  The original vertices keep their labels
    0..n-1; the midpoint of the k-th edge (in lexicographic edge order)
    becomes vertex n+k.  A d-regular input yields a (2, d)-biregular bipartite
    graph whose largest adjacency eigenvalue is sqrt(2d).
    """
    if not g.is_regular:
        raise ValueError("subdivision is defined for regular graphs only")
    if g.max_degree < 1:
        raise ValueError("subdivision needs at least one edge")
    es = []
    for k, (u, v) in enumerate(g.edges()):
        mid = g.n + k
        es.append((u, mid))
        es.append((v, mid))
    return Graph(g.n + g.m, es)


def function_graph(maps: Sequence[Sequence[int]]) -> DirectedGraph:
    """Digraph generated by finitely many self-maps of 0..n-1.

    Arc x -> f(x) for every map f with f(x) != x; coinciding arcs collapse,
    so the out-degree is at most the number of maps.
    """
    if not maps:
        raise ValueError("need at least one map")
    n = len(maps[0])
    if n < 1:
        raise ValueError("maps must be over at least one point")
    for f in maps:
        if len(f) != n:
            raise ValueError("all maps must share the same domain size")
        if any(not (0 <= y < n) for y in f):
            raise ValueError("map value out of range")
    arcs = set()
    for f in maps:
        for x in range(n):
            if f[x] != x:
                arcs.add((x, f[x]))
    return DirectedGraph(n, sorted(arcs), n_functions=len(maps))


def paley_tournament() -> DirectedGraph:
    """Quadratic-residue tournament on Z/7: arcs x -> x+1, x+2, x+4.

    Every unordered pair carries exactly one arc, so the underlying graph is
    K_7.  Generated by the three translation maps, hence out-degree 3.
    """
    maps = [[(x + r) % 7 for x in range(7)] for r in (1, 2, 4)]
    return function_graph(maps)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model, deterministic per seed.

    Stubs are shuffled and paired; a pairing producing a loop or a repeated
    edge is thrown away and redrawn from the same generator, up to 1000
    attempts; running out of attempts, which large d makes near certain, is a
    ``ValueError``, raised at once from d = 11.  Requires 0 <= d < n and n*d
    even.
    """
    if not (0 <= d < n):
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    # A pairing is simple with probability about exp(-(d*d - 1) / 4), so the
    # attempts run out for large d (d = 8 succeeds about once in 10^7): a
    # limit of the model for these arguments, not a fault of the program.
    # From d = 11 that is below 10^-12 per attempt, so none is made.
    too_large = (f"pairing model found no simple {d}-regular graph on {n} "
                 f"vertices in 1000 attempts; degree d={d} is too large "
                 f"for it (about exp(-(d^2-1)/4) of pairings are simple)")
    if d >= 11:
        raise ValueError(too_large)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(1000):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            return Graph(n, sorted(edges))
    raise ValueError(too_large)
