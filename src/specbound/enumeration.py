"""Isomorphism-free lists of all small graphs, for exhaustive sweeps.

Canonical form: vertices are first partitioned by iterated neighbor-degree
refinement (an isomorphism-invariant coloring), and the canonical labeling is
the refinement-respecting vertex order maximizing the adjacency bit rows,
found by branch and bound.  The same search returns every labeling that ties
the best key; these are the graph's automorphisms up to one fixed labeling.

Generation is canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  A graph on n+1 vertices is built from
its parent class on n vertices by gluing a new vertex k onto a neighbourhood
s, trying one s per orbit of the parent's automorphism group: the least (for
a complete or empty parent, s = 2^j - 1).  The result is kept iff
k lies in the automorphism orbit of the vertex at its own last canonical
position; a candidate whose k has less than the maximum degree, or lies
outside the top refinement class, fails that test before any search.  Each
class is then produced exactly once, from the parent obtained by deleting
its last canonical vertex, so no dedup table is needed.  The representatives
are canonical forms (``masks_from_key(canonical_key(rep)) == rep``) and the
lists are in generation order, which is deterministic.  Slow next to real
canonical labeling tools, but exact, dependency-free, and fast enough for
n <= 8 -- which is all the exhaustive test sweeps need.

Two memos, one per representation: ``graph_masks`` keeps the class lists as
adjacency masks in ``_CACHE``, and ``enumerate_graphs`` keeps the ``Graph``
objects built from them, so a sweep that revisits an order builds nothing.

The class counts are pinned in the tests against the classical values
(graphs: 1, 2, 4, 11, 34, 156, 1044, 12346; connected: 1, 1, 2, 6, 21, 112,
853, 11117 for n = 1..8), and the n <= 7 lists are checked against the
glue-and-dedup construction and, where networkx imports, against its graph
atlas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .graphs import CapExceeded, Graph, Mask, bits, components_within, popcount

MAX_ENUM_N = 8

AdjMasks = Tuple[Mask, ...]


def wl_ranks(adj: Sequence[Mask], n: int) -> Tuple[int, ...]:
    """Iterated neighbor-color refinement; returns iso-invariant class ranks."""
    colors = [popcount(a) for a in adj]
    n_classes = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            nb = sorted(colors[u] for u in bits(adj[v]))
            sigs.append((colors[v], tuple(nb)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        k = len(set(new))
        if k == n_classes:
            return tuple(new)
        n_classes = k
        colors = new


Labeling = Tuple[int, ...]


def _search(adj: Sequence[Mask], n: int, ranks: Sequence[int]
            ) -> Tuple[Tuple[int, ...], Optional[List[Labeling]]]:
    """Branch and bound for the canonical form; returns it with every
    optimal labeling.

    The key holds per-position adjacency rows under the best labeling: row i
    is the bits of position i's vertex to positions 0..i-1, and labelings
    place the refinement classes `ranks` in rank order.  A labeling is a
    tuple mapping position to vertex; the optimal ones are the labelings
    that tie the best key, so they are one coset of Aut(G) and their last
    entries are one Aut(G)-orbit.  The empty and the complete graph, where
    refinement is useless and every labeling is optimal, are special-cased
    and return None in place of the labelings.
    """
    full = (1 << n) - 1
    if all(a == 0 for a in adj):
        return tuple(0 for _ in range(n)), None
    if all(adj[v] == full ^ (1 << v) for v in range(n)):
        return tuple((1 << i) - 1 for i in range(n)), None

    by_rank: Dict[int, List[int]] = {}
    for v, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(v)
    cells = [by_rank[r] for r in sorted(ranks)]

    best: Optional[List[int]] = None
    optimal: List[Labeling] = []
    placed: List[int] = []
    current: List[int] = []
    used = [False] * n

    def rec(pos: int, state: int) -> bool:
        """state 1: prefix beats best (or best unset); 0: prefix equals it.

        Returns True when `best` was replaced somewhere in this subtree, so
        the caller knows its own prefix is now a prefix of `best`.
        """
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
            if used[v]:
                continue
            row = 0
            av = adj[v]
            for j, p in enumerate(placed):
                row |= ((av >> p) & 1) << j
            scored.append((row, v))
        scored.sort(reverse=True)
        st = state
        updated = False
        for row, v in scored:
            if best is not None and st == 0:
                if row < best[pos]:
                    break  # descending rows: the rest are worse too
                child = 0 if row == best[pos] else 1
            else:
                child = 1
            used[v] = True
            placed.append(v)
            current.append(row)
            if rec(pos + 1, child):
                updated = True
                st = 0
            current.pop()
            placed.pop()
            used[v] = False
        return updated

    rec(0, 1)
    assert best is not None
    return tuple(best), optimal


def canonical_key(adj: Sequence[Mask], n: int) -> Tuple[int, ...]:
    """Canonical form: per-position adjacency rows under the best labeling.

    Row i holds vertex i's adjacency bits to positions 0..i-1.  Two graphs
    are isomorphic iff their keys coincide.  Labelings are constrained to
    follow the refinement classes in rank order, which prunes the search to
    roughly the automorphisms for symmetric graphs; complete and empty
    graphs, where refinement is useless, are special-cased.
    """
    return _search(adj, n, wl_ranks(adj, n))[0]


def masks_from_key(key: Sequence[int]) -> AdjMasks:
    n = len(key)
    adj = [0] * n
    for i in range(n):
        row = key[i]
        for j in range(i):
            if (row >> j) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def _orbit_minimal(auts: Optional[List[Labeling]], k: int) -> Sequence[Mask]:
    """The subsets of range(k) that are least in their orbit under `auts`.

    `auts` is a parent's automorphism group as a list of permutations, or
    None for the full symmetric group, whose orbits are the subset sizes.
    """
    if auts is None:
        return [(1 << j) - 1 for j in range(k + 1)]
    seen = bytearray(1 << k)
    least = []
    for s in range(1 << k):
        if seen[s]:
            continue
        least.append(s)
        members = list(bits(s))
        for perm in auts:
            image = 0
            for v in members:
                image |= 1 << perm[v]
            seen[image] = 1
    return least


_CACHE: Dict[int, List[AdjMasks]] = {1: [(0,)]}


def graph_masks(n: int) -> List[AdjMasks]:
    """Canonical adjacency masks of every graph on n vertices, one per class,
    in generation order."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_ENUM_N:
        raise CapExceeded(f"graph enumeration capped at n={MAX_ENUM_N}")
    if n in _CACHE:
        return _CACHE[n]
    prev = graph_masks(n - 1)
    k = n - 1
    reps: List[AdjMasks] = []
    for parent in prev:
        # parent is a canonical form, so its optimal labelings are Aut(parent)
        _, auts = _search(parent, k, wl_ranks(parent, k))
        degrees = [popcount(a) for a in parent]
        top_degree = max(degrees)
        top = sum(1 << v for v in range(k) if degrees[v] == top_degree)
        for s in _orbit_minimal(auts, k):
            # the new vertex must be able to take the last canonical
            # position: maximum degree, then the top refinement class
            if popcount(s) < top_degree + (1 if s & top else 0):
                continue
            cand = tuple(parent[v] | (((s >> v) & 1) << k) for v in range(k)) + (s,)
            ranks = wl_ranks(cand, n)
            if ranks[k] != max(ranks):
                continue
            key, optimal = _search(cand, n, ranks)
            if optimal is None or any(lab[-1] == k for lab in optimal):
                reps.append(masks_from_key(key))
    _CACHE[n] = reps
    return reps


def _to_graph(adj: AdjMasks) -> Graph:
    n = len(adj)
    es = [(u, v) for u in range(n) for v in bits(adj[u]) if v > u]
    return Graph(n, es)


_GRAPHS: Dict[Tuple[int, bool], Tuple[Graph, ...]] = {}


def enumerate_graphs(n: int, connected: bool = False) -> Tuple[Graph, ...]:
    """All graphs on exactly n vertices up to isomorphism, optionally only
    the connected ones.  Memoized: every call for the same ``(n, connected)``
    returns the same tuple and builds nothing.  The connected tuple is
    filtered on the masks, so the registry's sweeps, which ask only for
    connected graphs, build no disconnected ones."""
    key = (n, connected)
    if key not in _GRAPHS:
        full = (1 << n) - 1
        _GRAPHS[key] = tuple(_to_graph(adj) for adj in graph_masks(n)
                             if not connected or len(components_within(adj, full)) == 1)
    return _GRAPHS[key]
