"""Isomorphism-free lists of all small graphs, for exhaustive sweeps.

Canonical form: vertices are first partitioned by iterated neighbor-degree
refinement (an isomorphism-invariant coloring), and the canonical labeling is
the refinement-respecting vertex order maximizing the adjacency bit rows,
found by branch and bound.  Twins -- vertices with equal open, or equal
closed, neighbourhoods -- are interchangeable: swapping two is an
automorphism that leaves every key unchanged.  So the search places each twin
class in ascending vertex order, and returns only the optimal labelings that
do; for a canonical form, those are its twin-sorted automorphisms.

Generation is canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  A graph on n+1 vertices is built from
its parent class on n vertices by gluing a new vertex k onto a neighbourhood
s, trying one s per orbit of the parent's automorphism group: the least.  The
orbits are closed under the parent's returned labelings plus the
transposition of each pair of consecutive twins, which together generate its
automorphism group.  The result is kept iff k lies in the automorphism orbit
of the vertex at its own last canonical position, that is iff some returned
labeling puts k last (k, the largest vertex, is the largest of its twin
class); a candidate whose k has less than the maximum degree, or leaves the
top refinement class, fails that test before any search.  Each class is then
produced exactly once, from the parent obtained by deleting its last
canonical vertex, so no dedup table is needed.  The representatives are
canonical forms (``masks_from_key(canonical_key(rep)) == rep``) and the lists
are in generation order, which is deterministic.  Slow next to real canonical
labeling tools, but exact, dependency-free, and fast enough for n <= 8 --
which is all the exhaustive test sweeps need.

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

from .graphs import CapExceeded, Graph, Mask, bits, is_connected

MAX_ENUM_N = 8

AdjMasks = Tuple[Mask, ...]

# the set bits of every byte, so that a mask on up to 8 vertices lists its
# neighbours with one lookup
_BYTE_BITS = tuple(tuple(v for v in range(8) if m >> v & 1) for m in range(256))


def _neighbours(mask: Mask) -> Tuple[int, ...]:
    return _BYTE_BITS[mask] if mask < 256 else tuple(bits(mask))


def wl_ranks(adj: Sequence[Mask], n: int, top: Optional[int] = None
             ) -> Optional[Tuple[int, ...]]:
    """Iterated neighbor-color refinement; returns iso-invariant class ranks.

    Refinement splits classes but never reorders them, so a vertex that
    leaves the top class never returns to it: given `top`, the refinement
    stops and returns None as soon as vertex `top` leaves the top class.
    """
    nbrs = [_neighbours(a) for a in adj]
    colors = [len(nb) for nb in nbrs]
    n_classes = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted([colors[u] for u in nb])))
                for v, nb in enumerate(nbrs)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        k = len(ranking)
        if top is not None and new[top] != k - 1:
            return None
        if k == n_classes:
            return tuple(new)
        n_classes = k
        colors = new


Labeling = Tuple[int, ...]


def _twin_predecessors(adj: Sequence[Mask], n: int) -> List[int]:
    """For each vertex, its largest twin below it, or -1.

    Twins have equal open, or equal closed, neighbourhoods.  No open
    neighbourhood equals a closed one (N(w) = N[x] puts x in N(w), so w in
    N(x), a subset of N(w)), so one table of both finds each twin class.
    """
    last: Dict[Mask, int] = {}
    before = []
    for v in range(n):
        closed = adj[v] | 1 << v
        before.append(max(last.get(adj[v], -1), last.get(closed, -1)))
        last[adj[v]] = last[closed] = v
    return before


def _search(adj: Sequence[Mask], n: int, ranks: Sequence[int]
            ) -> Tuple[Tuple[int, ...], List[Labeling]]:
    """Branch and bound for the canonical form; returns it with every
    optimal labeling that places each twin class in ascending vertex order.

    The key holds per-position adjacency rows under the best labeling: row i
    is the bits of position i's vertex to positions 0..i-1, and labelings
    place the refinement classes `ranks` in rank order.  A labeling is a
    tuple mapping position to vertex.  The labelings that tie the best key
    are one coset of Aut(G), and sorting each twin class of one of them
    gives another, so restricting the search to twin-sorted labelings finds
    the same key.  The returned ones are the twin-sorted part of the coset:
    their last entries, closed under twins, are one Aut(G)-orbit, and each is
    the largest of its twin class.  In the empty and the complete graph all
    vertices are twins, so the identity is the only labeling searched.
    """
    by_rank: Dict[int, List[int]] = {}
    for v, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(v)
    cells = [by_rank[r] for r in sorted(ranks)]
    before = _twin_predecessors(adj, n)
    nbrs = [_neighbours(a) for a in adj]

    best: Optional[List[int]] = None
    optimal: List[Labeling] = []
    placed: List[int] = []
    current: List[int] = []
    # used[-1] stands in for the missing twin predecessor -1, and is True
    used = [False] * n + [True]
    rows = [0] * n  # each vertex's adjacency bits to the placed positions

    def rec(pos: int, state: int) -> bool:
        """state 1: prefix beats best (or best unset); 0: prefix equals it.

        Returns True when `best` was replaced somewhere in this subtree, so
        the caller knows its own prefix is now a prefix of `best`.
        """
        nonlocal best, optimal
        scored = sorted([(rows[v], v) for v in cells[pos]
                         if not used[v] and used[before[v]]], reverse=True)
        bit = 1 << pos
        leaf = pos + 1 == n
        updated = False
        for row, v in scored:
            if state == 0:
                if row < best[pos]:
                    break  # descending rows: the rest are worse too
                child = 0 if row == best[pos] else 1
            else:
                child = 1
            placed.append(v)
            current.append(row)
            if leaf:
                if child:
                    best = current.copy()
                    optimal = [tuple(placed)]
                    updated = True
                else:
                    optimal.append(tuple(placed))
            else:
                used[v] = True
                for u in nbrs[v]:
                    rows[u] |= bit
                if rec(pos + 1, child):
                    updated = True
                    state = 0
                for u in nbrs[v]:
                    rows[u] ^= bit
                used[v] = False
            current.pop()
            placed.pop()
        return updated

    try:
        rec(0, 1)
    finally:
        del rec  # rec refers to itself through its closure cell
    assert best is not None
    return tuple(best), optimal


def canonical_key(adj: Sequence[Mask], n: int) -> Tuple[int, ...]:
    """Canonical form: per-position adjacency rows under the best labeling.

    Row i holds vertex i's adjacency bits to positions 0..i-1.  Two graphs
    are isomorphic iff their keys coincide.  Labelings are constrained to
    follow the refinement classes in rank order and to place twins in
    ascending order, which prunes the search to roughly the twin-sorted
    automorphisms for symmetric graphs.
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


def _orbit_minimal(gens: List[Labeling], k: int) -> Sequence[Mask]:
    """The subsets of range(k) that are least in their orbit under the group
    generated by the permutations `gens`.

    Each generator's image of every subset is tabled by doubling, and each
    orbit is closed by a walk along those tables, so the work is linear in
    the number of subsets times the number of generators.
    """
    tables = []
    for perm in gens:
        table = [0]
        for v in range(k):
            b = 1 << perm[v]
            table += [image | b for image in table]
        tables.append(table)
    seen = bytearray(1 << k)
    least = []
    for s in range(1 << k):
        if seen[s]:
            continue
        least.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for table in tables:
                image = table[t]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
    return least


def _automorphism_generators(adj: Sequence[Mask], n: int,
                             labelings: List[Labeling]) -> List[Labeling]:
    """Generators of Aut(G) for a canonical form G, from the labelings its
    search returned: those are the twin-sorted automorphisms, and the swaps
    of consecutive twins reorder each twin class at will."""
    identity = tuple(range(n))
    gens = [lab for lab in labelings if lab != identity]
    for v, u in enumerate(_twin_predecessors(adj, n)):
        if u >= 0:
            swap = list(identity)
            swap[u], swap[v] = v, u
            gens.append(tuple(swap))
    return gens


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
        # and the search returns the twin-sorted ones
        _, labelings = _search(parent, k, wl_ranks(parent, k))
        degrees = [a.bit_count() for a in parent]
        top_degree = max(degrees)
        top = sum(1 << v for v in range(k) if degrees[v] == top_degree)
        for s in _orbit_minimal(_automorphism_generators(parent, k, labelings), k):
            # the new vertex must be able to take the last canonical
            # position: maximum degree, then the top refinement class
            if s.bit_count() < top_degree + (1 if s & top else 0):
                continue
            cand = tuple(parent[v] | (((s >> v) & 1) << k) for v in range(k)) + (s,)
            ranks = wl_ranks(cand, n, top=k)
            if ranks is None:
                continue
            key, optimal = _search(cand, n, ranks)
            # k, the largest vertex, is the largest of its twin class, so it
            # is in the last position's orbit iff some returned labeling
            # puts it last
            if any(lab[-1] == k for lab in optimal):
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
    returns the same tuple and builds nothing.  The connected tuple keeps
    the ``is_connected`` members of the full one, so each class is one
    ``Graph`` and its kept spectra are solved once for both lists."""
    key = (n, connected)
    if key not in _GRAPHS:
        _GRAPHS[key] = (tuple(filter(is_connected, enumerate_graphs(n))) if connected
                        else tuple(_to_graph(adj) for adj in graph_masks(n)))
    return _GRAPHS[key]
