"""Finite graphs carrying the uniform vertex measure.

Everything downstream (spectra, peeling colorers, Tutte scans, limit checks)
works on two small types defined here:

* :class:`Graph` -- a simple undirected graph on vertices ``0..n-1`` with
  sorted neighbor lists and per-vertex adjacency bitmasks.  The measure is
  always uniform, ``mu({v}) = 1/n``; subsets of vertices are plain ``int``
  bitmasks so that exhaustive subset scans stay cheap.
* :class:`DirectedGraph` -- finite out-neighbor lists, optionally remembering
  how many generating functions it was built from.

Around them sit the bitmask helpers; one BFS, ``bfs_levels``, which answers
every connectivity question and gives the 2-coloring shared by ``spectral``
and ``bipartite``, the eccentricity their certificates read and the
doubled-gap flag's distances; the bridges that gate the Tutte scan's edge-cut
bound; and the edge-list text format with its canonical digest.  This
module only builds ``adj_masks``: the exhaustive searches (Tutte scans, the
matching oracle, brute-force coloring) read it, and no spectral command does.

The mass-transport principle needs no checker here: under the uniform measure
on a finite graph, mass sent and mass received are one finite sum taken in two
orders, equal by algebra.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

Mask = int  # vertex subsets as bitmasks over 0..n-1


class CapExceeded(RuntimeError):
    """Raised when an exhaustive routine is asked to run above its size cap."""


class InternalError(RuntimeError):
    """Raised when specbound's own check finds a state its code should never
    reach (an untrustworthy eigensolve, a coloring step with no color left):
    a fault in the program or its numerics, not in the input."""


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------

def mask_of(vertices: Iterable[int]) -> Mask:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: Mask) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# ---------------------------------------------------------------------------
# undirected graphs
# ---------------------------------------------------------------------------

class Graph:
    """Simple undirected graph on ``0..n-1`` with uniform vertex measure.

    Edges are validated on construction: endpoints in range, no loops, no
    duplicates.  Neighbor lists are kept sorted and the adjacency is also
    cached as one bitmask per vertex.  The two spectrum slots are filled on
    first request by ``spectral.adjacency_spectrum`` and
    ``spectral.laplacian_spectrum``, so each operator is solved at most once.
    """

    __slots__ = ("n", "adj", "adj_masks", "degrees", "_edges",
                 "_adj_spectrum", "_lap_spectrum")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = n
        seen = set()
        adj: List[List[int]] = [[] for _ in range(n)]
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key!r}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        self.adj = tuple(tuple(lst) for lst in adj)
        self.adj_masks = tuple(mask_of(lst) for lst in adj)
        self.degrees = tuple(len(lst) for lst in adj)
        self._edges = tuple(sorted(seen))
        self._adj_spectrum = self._lap_spectrum = None

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return self._edges

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @property
    def min_degree(self) -> int:
        return min(self.degrees)

    @property
    def is_regular(self) -> bool:
        return self.min_degree == self.max_degree

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    def mu(self, subset: Mask) -> float:
        """Uniform measure of a vertex subset."""
        return subset.bit_count() / self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def bfs_levels(g: Graph) -> List[int]:
    """Each vertex's BFS distance from its component's least vertex, so the
    graph is connected iff vertex 0 alone has level 0, and then the largest
    level is the eccentricity of vertex 0.  Every edge joins equal or
    adjacent levels."""
    level = [-1] * g.n
    for s in range(g.n):
        if level[s] >= 0:
            continue
        level[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                up = level[v] + 1
                for u in g.adj[v]:
                    if level[u] < 0:
                        level[u] = up
                        nxt.append(u)
            frontier = nxt
    return level


def is_connected(g: Graph) -> bool:
    return bfs_levels(g).count(0) == 1


def bridges(g: Graph) -> List[Tuple[int, int]]:
    """Edges ``(u, v)``, u < v, whose deletion adds a component, sorted.

    One lowpoint DFS with an explicit stack, O(n + m) and no recursion: the
    tree edge from p to its child v is a bridge iff no back edge from v's
    subtree reaches p or above, that is iff low[v] > disc[p].  The graph is
    simple, so skipping the parent vertex skips exactly the tree edge.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    out = []
    clock = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(g.adj[root]))]
        while stack:
            v, parent, rest = stack[-1]
            for u in rest:
                if disc[u] < 0:
                    disc[u] = low[u] = clock
                    clock += 1
                    stack.append((u, v, iter(g.adj[u])))
                    break
                if u != parent and disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.append((min(parent, v), max(parent, v)))
    return sorted(out)


def _two_coloring(g: Graph, levels: Optional[List[int]] = None) -> Optional[List[int]]:
    """Each vertex's side (0 or 1) in a BFS 2-coloring, the parity of its
    ``bfs_levels`` (computed unless given), each component's least vertex on
    side 0; None iff some component has an odd cycle, that is iff an edge
    joins two vertices of one level."""
    side = [x & 1 for x in (bfs_levels(g) if levels is None else levels)]
    if any(side[u] == side[v] for u, v in g.edges()):
        return None
    return side


# ---------------------------------------------------------------------------
# directed graphs / function graphs
# ---------------------------------------------------------------------------

class DirectedGraph:
    """Finite digraph with sorted out-neighbor lists, no loops, no duplicates.

    When built from a family of functions ``f_i : V -> V`` (see
    ``generators.function_graph``) their number is remembered as
    ``n_functions``, which then bounds the out-degree.
    """

    __slots__ = ("n", "out", "_n_functions")

    def __init__(self, n: int, out_edges: Iterable[Tuple[int, int]],
                 n_functions: Optional[int] = None):
        if n < 1:
            raise ValueError("digraph needs at least one vertex")
        self.n = n
        out: List[set] = [set() for _ in range(n)]
        for e in out_edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc {e!r} out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if v in out[u]:
                raise ValueError(f"duplicate arc {(u, v)!r}")
            out[u].add(v)
        self.out = tuple(tuple(sorted(s)) for s in out)
        self._n_functions = n_functions

    @property
    def n_functions(self) -> int:
        """Number of generating functions; falls back to max out-degree."""
        if self._n_functions is not None:
            return self._n_functions
        return max((len(o) for o in self.out), default=0)

    @property
    def out_degrees(self) -> Tuple[int, ...]:
        return tuple(len(o) for o in self.out)

    def arcs(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.out[u]]

    def underlying(self) -> Graph:
        """Forget orientation (parallel opposite arcs collapse to one edge)."""
        es = set()
        for u in range(self.n):
            for v in self.out[u]:
                es.add((u, v) if u < v else (v, u))
        return Graph(self.n, sorted(es))

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, arcs={sum(self.out_degrees)})"


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------
#
# First line "n m", then m lines "u v" with 0 <= u < v < n.  The writer sorts
# edges lexicographically, so write(load(text)) == text for canonical input.

def dump_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _parse_pairs(text: str, kind: str) -> Tuple[int, List[Tuple[int, int]]]:
    """Header ``n m`` and exactly ``m`` integer pair lines, each named in its
    error as a bad ``kind`` line; blank lines are skipped."""
    rows = [row for row in (raw.split() for raw in text.splitlines()) if row]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0]
    if len(head) != 2:
        raise ValueError("header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError("header must be two integers 'n m'") from exc
    if n < 1 or m < 0:
        raise ValueError(f"bad header values n={n} m={m}")
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} {kind} lines, found {len(rows) - 1}")
    pairs = []
    for row in rows[1:]:
        try:
            u, v = map(int, row)  # a row of other than two tokens fails too
        except ValueError as exc:
            raise ValueError(f"bad {kind} line {' '.join(row)!r}") from exc
        pairs.append((u, v))
    return n, pairs


def load_edge_list(text: str, check_n: Optional[Callable[[int], None]] = None) -> Graph:
    """Parse the plain edge-list format; malformed input raises ValueError.

    ``check_n`` (the CLI passes its size cap) sees n once every line has
    been validated -- so a bad line is still reported first -- and before any
    per-vertex list or mask is built.
    """
    n, edges = _parse_pairs(text, "edge")
    for u, v in edges:
        if not (0 <= u < v < n):
            raise ValueError(f"edge line must satisfy 0 <= u < v < n: {u} {v}")
    seen = set()
    for e in edges:
        if e in seen:
            raise ValueError(f"duplicate edge {e!r}")
        seen.add(e)
    if check_n is not None:
        check_n(n)
    return Graph(n, edges)


def dump_directed_edge_list(d: DirectedGraph) -> str:
    """Directed variant: same header, one "u v" line per arc u -> v."""
    lines = [f"{d.n} {sum(d.out_degrees)}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"


def load_directed_edge_list(text: str,
                            check_n: Optional[Callable[[int], None]] = None) -> DirectedGraph:
    """Parse the directed variant; malformed input raises ValueError.

    ``check_n`` sees n once every line has parsed as a pair of integers and
    before the per-vertex arc sets are built; an arc out of range, a loop or
    a duplicate is reported by ``DirectedGraph`` after it.
    """
    n, arcs = _parse_pairs(text, "arc")
    if check_n is not None:
        check_n(n)
    return DirectedGraph(n, arcs)


def canonical_digest(g: Graph) -> str:
    """Stable hex digest of the canonical edge-list text."""
    return hashlib.sha256(dump_edge_list(g).encode()).hexdigest()
