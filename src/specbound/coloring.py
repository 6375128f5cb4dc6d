"""Colorings from degree peeling, plus brute-force oracles.

The constructive side follows one recipe: repeatedly peel off the set of
vertices whose degree in the remaining graph is below a threshold, then color
the layers from the last one backwards with greedy list coloring.  Peeling
with threshold ``floor(M)`` (M the largest adjacency eigenvalue) always
exhausts the graph, because every subgraph has average degree at most M; that
yields a proper coloring with at most ``floor(M)+1`` colors.  The same engine
colors graphs generated by k self-maps with at most 2k+1 colors by peeling on
in-degree, and proves the min-degree variant: if every induced subgraph has a
vertex of degree <= M, then ``floor(M)+1`` colors suffice.

``brute_force_chromatic`` and ``brute_force_independence`` are the exact
oracles the spectral bounds are tested against; they are deliberately
independent of everything above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import (CapExceeded, DirectedGraph, Graph, InternalError, Mask, bits,
                     mask_of)
from .spectral import norm_floor, snapped_floor


class PeelingStuck(ValueError):
    """Peeling hit a residual subgraph with minimum degree above threshold."""

    def __init__(self, message: str, residual: Mask):
        super().__init__(message)
        self.residual = residual


@dataclass
class Coloring:
    """A (possibly partial) vertex coloring; ``None`` marks uncolored."""

    colors: List[Optional[int]]

    @property
    def is_total(self) -> bool:
        return all(c is not None for c in self.colors)

    @property
    def palette_size(self) -> int:
        used = {c for c in self.colors if c is not None}
        return len(used)

    def proper(self, g: Graph) -> bool:
        """No monochromatic edge among colored vertices."""
        for u, v in g.edges():
            cu, cv = self.colors[u], self.colors[v]
            if cu is not None and cu == cv:
                return False
        return True


@dataclass
class Peeling:
    """Layers produced by iterated low-degree peeling; together they cover
    every vertex, in peeling order."""

    layers: List[Mask]


def _peel(deg: List[int], succ: Sequence[Sequence[int]],
          threshold: int) -> Tuple[List[Mask], List[int]]:
    """Layers of iterated peeling at ``threshold``, and the vertices left over.

    A queue in the manner of Matula and Beck (1983), O(n + m) in all: ``deg``
    holds residual degrees (updated in place), removing a layer decrements
    those of its vertices' successors in ``succ``, and the next layer is
    exactly the vertices whose degree just fell to the threshold.
    """
    peeled = [False] * len(deg)
    layer = [v for v in range(len(deg)) if deg[v] <= threshold]
    layers: List[Mask] = []
    while layer:
        for v in layer:
            peeled[v] = True
        layers.append(mask_of(layer))
        nxt = []
        for v in layer:
            for u in succ[v]:
                if not peeled[u]:
                    deg[u] -= 1
                    if deg[u] == threshold:
                        nxt.append(u)
        layer = nxt
    return layers, [v for v in range(len(deg)) if not peeled[v]]


def peel_by_threshold(g: Graph, threshold: int) -> Peeling:
    """Iteratively remove all vertices of residual degree <= threshold.

    Exhausts the graph whenever threshold >= floor(M); a residual subgraph of
    minimum degree > threshold raises :class:`PeelingStuck` carrying it (the
    message names its size and first vertices only).
    """
    deg = list(g.degrees)
    layers, rest = _peel(deg, g.adj, threshold)
    if rest:
        raise PeelingStuck(
            f"peeling stuck: residual of {len(rest)} vertices starting "
            f"{rest[:8]} has minimum degree "
            f"{min(deg[v] for v in rest)} > threshold {threshold}", mask_of(rest))
    return Peeling(layers)


def backwards_list_color(g: Graph, peeling: Peeling, palette: int) -> Coloring:
    """Color peeling layers from the last one back to the first.

    Each vertex's list is the palette minus the colors of its already-colored
    neighbors in its own and later layers.  When the palette exceeds every
    constraint degree (as it does for threshold peelings with palette =
    threshold+1) no list can empty.  Residual vertices stay uncolored.
    """
    if palette < 1:
        raise ValueError("palette must have at least one color")
    colors: List[Optional[int]] = [None] * g.n
    for layer in reversed(peeling.layers):
        for v in bits(layer):
            taken = set()
            for u in g.adj[v]:
                if colors[u] is not None:
                    taken.add(colors[u])
            c = next((c for c in range(palette) if c not in taken), None)
            if c is None:
                raise ValueError(f"backward list emptied at vertex {v}: "
                                 f"palette {palette} too small for this peeling")
            colors[v] = c
    return Coloring(colors)


def wilf_color(g: Graph) -> Coloring:
    """Proper coloring with at most floor(M)+1 colors, M = ||T||.

    Peel at threshold floor(M), then color backwards with floor(M)+1 colors;
    floor(M) is certified without an eigensolve where it can be
    (``spectral.norm_floor``).
    """
    return min_degree_peel_color(g, norm_floor(g))


def min_degree_peel_color(g: Graph, bound: float) -> Coloring:
    """Color with floor(bound)+1 colors when every induced subgraph has a
    vertex of degree <= bound; otherwise raise, identifying the residual
    subgraph of minimum degree above the bound."""
    t = snapped_floor(bound)
    peeling = peel_by_threshold(g, t)  # PeelingStuck carries the residual
    return backwards_list_color(g, peeling, t + 1)


def function_graph_color(d: DirectedGraph) -> Coloring:
    """Color the underlying graph of a k-map digraph with <= 2k+1 colors.

    In every nonempty sub-digraph the average in-degree is at most the
    out-degree bound k, so the set of vertices with residual in-degree <= k
    is nonempty; peel those off repeatedly.  A vertex's constraint degree in
    the underlying graph is then at most k (out) + k (in within residual),
    so 2k+1 colors never run out.
    """
    k = d.n_functions
    indeg = [0] * d.n
    for out in d.out:
        for v in out:
            indeg[v] += 1
    layers, rest = _peel(indeg, d.out, k)
    if rest:
        raise InternalError("residual digraph with all in-degrees above "
                            "the out-degree bound; impossible, since total "
                            "in-degree equals total out-degree")
    return backwards_list_color(d.underlying(), Peeling(layers), 2 * k + 1)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _is_k_colorable(g: Graph, k: int, order: List[int]) -> bool:
    n = g.n
    colors = [-1] * n
    adj = g.adj_masks

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        forbidden = 0
        for u in bits(adj[v]):
            if colors[u] >= 0:
                forbidden |= 1 << colors[u]
        # allowing one fresh color beyond those used so far kills the
        # color-permutation symmetry
        limit = min(k, used + 1)
        for c in range(limit):
            if not (forbidden >> c) & 1:
                colors[v] = c
                if place(i + 1, max(used, c + 1)):
                    return True
                colors[v] = -1
        return False

    return place(0, 0)


def _greedy_clique(g: Graph) -> int:
    best = 1 if g.n else 0
    order = sorted(range(g.n), key=lambda v: -g.degrees[v])
    for v in order:
        clique = [v]
        cand = g.adj_masks[v]
        for u in order:
            if (cand >> u) & 1:
                clique.append(u)
                cand &= g.adj_masks[u]
        best = max(best, len(clique))
    return best


def _check_brute(n: int) -> None:
    """The chromatic search's cap; the CLI checks it on the parsed header."""
    if n > 16:
        raise CapExceeded("brute-force chromatic number capped at n=16")


def brute_force_chromatic(g: Graph) -> int:
    """Exact chromatic number by branch and bound; capped at n = 16."""
    _check_brute(g.n)
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=lambda v: (-g.degrees[v], v))
    k = _greedy_clique(g)
    while not _is_k_colorable(g, k, order):
        k += 1
    return k


def brute_force_independence(g: Graph) -> Tuple[int, Mask]:
    """Exact maximum independent set (size, witness); capped at n = 24."""
    if g.n > 24:
        raise CapExceeded("brute-force independence capped at n=24")
    adj = g.adj_masks

    def rec(avail: Mask) -> Tuple[int, Mask]:
        if avail == 0:
            return 0, 0
        b = avail & -avail
        v = b.bit_length() - 1
        # take v
        size_in, set_in = rec(avail & ~(b | adj[v]))
        size_in += 1
        set_in |= b
        if adj[v] & avail == 0:
            return size_in, set_in  # v is isolated here; taking it is free
        size_out, set_out = rec(avail ^ b)
        if size_out > size_in:
            return size_out, set_out
        return size_in, set_in

    return rec(g.full_mask)
