"""Matching criteria: odd-component scans, the 2*mL >= ML test, and oracles.

Under the uniform measure every odd component of ``G - A`` carries exactly
1/n of mass in the natural odd-component measure (a component of size 2k+1
weighted by 1/(2k+1)), so ``tutte_scan`` works with the integer count of odd
components directly.  ``c_star`` is the worst ratio (odd components of G-A) /
|A| over scanned nonempty A, exhaustive or seeded-randomized:

* ``classical_holds`` (all ratios <= 1) is, for connected graphs on an even
  number of vertices, exactly Tutte's perfect-matching condition;
* ``strict_holds`` (all ratios < 1) is the strict variant and is *expected*
  to fail at finite scale -- deleting one vertex of an even-order graph always
  leaves an odd component, so c_star >= 1.  It is reported, never relied on.

``brouwer_haemers_test`` checks the spectral sufficient condition
``2*mL >= ML`` on the mean-zero Laplacian extremes; ``two_set_inequality``
checks the measure inequality that a pair of sets with no edges between them
must satisfy; both are validated against the exhaustive oracles in the tests.
``perfect_matching_oracle`` is the exact search the Tutte flags are checked
against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Tuple

from .graphs import CapExceeded, Graph, Mask, bits, is_connected
from .spectral import TOL, mean_zero_extremes


@dataclass
class TutteReport:
    c_star: float
    witness: Mask
    classical_holds: bool
    strict_holds: bool
    mode: str
    scanned: int
    bh_condition: Optional[bool]
    matching: Optional[List[Tuple[int, int]]]


def _neighbourhood_tables(g: Graph) -> List[Tuple[Mask, ...]]:
    """One byte-indexed table per 8 vertices: N(F) is the OR over i of
    ``tables[i][byte i of F]``.

    The last table covers only the vertices left in its byte, and the list is
    padded to three with ``(0,)``, so an n <= 7 graph builds one table of at
    most 128 entries.
    """
    adj = g.adj_masks
    tables = []
    for lo in range(0, g.n, 8):
        t = [0] * (1 << min(8, g.n - lo))
        for f in range(1, len(t)):
            low = f & -f
            t[f] = t[f ^ low] | adj[lo + low.bit_length() - 1]
        tables.append(tuple(t))
    return tables + [(0,)] * (3 - len(tables))


def _scan(g: Graph, subsets) -> Tuple[float, Mask, bool, bool, int]:
    """Worst ratio, its earliest witness, both Tutte flags and the count of
    subsets decided, by a frontier BFS over the byte tables that adds each
    component's parity straight into the count.

    The first three bytes of a frontier are looked up directly, which covers
    every exhaustive scan (n <= 22); higher bytes, which only large randomized
    scans have, go through a loop over the nonzero ones.  G - A has at most
    n - |A| odd components, so once (n - s) / s <= best no subset of size s
    can raise the maximum (a tie keeps the earlier witness), and it is
    counted without a BFS.  Both Tutte flags follow from the maximum --
    o > s exactly when o / s > 1 -- so a subset that cannot raise it cannot
    flip them either.
    """
    n = g.n
    full = g.full_mask
    t0, t1, t2, *high = _neighbourhood_tables(g)
    nhigh = len(high)
    bound = [math.inf] + [(n - s) / s for s in range(1, n + 1)]
    best = -1.0
    witness = 0
    scanned = 0
    for a in subsets:
        scanned += 1
        s = a.bit_count()
        if bound[s] <= best:
            continue
        o = 0
        rest = full ^ a
        while rest:
            before = rest
            frontier = rest & -rest
            rest ^= frontier
            while frontier:
                nbhd = (t0[frontier & 255] | t1[frontier >> 8 & 255]
                        | t2[frontier >> 16 & 255])
                frontier >>= 24
                if frontier:
                    for t, byte in zip(high, frontier.to_bytes(nhigh, "little")):
                        if byte:
                            nbhd |= t[byte]
                frontier = nbhd & rest
                rest ^= frontier
            o += (before ^ rest).bit_count() & 1
        ratio = o / s
        if ratio > best:
            best = ratio
            witness = a
    return best, witness, best <= 1.0, best < 1.0, scanned


def _kth_bit(mask: Mask, k: int) -> int:
    """Position of the k-th (from 0) set bit of ``mask``, by bisecting on the
    count of set bits below a position."""
    lo, hi = 0, mask.bit_length()  # at most k set bits below lo, more below hi
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (mask & ((1 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid
    return lo


def _random_subsets(g: Graph, seed: int, samples: int):
    """All singletons, then seeded sets grown from a low-degree vertex.

    Each draw is O(|A| log n) big-integer operations: the neighbourhood grows
    with A, and a pool member is picked by its rank, never by listing the
    pool.  ``cum_weights`` makes ``random.choices`` skip re-summing the
    weights and leaves its draws unchanged.
    """
    rng = random.Random(seed)
    n = g.n
    adj = g.adj_masks
    full = g.full_mask
    verts = list(range(n))
    seed_cum = list(accumulate(1.0 / (1 + d) for d in g.degrees))
    sizes = list(range(1, n))
    size_cum = list(accumulate(2.0 ** -s for s in sizes))
    seen = set()
    for v in verts:  # always probe the singletons
        m = 1 << v
        seen.add(m)
        yield m
    for _ in range(samples):
        s = rng.choices(sizes, cum_weights=size_cum)[0] if sizes else 1
        v0 = rng.choices(verts, cum_weights=seed_cum)[0]
        a = 1 << v0
        reach = adj[v0]  # N(A), grown with A
        size = 1
        while size < s:
            nbhd = reach & ~a
            pool = nbhd if (nbhd and rng.random() < 0.7) else (full & ~a)
            if pool == 0:
                break
            v = _kth_bit(pool, rng.randrange(pool.bit_count()))
            a |= 1 << v
            reach |= adj[v]
            size += 1
        if a not in seen:
            seen.add(a)
            yield a


def tutte_scan(g: Graph, mode: str = "exhaustive", seed: int = 0,
               samples: int = 2000, tol: float = TOL) -> TutteReport:
    """Scan subsets A for the worst odd-component ratio.

    ``exhaustive`` decides every nonempty subset (n <= 22); ``randomized``
    draws seeded samples biased toward small sets grown from low-degree
    vertices, plus all singletons.  Ties on the maximum keep the earliest
    (smallest) witness encountered.  A subset gets a BFS only when the bound
    o(G - A) <= |V - A| leaves it open, i.e. when that bound still allows a
    new worst ratio or a flip of either Tutte flag; ``scanned`` counts every
    subset decided, so an exhaustive scan reports 2^n - 1.
    """
    if mode == "exhaustive":
        if g.n > 22:
            raise CapExceeded("exhaustive Tutte scan capped at n=22")
        subsets = range(1, 1 << g.n)
    elif mode == "randomized":
        subsets = _random_subsets(g, seed, samples)
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    c_star, witness, classical, strict, scanned = _scan(g, subsets)

    bh = _doubled_gap_holds(g, tol) if g.n >= 2 and is_connected(g) else None

    matching = None
    if g.n % 2 == 0 and g.n <= 24:
        matching = perfect_matching_oracle(g)

    return TutteReport(c_star=c_star, witness=witness, classical_holds=classical,
                       strict_holds=strict, mode=mode, scanned=scanned,
                       bh_condition=bh, matching=matching)


def _doubled_gap_holds(g: Graph, tol: float) -> bool:
    """2*mL >= ML on the mean-zero Laplacian extremes of a connected graph."""
    m_l, big_l = mean_zero_extremes(g, tol)
    return bool(2.0 * m_l >= big_l - tol)


def brouwer_haemers_test(g: Graph, tol: float = TOL) -> bool:
    """Spectral matching condition 2*mL >= ML for connected regular graphs."""
    if not g.is_regular:
        raise ValueError("spectral matching condition needs a regular graph")
    if not is_connected(g):
        raise ValueError("spectral matching condition needs a connected graph")
    return _doubled_gap_holds(g, tol)


@dataclass(frozen=True)
class TwoSetReport:
    lhs: float
    rhs: float
    holds: bool
    mL: float
    ML: float


def two_set_inequality(g: Graph, y: Mask, z: Mask, tol: float = TOL) -> TwoSetReport:
    """Check mu(Y)mu(Z)/((1-mu(Y))(1-mu(Z))) <= ((ML-mL)/(ML+mL))^2.

    Requires a connected regular graph and disjoint nonempty Y, Z with no
    edges between them; an edge between the sets is reported explicitly.
    """
    if y == 0 or z == 0:
        raise ValueError("both sets must be nonempty")
    if y & z:
        raise ValueError("sets must be disjoint")
    for v in bits(y):
        between = g.adj_masks[v] & z
        if between:
            u = (between & -between).bit_length() - 1
            raise ValueError(f"edge ({v}, {u}) joins the two sets")
    if not g.is_regular:
        raise ValueError("two-set inequality needs a regular graph")
    if not is_connected(g):
        raise ValueError("two-set inequality needs a connected graph")
    mu_y, mu_z = g.mu(y), g.mu(z)
    m_l, big_l = mean_zero_extremes(g, tol)
    lhs = (mu_y * mu_z) / ((1.0 - mu_y) * (1.0 - mu_z))
    rhs = ((big_l - m_l) / (big_l + m_l)) ** 2
    return TwoSetReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + tol),
                        mL=m_l, ML=big_l)


def perfect_matching_oracle(g: Graph) -> Optional[List[Tuple[int, int]]]:
    """Exact perfect-matching search; None when there is none.  Cap n = 24.

    Branches on the lowest uncovered vertex and memoizes failing residual
    vertex sets, which keeps the search tiny at this scale.  The witness is
    deterministic: each matched pair uses the least available partner.
    """
    if g.n > 24:
        raise CapExceeded("perfect matching oracle capped at n=24")
    if g.n % 2 == 1:
        return None
    adj = g.adj_masks
    dead: set = set()

    def rec(uncov: Mask) -> Optional[List[Tuple[int, int]]]:
        if uncov == 0:
            return []
        if uncov in dead:
            return None
        b = uncov & -uncov
        v = b.bit_length() - 1
        for u in bits(adj[v] & uncov):
            rest = rec(uncov ^ b ^ (1 << u))
            if rest is not None:
                return [(v, u)] + rest
        dead.add(uncov)
        return None

    return rec(g.full_mask)
