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

``bh_condition`` of the report is the spectral sufficient condition
``2*mL >= ML`` on the mean-zero Laplacian extremes, certified False without
an eigensolve where two integer Rayleigh quotients separate them;
``two_set_inequality`` checks the measure inequality that a pair of sets with
no edges between them must satisfy; both are validated against the
exhaustive oracles in the tests.
``perfect_matching_oracle`` is the exact search the Tutte flags are checked
against.

The scan has two kernels that return the same result: the worst pair
(o, s), for o the count of odd components of G - A and s = |A|, as
integers, its earliest witness A and the count of subsets decided.
``tutte_scan`` decides the graph facts they take, and c_star and both flags
from (o, s), once.  ``_scan`` walks
any iterable of big-integer masks one at a time, with a BFS that expands each
frontier vertex by vertex through the adjacency masks; it takes every
randomized scan and the exhaustive scans below _VECTOR_MIN_N = 11 vertices.
``_scan_blocks`` takes the exhaustive scans from there up: it bounds blocks
of ``uint32`` masks in numpy, queues the subsets its bounds leave open and
runs their BFS in lock-step batches.  The crossover and the block size are
constants beside it, with the measurements that chose them.  Each adds
its work to the record of ``stats`` once per call or batch, and the tests
check the bounds by it: ``_scan`` the subsets it decided by the size bound,
the edge-cut bound and a BFS, and the BFS the running bound ended
(``scan_size``, ``scan_cut``, ``scan_bfs``, ``scan_stop``), ``_scan_blocks``
its blocks once per call (``blocks``) and the lanes of each batch
(``lanes``).  Both decide a subset A of size s by one rule: against the
best (o*, s*) so far, A raises the maximum iff o > need = floor(o* s / s*)
(a tie keeps the earlier witness).  Before A's BFS both take the first
bound below and, given an even-degree mask, the third lowered to the parity
of n - s; during it, the second; each rules A out once it is <= need:

* o <= n - s, with the parity of n - s: the components partition V - A, and
  the even ones add up to an even size;
* once some components are done, o <= (odd ones among them) + (vertices of
  G - A not in them), since each other odd component holds one of those;
* on connected bridgeless G (Petersen's count), o <= floor((cut + min(t,
  floor(cut / 2))) / 3), where cut is the number of edges leaving A and t
  the number of even-degree vertices outside A.  Proof: each component C of
  G - A has e(C, A) = e(C, V - C) >= 2, as one edge would be a bridge.  If C
  is odd with no even-degree vertex, e(C, V - C) = (sum of degrees) - 2 e(C)
  is odd, so >= 3.  So 3 o3 + 2 o2 <= cut, where o3 counts those and o2 the
  other odd components, which hold distinct even-degree vertices: o2 <= t,
  o2 <= cut / 2, and o = o3 + o2 <= (cut + o2) / 3;
* the degree ceiling, the third summed over sizes: on connected bridgeless
  G, o <= u(s) = min(n - s, floor((D_s + min(E, floor(D_s / 2))) / 3)),
  lowered to the parity of n - s, where D_s is the sum of the s largest
  degrees and E the number of even-degree vertices.  Proof: cut <= D_s and
  t <= E, and the third bound does not decrease as cut or t grows.

The fourth is no kernel's: ``tutte_scan`` takes it before either kernel,
wherever it has the even-degree mask.  If u(s) <= o(G - {0}) * s for every
s, then c_star = o(G - {0}), first at mask 1 (the first nonempty subset of
an exhaustive scan, and the first draw of a randomized one), and no subset
is scanned.  On a bridgeless cubic graph of even order, and on an even
cycle, u(s) <= s and G - {0} has odd order, so it always closes.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import List, Optional, Tuple

import numpy as np

from . import stats
from .graphs import CapExceeded, Graph, Mask, bfs_levels, bits, bridges, is_connected, mask_of
from .spectral import TOL, _check_dense, laplacian_spectrum, margin


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


def _scan(g: Graph, subsets, even: Optional[Mask]) -> Tuple[int, int, Mask, int]:
    """The worst (o, s) over ``subsets``, its earliest witness and the count
    of subsets decided, by the rule of the module docstring in the integers
    of ``_scan_blocks``.

    ``subsets`` may be any iterable of masks; ``tutte_scan`` passes it the
    randomized draws and the exhaustive scans of fewer than _VECTOR_MIN_N
    vertices.  The BFS expands a frontier one vertex at a time, ORing its
    row of ``g.adj_masks`` and keeping what lies in G - A, so a subset costs
    at most one lookup per vertex of G - A whatever the width of the masks.
    A subset of size s starts at margin = n - s - need and is counted
    without a BFS if margin <= 0 or, given the even-degree mask ``even``, if
    the parity-lowered edge-cut bound is at most need (one popcount per
    vertex of A).  The BFS takes the even part of each finished component
    off the margin and stops at margin <= 0; a positive margin at the end
    makes A the best, with o = need + margin.
    """
    n = g.n
    full = g.full_mask
    adj = g.adj_masks
    best_o, best_s = -1, 1  # no ratio yet: every o >= 0 beats it
    witness = 0
    scanned = by_cut = by_bfs = stopped = 0
    for a in subsets:
        scanned += 1
        s = a.bit_count()
        need = best_o * s // best_s  # A beats the best iff o > need
        margin = n - s - need
        if margin <= 0:
            continue
        rest = full ^ a
        if even is not None:
            cut = 0
            inside = a
            while inside:
                v = inside & -inside
                inside ^= v
                cut += (adj[v.bit_length() - 1] & rest).bit_count()
            bound = (cut + min((even & rest).bit_count(), cut >> 1)) // 3
            if bound - ((bound ^ (n - s)) & 1) <= need:
                by_cut += 1
                continue
        by_bfs += 1
        while rest and margin > 0:
            before = rest
            frontier = rest & -rest
            rest ^= frontier
            while frontier:
                nbhd = 0
                while frontier:
                    v = frontier & -frontier
                    frontier ^= v
                    nbhd |= adj[v.bit_length() - 1]
                frontier = nbhd & rest
                rest ^= frontier
            margin -= (before ^ rest).bit_count() & ~1  # the even part of the component
        stopped += rest != 0
        if margin > 0:  # so rest is 0
            best_o, best_s, witness = need + margin, s, a
    stats.add("scan_size", scanned - by_cut - by_bfs)
    stats.add("scan_cut", by_cut)
    stats.add("scan_bfs", by_bfs)
    stats.add("scan_stop", stopped)
    return best_o, best_s, witness, scanned


# Exhaustive scans of at least _VECTOR_MIN_N vertices take the numpy kernel.
# Measured per scan, the mean over 30 graphs of the best of 7, two runs,
# 2-core host, each kernel given the even-degree mask that _scan_facts gives
# it (the scalar one from the crossover up, the numpy one from 14 vertices
# up); the numpy kernel bounds its first block against the prior {0}.
# Random graphs of edge density 0.3: n = 9 0.12 ms scalar against
# 0.17-0.18 ms numpy, n = 10 0.38 against 0.18 ms, n = 11 0.85-0.93 against
# 0.28-0.30 ms, n = 12 1.8-2.0 against 0.24 ms; density 0.5: n = 9
# 0.24-0.27 against 0.16-0.18 ms, n = 10 0.44-0.47 against 0.12-0.13 ms,
# n = 11 2.8-3.4 against 0.26-0.35 ms; cubic graphs: n = 10 0.48-0.77
# against 0.15-0.26 ms, n = 12 1.4-2.2 against 0.22-0.33 ms.  So numpy wins
# from n = 11 on, and at n = 10 by 0.2-0.5 ms, a size no workload scans
# exhaustively; at n <= 7 (the sweeps over every small graph) its per-call
# overhead makes it more than twice as slow (0.12-0.13 s against
# 0.043-0.052 s over all 996 connected classes).
# Block size, on the five n = 16-19 scans of the subset-scan benchmark, the
# median of 8 alternating rounds (seeds 1 and 3, two runs): blocks of 2^12,
# 2^13, 2^14 and 2^15 masks took 15-16 and 18-19, 13.5-14 and 17-18, 17-18
# and 21-22, and 31-32 and 34-36 ms, at tracemalloc peaks of 331-358, 677,
# 1283-1300 and 1858-1902 KB.
_VECTOR_MIN_N = 11
_BLOCK_BITS = 13


def _half_tables(g: Graph, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """N(F) and |F| for every subset F of the vertices lo .. hi - 1, indexed
    by F shifted down by lo, built by doubling: 2^(hi - lo) entries each."""
    nbhd = np.zeros(1, dtype=np.uint32)
    size = np.zeros(1, dtype=np.uint8)
    for v in range(lo, hi):
        nbhd = np.concatenate((nbhd, nbhd | np.uint32(g.adj_masks[v])))
        size = np.concatenate((size, size + 1))
    return nbhd, size


def _scan_blocks(g: Graph, even: Optional[Mask], prior: int) -> Tuple[int, int, Mask, int]:
    """``_scan`` over every nonempty subset (n <= 22), vectorized, given
    ``prior`` = o(G - {0}).

    Masks A = 0 .. 2^n - 1 are taken in blocks of 2^_BLOCK_BITS ``uint32``
    lanes, the blocks in integer order; within a block the low bits L vary
    over the lane vertices and the high bits H are fixed, so s = |L| + |H|.
    The lane tables are kept in the order of |L|, equal sizes in integer
    order (``_lane_order``): the masks L, |L| and, given ``even``, cut(L),
    L's count of even-degree vertices and one row of |N(v) & L| per vertex v
    above the lanes (at most 9 * 2^13 ``uint8``, 72 KB).  N(F) and
    |F| of a whole mask come from two tables, one per half of the vertices
    (h = ceil(n/2) low bits, the rest high), so each lookup is two gathers.
    The bounds of the module docstring on the count o of odd components of
    G - A drop the lanes of a block that can at most tie the best ratio
    known when the block is bounded (a tie keeps an earlier witness):

    * o <= n - s, with the parity of n - s.  (n - s) * s* > o* * s falls as
      s grows, so the lanes it leaves open are a prefix of the tables, its
      end read off the count of lanes of each size, and only that prefix is
      bounded further;
    * given ``even``, the edge-cut bound ub, with cut(A) = cut(L) + cut(H)
      - 2 e(L, H): cut(H) is one integer per block and e(L, H) the sum of
      the rows of the vertices of H.  ub is lowered to the parity of n - s;
    * after each finished component, o <= (odd so far) + |rest of G - A|.

    The best starts at the prior A = {0}, one scalar BFS in ``tutte_scan``
    (at even n, G - {0} has odd order, so o / s >= 1); every block, block 0
    less the empty set too, is bounded against the best known then, and the
    lanes left open are compressed once and queued.  The queue runs one
    frontier BFS per component in lock step: block 0 alone, so that later
    blocks are bounded against its best, then whenever the next block would
    take it past 2^_BLOCK_BITS lanes, and at the end; a lane leaves when
    G - A is used up or its third bound falls to the best.  The best is kept
    as its integer pair (o*, s*) and a lane's bound b is compared as
    b * s* <= o* * s in ``int16``, exactly.  Every lane that finishes thus
    beats the best known before its batch, and the batch's maximum of o / s
    (float64, exact for n <= 22) at its least mask replaces it.  Every
    queued lane comes after the witness in integer order (mask 1, the
    prior's, is the first nonempty subset), so the witness is the earliest
    subset attaining the maximum.
    """
    n = g.n
    adj = g.adj_masks
    h = (n + 1) // 2
    nb_lo, size_lo = _half_tables(g, 0, h)
    nb_hi, size_hi = _half_tables(g, h, n)
    half = np.uint32((1 << h) - 1)
    shift = np.uint32(h)
    lane_bits = min(n, _BLOCK_BITS)
    width = 1 << lane_bits
    full = np.uint32(g.full_mask)
    stats.add("blocks", 1 << n - lane_bits)

    def popcount(x):  # uint8
        return size_lo.take(x & half) + size_hi.take(x >> shift)

    best_o, best_s, witness = prior, 1, 1  # the prior A = {0}

    def settle():
        """The lock-step BFS over the lanes of ``queue``, a list of mask
        arrays, which it empties; the batch's maximum ratio, at its least
        mask, becomes the best."""
        nonlocal best_o, best_s, witness, queue, queued
        masks = np.concatenate(queue) if len(queue) > 1 else queue[0]
        queue, queued = [], 0
        stats.add("lanes", masks.size)
        sizes = popcount(masks).astype(np.int16)
        rest = masks ^ full
        # b * s* > o* * s exactly when b > need, for the bound b = odd so far
        # + |rest|; a lane stays open while margin = b - need > 0, and b = o
        # once rest is 0
        need = best_o * sizes // best_s
        margin = n - sizes - need
        lanes = np.arange(masks.size)
        finished, margins = [], []
        while lanes.size:
            before = rest
            frontier = rest & -rest
            rest = rest ^ frontier
            while np.count_nonzero(frontier):
                frontier = (nb_lo.take(frontier & half)
                            | nb_hi.take(frontier >> shift)) & rest
                rest ^= frontier
            # of the z vertices of the component just finished, z & 1 stay
            # in b as an odd component
            margin = margin - (popcount(before ^ rest) & 0xFE)
            keep = margin > 0
            ended = keep & (rest == 0)
            finished.append(lanes[ended])
            margins.append(margin[ended])
            open_ = np.flatnonzero(keep ^ ended)
            rest, margin, lanes = rest[open_], margin[open_], lanes[open_]
        finished = np.concatenate(finished)
        if finished.size:
            at = masks[finished]
            odd = np.concatenate(margins) + need[finished]
            s = sizes[finished]
            ratios = odd / s
            top = np.flatnonzero(ratios == ratios.max())
            j = top[np.argmin(at[top])]  # the least mask at the maximum
            best_o, best_s, witness = int(odd[j]), int(s[j]), int(at[j])

    low, low_size, starts = _lane_order(lane_bits)
    if even is not None:
        # For every lane mask L, built in integer order by doubling and then
        # put in size order: cut(L) in int16 and, in uint8, L's count of
        # even-degree vertices and |N(v) & L| for each vertex v above the
        # lanes (at most 13 * 9 edges join L to the rest, so the sums fit).
        # Each subtraction keeps a nonnegative result or an int16 operand.
        by_int = np.arange(width, dtype=np.uint32)
        low_cut = np.zeros(1, dtype=np.int16)
        low_even = np.zeros(1, dtype=np.uint8)
        for v in range(lane_bits):
            inner = popcount(by_int[:low_cut.size] & np.uint32(adj[v]))  # |N(v) & L|, L below v
            low_cut = np.concatenate((low_cut, low_cut + g.degrees[v] - 2 * inner))
            low_even = np.concatenate((low_even, low_even + (even >> v & 1)))
        low_cut, low_even = low_cut.take(low), low_even.take(low)
        to_lanes = [popcount(low & np.uint32(adj[v])) for v in range(lane_bits, n)]

    queue, queued = [], 0
    for base in range(0, 1 << n, width):
        high = base.bit_count()
        # lanes of size k pass o <= n - s while k * (s* + o*) < num: a prefix
        num = (n - high) * best_s - best_o * high
        end = starts[min(lane_bits + 1, max(0, -(-num // (best_s + best_o))))]
        if not end:
            continue
        lanes = slice(not base, end)  # block 0 less the empty set
        masks = low[lanes] | np.uint32(base)
        if even is not None:
            sizes = low_size[lanes] + high
            left = n - sizes  # |V - A|
            above = list(bits(base))
            # cut(L + H) = cut(L) + cut(H) - 2 e(L, H)
            out = g.full_mask ^ base
            cut = (low_cut[lanes] + sum((adj[v] & out).bit_count() for v in above)
                   - 2 * sum(to_lanes[v - lane_bits][lanes] for v in above))
            t = (even & out).bit_count() - low_even[lanes]
            bound = (cut + np.minimum(t, cut >> 1)) // 3
            bound = bound - ((bound ^ left) & 1)
            masks = masks[bound * best_s > best_o * sizes]
        if queued + masks.size > width:
            settle()
        if masks.size:
            queue.append(masks)
            queued += masks.size
        if queue and not base:  # block 0 alone, so later blocks are bounded against its best
            settle()
    if queue:
        settle()
    return best_o, best_s, witness, (1 << n) - 1


@lru_cache(maxsize=None)
def _lane_order(lane_bits: int) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """The masks 0 .. 2^lane_bits - 1 in the order of their size, equal
    sizes in integer order, as ``uint32``; their sizes in ``int16``; and for
    each k = 0 .. lane_bits + 1 the count of masks of fewer than k bits.  It
    depends on ``lane_bits`` alone, so each is built once per process."""
    size = np.zeros(1, dtype=np.uint8)
    for _ in range(lane_bits):
        size = np.concatenate((size, size + 1))
    counts = [comb(lane_bits, k) for k in range(lane_bits + 1)]
    return (np.argsort(size, kind="stable").astype(np.uint32),
            np.repeat(np.arange(lane_bits + 1, dtype=np.int16), counts),
            tuple(accumulate(counts, initial=0)))


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
    pool.  The size s and the seed vertex each take one ``random()``,
    bisected into cumulative weights: the body of ``random.choices`` with
    ``cum_weights``, inlined without its checks and its list, so the draws
    are the same.  The populations 1 .. n - 1 and 0 .. n - 1 need no list:
    the bisected index is the vertex, and the size less one.
    """
    rng = random.Random(seed)
    uniform = rng.random
    n = g.n
    adj = g.adj_masks
    full = g.full_mask
    seed_cum = list(accumulate(1.0 / (1 + d) for d in g.degrees))
    seed_total = seed_cum[-1]
    size_cum = list(accumulate(2.0 ** -s for s in range(1, n)))
    size_total = size_cum[-1] if n > 1 else 0.0
    seen = set()
    for v in range(n):  # always probe the singletons
        m = 1 << v
        seen.add(m)
        yield m
    for _ in range(samples):
        s = bisect(size_cum, uniform() * size_total, 0, n - 2) + 1 if n > 1 else 1
        v0 = bisect(seed_cum, uniform() * seed_total, 0, n - 1)
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


def _check_exhaustive(n: int) -> None:
    """The exhaustive scan's cap; the CLI checks it on the parsed header."""
    if n > 22:
        raise CapExceeded("exhaustive Tutte scan capped at n=22")


def _scan_facts(g: Graph, exhaustive: bool) -> Tuple[bool, Optional[Mask]]:
    """Whether ``g`` is connected, and its even-degree mask where the edge-cut
    bound holds (connected bridgeless G) and pays, else None.  Below
    _VECTOR_MIN_N vertices it costs more than the BFS it saves: the
    exhaustive scans of all 996 connected classes with n <= 7 took
    0.043-0.050 s without it and 0.070-0.079 s with it (best of 9, 2-core
    host).  An ``exhaustive`` scan takes it from 14 vertices up: bridges,
    the mask and ``_scan_blocks``' lane tables cost more than they save
    below that.  Mean per scan over 20 connected bridgeless graphs of each
    kind, best of 7, two runs, without -> with the bound, in ms: n = 11
    G(n, 0.3) 0.32-0.63 -> 0.48-0.99, cubic with one edge subdivided
    0.36-0.64 -> 0.50-0.97; n = 12 G(n, 0.5) 0.17-0.33 -> 0.38-0.68, cubic
    0.23-0.44 -> 0.21-0.43, the cycle 0.37-0.77 -> 0.21-0.42; n = 13 every
    kind slower with it, as at n = 11 (odd n leaves the prior {0} at ratio
    0); n = 14 G(n, 0.5) 0.36-0.66 -> 0.71-1.19, cubic 0.73-1.15 ->
    0.31-0.59, the cycle 1.2-2.2 -> 0.32-0.59."""
    connected = is_connected(g)
    if (g.n < (14 if exhaustive else _VECTOR_MIN_N)
            or not connected or bridges(g)):
        return connected, None
    return connected, mask_of(v for v, d in enumerate(g.degrees) if d % 2 == 0)


def _degree_ceiling_closes(g: Graph, even: Mask, o: int) -> bool:
    """Whether the degree ceiling of the module docstring is at most o, on a
    connected bridgeless ``g`` with even-degree mask ``even``: then c_star
    is o = o(G - {0}), first at mask 1.  One sort of the degrees."""
    n = g.n
    e = even.bit_count()
    d = 0  # D_s
    for s, degree in enumerate(sorted(g.degrees, reverse=True), 1):
        d += degree
        u = min(n - s, (d + min(e, d >> 1)) // 3)
        if u - ((u ^ (n - s)) & 1) > o * s:
            return False
    return True


def tutte_scan(g: Graph, mode: str = "exhaustive", seed: int = 0,
               samples: int = 2000, tol: float = TOL) -> TutteReport:
    """Scan subsets A for the worst odd-component ratio.

    ``exhaustive`` decides every nonempty subset (n <= 22); ``randomized``
    draws seeded samples biased toward small sets grown from low-degree
    vertices, plus all singletons.  Ties on the maximum keep the earliest
    (smallest) witness encountered.  The kernels return the worst (o, s);
    c_star = o / s, and the flags o <= s and o < s are exactly c_star <= 1
    and c_star < 1.  A subset is decided without a full BFS when a bound on
    o(G - A) (see the module docstring) rules out a new worst ratio, and
    with it a flip of either flag (``_scan_blocks`` checks its bounds
    against the best of {0} and its earlier blocks); ``scanned`` counts
    every subset decided, so an exhaustive scan reports 2^n - 1.  Where
    ``_scan_facts`` gives the even-degree mask, the degree ceiling of the
    module docstring comes first, against o(G - {0}) from one BFS: on a
    bridgeless cubic graph of even order or an even cycle it proves
    c_star = o(G - {0}) at the witness {0}, and no subset is scanned (a
    randomized scan still makes its draws, to count the distinct ones);
    where it stays open, that BFS is ``_scan_blocks``' prior.  On an odd
    cycle, where c_star < 1, the parity-lowered edge-cut bound decides most
    randomized draws without a BFS (in-process, seed 0, 2-core host: C_1001
    0.018 s, C_4095 0.055 s; 0.36 and 7.8 s without the parity step and the
    running bound).

    The doubled-gap flag comes first and checks the dense cap before its
    certificate, so a connected graph past the cap fails before any subset
    is scanned; it solves the Laplacian, the scan's only dense solve, only
    when the certificate does not close.  Of the scans the ceiling leaves
    open, exhaustive ones of at least _VECTOR_MIN_N vertices run in
    ``_scan_blocks``, every other one in ``_scan``; both give the same
    result.
    """
    if mode == "exhaustive":
        _check_exhaustive(g.n)
    elif mode != "randomized":
        raise ValueError(f"unknown scan mode {mode!r}")
    exhaustive = mode == "exhaustive"
    connected, even = _scan_facts(g, exhaustive)
    bh = _doubled_gap_holds(g, tol) if g.n >= 2 and connected else None

    subsets = range(1, 1 << g.n) if exhaustive else _random_subsets(g, seed, samples)
    blocks = exhaustive and g.n >= _VECTOR_MIN_N
    if blocks or even is not None:
        prior = _scan(g, (1,), None)[0]  # o(G - {0})
    if even is not None and _degree_ceiling_closes(g, even, prior):
        o, s, witness = prior, 1, 1  # mask 1 comes first in both modes
        scanned = len(subsets) if exhaustive else sum(1 for _ in subsets)
    elif blocks:
        o, s, witness, scanned = _scan_blocks(g, even, prior)
    else:
        o, s, witness, scanned = _scan(g, subsets, even)

    matching = None
    if g.n <= 24:
        matching = perfect_matching_oracle(g)

    return TutteReport(c_star=o / s, witness=witness, classical_holds=o <= s,
                       strict_holds=o < s, mode=mode, scanned=scanned,
                       bh_condition=bh, matching=matching)


def _doubled_gap_holds(g: Graph, tol: float) -> bool:
    """2*mL >= ML on the mean-zero Laplacian extremes of a connected graph.

    Unless ``g`` already carries its Laplacian spectrum, a certificate with
    margin ``eta`` is tried first: ``2 U < Lo - tol - 4 eta`` for an upper
    bound U on mL and a lower bound Lo on ML makes the flag False for every
    pair of computed eigenvalues within ``eta`` of them, so the dense solve
    runs only when it does not close.  U is the Rayleigh quotient of the
    centred BFS distances from vertex 0, ``y = n dist - sum(dist)``, which is
    mean-zero; every edge joins equal or adjacent levels, so
    ``y^T L y = n^2 c`` for the c edges between levels, and
    ``|y|^2 = n (n sum(dist^2) - sum(dist)^2)``.  The Rayleigh quotient of
    ``Delta e_v - 1_N(v)``, v of maximum degree Delta, is Delta + 1 plus a
    nonnegative term for the other edges at N(v), so Lo = Delta + 1.  U is
    an exact integer ratio, and int / int rounds correctly, far inside
    ``eta``.
    """
    _check_dense(g.n)
    if g._lap_spectrum is None:
        dist = bfs_levels(g)
        s = sum(dist)
        cross = sum(dist[u] != dist[v] for u, v in g.edges())
        upper = g.n * cross / (g.n * sum(x * x for x in dist) - s * s)
        if 2 * upper < g.max_degree + 1 - tol - 4 * margin(g):
            return False
    lap = laplacian_spectrum(g)
    return bool(2.0 * lap[1] >= lap[-1] - tol)


@dataclass(frozen=True)
class TwoSetReport:
    lhs: float
    rhs: float
    holds: bool
    mL: float
    ML: float


def two_set_inequality(g: Graph, y: Mask, z: Mask) -> TwoSetReport:
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
    lap = laplacian_spectrum(g)
    m_l, big_l = lap[1], lap[-1]
    lhs = (mu_y * mu_z) / ((1.0 - mu_y) * (1.0 - mu_z))
    rhs = ((big_l - m_l) / (big_l + m_l)) ** 2
    return TwoSetReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + TOL),
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
    return _match(g.adj_masks, g.full_mask, set())


def _match(adj, uncov: Mask, dead: set) -> Optional[List[Tuple[int, int]]]:
    """A perfect matching of the vertices ``uncov``, or None; ``dead`` holds
    the vertex sets already known to have none."""
    if uncov == 0:
        return []
    if uncov in dead:
        return None
    b = uncov & -uncov
    v = b.bit_length() - 1
    for u in bits(adj[v] & uncov):
        rest = _match(adj, uncov ^ b ^ (1 << u), dead)
        if rest is not None:
            return [(v, u)] + rest
    dead.add(uncov)
    return None
