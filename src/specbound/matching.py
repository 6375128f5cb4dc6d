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

The scan has two kernels that return the same five values.  ``_scan`` walks
any iterable of big-integer masks one at a time; it takes every randomized
scan and the exhaustive scans below 12 vertices.  ``_scan_blocks`` takes the
exhaustive scans from 12 vertices up and runs blocks of ``uint32`` masks
through numpy in lock step.  The crossover and the block size are constants
beside it, with the measurements that chose them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Tuple

import numpy as np

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

    ``subsets`` may be any iterable of masks; ``tutte_scan`` passes it the
    randomized draws and the exhaustive scans of fewer than _VECTOR_MIN_N
    vertices.  The first three bytes of a frontier are looked up directly;
    higher bytes, which only large randomized scans have, go through a loop
    over the nonzero ones.  G - A has at most
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


# Exhaustive scans of at least _VECTOR_MIN_N vertices take the numpy kernel.
# Measured per scan, 10 random graphs of edge density 0.3 each, 2-core host:
# n = 10 0.36 ms scalar against 0.45 ms numpy, n = 11 0.73 against 0.95 ms,
# n = 12 1.8 against 1.1 ms.  Below the crossover numpy's per-call overhead
# loses: at n <= 7 (the sweeps over every small graph) numpy is 3-8 times
# slower.  Block size, on the five n = 16-19 scans of the subset-scan
# benchmark: blocks of 2^12, 2^13, 2^14 and 2^15 masks took 0.26, 0.20, 0.21
# and 0.22 s; after one round of them the peak resident set stood 0.7, 0.5
# and 0.9 MB above the scalar kernel's for 2^12, 2^13 and 2^14 masks, and
# 3.9 MB above it for 2^16.
_VECTOR_MIN_N = 12
_BLOCK_BITS = 13
_BYTE_PARITY = np.array([b.bit_count() & 1 for b in range(256)], dtype=np.uint8)


def _scan_blocks(g: Graph) -> Tuple[float, Mask, bool, bool, int]:
    """``_scan`` over every nonempty subset (n <= 22), vectorized.

    Masks A = 0 .. 2^n - 1 are taken in integer order in blocks of
    2^_BLOCK_BITS ``uint32`` lanes; within a block only the low bits vary,
    so the block's sizes are the popcounts of 0 .. 2^_BLOCK_BITS - 1 (built
    once, by doubling) plus those of its high bits.  A mask whose bound
    (n - s) / s is at most the best ratio of the earlier blocks is dropped (it
    can at most tie a best an earlier subset reached), as is A = 0.  The rest
    run one frontier BFS per component in lock step over the byte tables,
    padded to 256 entries, each lane adding the parity of the component it
    just finished (from a byte table); a lane leaves when G - A is used up.
    A block's first maximum of o / s (float64, as exact as ``_scan``'s
    division) replaces the best only when strictly larger, so the witness is
    the earliest subset attaining the maximum, as in ``_scan``.
    """
    n = g.n
    t0, t1, t2 = (np.array(t + (0,) * (256 - len(t)), dtype=np.uint32)
                  for t in _neighbourhood_tables(g)[:3])
    low = np.arange(1 << min(n, _BLOCK_BITS), dtype=np.uint32)
    low_size = np.zeros(1, dtype=np.uint8)
    while low_size.size < low.size:
        low_size = np.concatenate((low_size, low_size + 1))
    full = np.uint32(g.full_mask)
    best = -1.0
    witness = 0
    for base in range(0, 1 << n, low.size):
        # (n - s) / s > best exactly when s < cut: the bound falls as s grows
        cut = next((s for s in range(1, n + 1) if (n - s) / s <= best), n + 1)
        masks = low | np.uint32(base)
        sizes = low_size + base.bit_count()
        keep = sizes < cut
        if base == 0:
            keep[0] = False  # the empty set
        masks, sizes = masks[keep], sizes[keep]
        if not masks.size:
            continue
        odd = np.zeros(masks.size, dtype=np.uint8)
        lanes = np.arange(masks.size)
        rest = masks ^ full
        while rest.size:
            before = rest
            frontier = rest & -rest
            rest = rest ^ frontier
            while np.count_nonzero(frontier):
                frontier = (t0[frontier & 255] | t1[frontier >> 8 & 255]
                            | t2[frontier >> 16]) & rest
                rest ^= frontier
            done = before ^ rest  # the component each lane just finished
            odd[lanes] += (_BYTE_PARITY[done & 255] ^ _BYTE_PARITY[done >> 8 & 255]
                           ^ _BYTE_PARITY[done >> 16])
            open_ = np.flatnonzero(rest)
            rest, lanes = rest[open_], lanes[open_]
        ratios = odd / sizes
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best = float(ratios[i])
            witness = int(masks[i])
    return best, witness, best <= 1.0, best < 1.0, (1 << n) - 1


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
    (smallest) witness encountered.  A subset is decided without a BFS when
    the bound o(G - A) <= |V - A| rules out a new worst ratio, and with it a
    flip of either Tutte flag (``_scan_blocks`` checks the bound against the
    best of its earlier blocks); ``scanned`` counts every subset decided, so
    an exhaustive scan reports 2^n - 1.

    The doubled-gap flag, the only dense solve, comes first, so a connected
    graph past the dense cap fails before any subset is scanned.  Exhaustive
    scans of at least _VECTOR_MIN_N vertices run in ``_scan_blocks``, every
    other scan in ``_scan``; both give the same report.
    """
    if mode == "exhaustive":
        if g.n > 22:
            raise CapExceeded("exhaustive Tutte scan capped at n=22")
    elif mode != "randomized":
        raise ValueError(f"unknown scan mode {mode!r}")
    bh = _doubled_gap_holds(g, tol) if g.n >= 2 and is_connected(g) else None

    if mode == "randomized":
        result = _scan(g, _random_subsets(g, seed, samples))
    elif g.n >= _VECTOR_MIN_N:
        result = _scan_blocks(g)
    else:
        result = _scan(g, range(1, 1 << g.n))
    c_star, witness, classical, strict, scanned = result

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
