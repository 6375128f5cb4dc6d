"""The paper's guarantees, each defined once.

Every entry of :data:`INVARIANTS` pairs a corpus builder with a per-item
check.  The builder takes a tier: ``quick`` is what ``specbound verify``
sweeps (exhaustive families stop at n = 6 so the command stays fast), and
``full`` is what the acceptance tests sweep.  Search-based oracles are the
ground truth; the spectral side must agree with them, never the other way
round.  Corpora are deterministic, so a failure names the item that broke it.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from .bipartite import (bfs_bipartition_oracle, rotation_two_coloring,
                        spectral_bipartite_test)
from .coloring import (brute_force_chromatic, brute_force_independence,
                       function_graph_color, min_degree_peel_color)
from .enumeration import enumerate_graphs
from .generators import (complete, complete_bipartite, cycle,
                         function_graph, paley_tournament, petersen,
                         random_regular, subdivide)
from .graphs import Graph, bits, dump_edge_list, is_connected, load_edge_list, mask_of
from .limits import accumulate_spectra, cycle_spectrum, max_gap
from .matching import tutte_scan, two_set_inequality
from .spectral import adjacency_spectrum, block_extremes, bounds, multiset_close


class InvariantViolation(AssertionError):
    """A corpus item contradicts a guarantee."""


def _require(cond: bool, claim: str) -> None:
    if not cond:
        raise InvariantViolation(claim)


def _tier(tier: str, quick: Any, full: Any) -> Any:
    return {"quick": quick, "full": full}[tier]


@dataclass(frozen=True)
class Invariant:
    name: str                           # the check name ``verify`` reports
    label: str                          # the statement the acceptance sweep prints
    corpus: Callable[[str], Iterable[Any]]
    check: Callable[[Any], None]
    seconds: Optional[float] = None     # wall-time bound on one whole sweep

    def sweep(self, tier: str) -> int:
        """Check every item of the tier's corpus; return how many there were."""
        start = time.perf_counter()
        count = 0
        for item in self.corpus(tier):
            try:
                self.check(item)
            except InvariantViolation as exc:
                raise InvariantViolation(
                    f"{exc} fails on item {count} of the {tier} corpus") from None
            count += 1
        elapsed = time.perf_counter() - start
        _require(self.seconds is None or elapsed < self.seconds,
                 f"sweep took {elapsed:.3f} s, bound {self.seconds} s")
        return count


def _invariant(name, label, corpus, seconds=None) -> Callable[[Callable], Invariant]:
    """Decorate a per-item check into an :class:`Invariant`."""
    return lambda check: Invariant(name, label, corpus, check, seconds)


def _random_graph(rng: random.Random, n: int) -> Graph:
    """Uniform edge count, then a uniform edge set of that size."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, [])
    m = rng.randint(0, len(pairs))
    return Graph(n, sorted(rng.sample(pairs, m)))


def _random_graphs(seed: int, count: int, lo: int, hi: int) -> Iterator[Graph]:
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_graph(rng, rng.randint(lo, hi))


def _connected(ns: Iterable[int]) -> Iterator[Graph]:
    for n in ns:
        yield from enumerate_graphs(n, connected=True)


@_invariant("edge-list-round-trip", "edge lists round-trip: 3 fixtures + 200 seeded graphs",
            lambda tier: itertools.chain((petersen(), cycle(9), complete_bipartite(2, 5)),
                                         _random_graphs(5, _tier(tier, 0, 200), 1, 30)))
def _round_trip(g):
    text = dump_edge_list(g)
    back = load_edge_list(text)
    _require(back == g and dump_edge_list(back) == text, "load(dump(G)) == G")


@_invariant("cycle-spectra", "limit's closed-form cycle spectra match the dense solve "
            "to 1e-9, n = 3..256", lambda tier: range(3, _tier(tier, 33, 257)))
def _cycle_spectra(n):
    _require(multiset_close(adjacency_spectrum(cycle(n)), cycle_spectrum(n),
                            1e-9), "spec C_n == 2cos(2 pi k/n)")


def _norms_corpus(tier):
    """``(graph, M)``: complete bipartite graphs and subdivisions."""
    for a, b in itertools.combinations_with_replacement(range(1, _tier(tier, 4, 6) + 1), 2):
        yield complete_bipartite(a, b), math.sqrt(a * b)
    for g, d in ((cycle(4), 2), (complete(4), 3), (petersen(), 3),
                 (random_regular(12, 3, seed=9), 3)):
        yield subdivide(g), math.sqrt(2 * d)


@_invariant("biregular-and-subdivision-norms", "norms: M(K_{a,b}) = sqrt(ab); "
            "M(subdivision of d-regular) = sqrt(2d)", _norms_corpus)
def _norms(item):
    g, want = item
    _require(abs(adjacency_spectrum(g)[-1] - want) <= 1e-9, "M == closed form")


def _block_corpus(tier):
    """``(graph, parts)``: seeded graphs under seeded k-partitions."""
    rng = random.Random(_tier(tier, 13, 7))
    for _ in range(_tier(tier, 30, 100)):
        n = rng.randint(2, _tier(tier, 17, 30))
        g = _random_graph(rng, n)
        k = rng.randint(1, 5)
        labels = [rng.randrange(k) for _ in range(n)]
        yield g, [mask_of([v for v in range(n) if labels[v] == i]) for i in range(k)]


@_invariant("block-inequality", "block inequality (k-1)m + M <= sum M_ii on 100 seeded "
            "partitions", _block_corpus)
def _block(item):
    g, parts = item
    spec = adjacency_spectrum(g)
    m, big_m = spec[0], spec[-1]
    blocks = block_extremes(g, parts)
    _require((len(parts) - 1) * m + big_m <= sum(b.M for b in blocks) + 1e-9,
             "(k-1)m + M <= sum M_ii")
    _require(all(b.M <= big_m + 1e-8 and b.m >= m - 1e-8 for b in blocks),
             "m <= m_ii <= M_ii <= M")


@_invariant("chromatic-sandwich", "hoffman <= chi <= wilf sandwich, exhaustive n<=7 + 500 "
            "random n<=10, < 5 min",
            lambda tier: itertools.chain(_connected(range(1, _tier(tier, 7, 8))),
                                         _random_graphs(20260822, _tier(tier, 0, 500), 1, 10)),
            seconds=300.0)
def _sandwich(g):
    b = bounds(g)
    chi = brute_force_chromatic(g)
    col = min_degree_peel_color(g, b.M)  # wilf_color, from the same M
    _require(chi <= b.wilf, "chi <= wilf")
    _require(col.is_total and col.proper(g), "the wilf coloring is proper")
    _require(col.palette_size <= b.wilf, "the wilf coloring uses <= wilf colors")
    _require(b.hoffman is None or b.hoffman <= chi, "hoffman <= chi")


@_invariant("bipartite-equivalence", "symmetric spectrum == bipartite on all connected "
            "n<=8; -d test for regular", lambda tier: _connected(range(1, _tier(tier, 7, 9))))
def _bipartite(g):
    adjacency_spectrum(g)  # a verdict from the spectrum, not from the oracle's coloring
    v = spectral_bipartite_test(g)
    truth = bfs_bipartition_oracle(g) is not None
    _require(v.symmetric_spectrum == truth, "symmetric spectrum == bipartite")
    if g.is_regular:
        _require(v.minus_d_in_spectrum == truth, "-d in spectrum == bipartite")
        if truth and g.n >= 2:
            _require(_is_bipartition(g, v.bipartition), "extracted sides are a bipartition")


def _is_bipartition(g: Graph, sides: Tuple[int, int]) -> bool:
    """Whether two vertex masks, vertex 0 in the first, are disjoint, cover
    the vertex set and have every edge join them."""
    a, b = sides
    return (a & b == 0 and a | b == g.full_mask and a & 1 == 1
            and all((a >> u ^ a >> v) & 1 for u, v in g.edges()))


@_invariant("independence-bounds", "independence: alpha/n <= -m/(d-m) (regular) and "
            "<= 1 - delta/ML, n<=8", lambda tier: _connected(range(1, _tier(tier, 7, 9))))
def _independence(g):
    ratio = brute_force_independence(g)[0] / g.n
    b = bounds(g)
    if b.independence_bound is not None:
        _require(ratio <= b.independence_bound + 1e-9, "alpha/n <= -m/(d-m)")
    if b.mindeg_independence_bound is not None:
        _require(ratio <= b.mindeg_independence_bound + 1e-9, "alpha/n <= 1 - delta/ML")


def _matching_corpus(tier):
    """``(graph, bh)``, connected of even order; ``bh`` is the known value of
    2*mL >= ML on named graphs with a perfect matching, else None."""
    yield from _tier(tier, ((complete(4), True), (cycle(4), True), (petersen(), False)),
                     ((complete_bipartite(5, 5), True), (petersen(), False)))
    for g in _connected(_tier(tier, (2, 4, 6), (2, 4, 6, 8))):
        yield g, None
    for seed in range(_tier(tier, 0, 40)):
        g = random_regular(10, 3, seed=seed)
        if is_connected(g):
            yield g, None
    rng = random.Random(4242)
    for _ in range(_tier(tier, 0, 150)):
        g = _random_graph(rng, 10)
        while not is_connected(g):
            g = _random_graph(rng, 10)
        yield g, None


@_invariant("tutte-equivalence", "matching: 2*lam2 >= lam_max forces a matching; "
            "odd-component scan agrees", _matching_corpus)
def _matching(item):
    g, fixture = item
    rep = tutte_scan(g)
    matched = rep.matching is not None
    _require(rep.classical_holds == matched, "classical Tutte condition == perfect matching")
    # deleting one vertex of a connected even-order graph leaves an odd component
    _require(rep.c_star >= 1.0 - 1e-12 and not rep.strict_holds, "c_star >= 1")
    if g.is_regular:
        bh = rep.bh_condition
        _require(matched or not bh, "2*mL >= ML forces a perfect matching")
        _require(fixture is None or (bh, matched) == (fixture, True),
                 "2*mL >= ML and the matching match the named graph")


def _two_set_corpus(tier):
    """``(graph, Y, Z, exact)``: Y, Z without an edge between them; ``exact``
    holds the known sides for two Petersen pairs."""
    for far in (3, 7):
        yield petersen(), mask_of([0]), mask_of([far]), (1 / 81, 9 / 49)
    cube = Graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1])
    pool = [petersen(), cube, complete_bipartite(3, 3), complete_bipartite(4, 4)]
    pool += [cycle(n) for n in range(5, 13)]
    seeds = _tier(tier, 0, 30)
    pool += [g for g in (random_regular(12, 3, seed=s) for s in range(seeds)) if is_connected(g)]
    pool += [g for g in (random_regular(10, 4, seed=s) for s in range(seeds)) if is_connected(g)]
    rng = random.Random(99)
    wanted, sampled = _tier(tier, 20, 500), 0
    while sampled < wanted:
        g = pool[rng.randrange(len(pool))]
        size_y, size_z = rng.randint(1, 2), rng.randint(1, 2)
        verts = rng.sample(range(g.n), size_y + size_z)
        y, z = mask_of(verts[:size_y]), mask_of(verts[size_y:])
        if any(g.adj_masks[v] & z for v in bits(y)):
            continue  # an edge joins the sets: not an instance
        yield g, y, z, None
        sampled += 1


@_invariant("two-set-inequality", "two-set bound mu_Y mu_Z/((1-mu_Y)(1-mu_Z)) <= "
            "((ML-mL)/(ML+mL))^2, 500 pairs", _two_set_corpus)
def _two_set(item):
    g, y, z, exact = item
    rep = two_set_inequality(g, y, z)
    _require(rep.holds, "mu_Y mu_Z/((1-mu_Y)(1-mu_Z)) <= ((ML-mL)/(ML+mL))^2")
    _require(exact is None or (abs(rep.lhs - exact[0]) <= 1e-12
                               and abs(rep.rhs - exact[1]) <= 1e-12), "sides == 1/81, 9/49")


@_invariant("rotation-coloring", "rotation coloring: defect <= 51 of 1000 samples, proper "
            "off the defect",
            lambda tier: [((math.sqrt(5) - 1) / 2, 0.05, _tier(tier, 500, 1000))])
def _rotation(item):
    alpha, gamma, n = item
    rc = rotation_two_coloring(alpha, gamma, n)
    _require(rc.defect_count <= gamma * n + 1, "defect <= gamma*n + 1")
    # samples off the defect set C = [0, gamma) differ from their successor
    _require(all(rc.labels[k] != rc.labels[k + 1] for k in range(n - 1)
                 if (k * alpha) % 1.0 >= gamma), "proper off the defect")


def _function_corpus(tier):
    """``(digraph, tight)``: Paley, where 2k+1 = 7 is chi(K7), then seeded systems."""
    yield paley_tournament(), True
    rng = random.Random(_tier(tier, 17, 777))
    for _ in range(_tier(tier, 30, 200)):
        n = rng.randint(1, _tier(tier, 30, 50))
        k = rng.randint(1, 3)
        yield function_graph([[rng.randrange(n) for _ in range(n)] for _ in range(k)]), False


@_invariant("function-graph-coloring", "function systems on <= 3 maps colored with <= 2k+1 "
            "colors, tight on Paley, 200 seeded, < 1 s", _function_corpus, seconds=1.0)
def _function_coloring(item):
    d, tight = item
    palette = 2 * d.n_functions + 1
    col = function_graph_color(d)
    under = d.underlying()
    _require(col.is_total and col.proper(under), "the coloring is proper")
    _require(col.palette_size <= palette, "at most 2k+1 colors")
    _require(not tight or (under == complete(under.n)
                           and brute_force_chromatic(under) == palette), "chi == 2k+1")


@_invariant("limit-accumulation", "cycle family fills [-2, 2]: max gap < 0.05 at N = 256",
            lambda tier: [_tier(tier, (64, 0.2), (256, 0.05))])
def _limit(item):
    n, bound = item
    gap = max_gap(accumulate_spectra(n), (-2.0, 2.0))
    _require(gap < bound, f"max gap at N = {n} < {bound}")


INVARIANTS: Tuple[Invariant, ...] = (
    _round_trip, _cycle_spectra, _norms, _block, _sandwich, _bipartite, _independence,
    _matching, _two_set, _rotation, _function_coloring, _limit)


def verify(tier: str) -> List[Tuple[str, bool, str]]:
    """One ``(name, ok, detail)`` per invariant; a failing or crashing check is
    reported, never raised, so one broken guarantee hides none of the others."""
    results = []
    for inv in INVARIANTS:
        try:
            results.append((inv.name, True, f"corpus size {inv.sweep(tier)}"))
        except Exception as exc:  # noqa: BLE001 - verify reports, never crashes
            results.append((inv.name, False, f"{type(exc).__name__}: {exc}"))
    return results
