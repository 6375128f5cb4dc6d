"""Correctness checks on the outputs of the benchmark's operations.

Every check compares an output with a computation made here, outside the
program (breadth-first search, closed-form spectra, inclusion-exclusion,
networkx), or with a property the mathematics forces (trace identities,
bound sandwiches).  Each checker returns a list of problems; an empty list
means the output passed.  None of this runs inside a timed region.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

EIG_TOL = 1e-9  # per eigenvalue: outputs carry 12 significant digits

CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


class Facts:
    """What the benchmark itself knows about an input graph."""

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]):
        self.n = n
        self.edges = [tuple(e) for e in edges]
        self.m = len(self.edges)
        self.adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.degrees = [len(a) for a in self.adj]
        self.regular = min(self.degrees) == max(self.degrees)
        self.components = bfs_components(self.adj)
        self.sides = bfs_sides(self.adj)

    @classmethod
    def from_text(cls, text: str) -> "Facts":
        rows = [line.split() for line in text.splitlines() if line.strip()]
        n = int(rows[0][0])
        return cls(n, [(int(a), int(b)) for a, b in rows[1:]])


def bfs_components(adj: Sequence[Sequence[int]], removed=frozenset()) -> List[List[int]]:
    seen = set(removed)
    comps = []
    for s in range(len(adj)):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def bfs_sides(adj: Sequence[Sequence[int]]) -> Optional[Tuple[List[int], List[int]]]:
    """BFS 2-coloring from each component's least vertex; None if odd cycle."""
    side = [-1] * len(adj)
    for s in range(len(adj)):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    return ([v for v in range(len(adj)) if side[v] == 0],
            [v for v in range(len(adj)) if side[v] == 1])


def greedy_palette(facts: Facts) -> int:
    colors: List[int] = []
    for v in range(facts.n):
        taken = {colors[u] for u in facts.adj[v] if u < v}
        colors.append(next(c for c in range(facts.n + 1) if c not in taken))
    return len(set(colors))


def chromatic_inclusion_exclusion(facts: Facts) -> int:
    """chi = least k with sum_S (-1)^(n-|S|) i(S)^k > 0, i(S) counting the
    independent sets inside S (Bjorklund-Husfeldt-Koivisto)."""
    n = facts.n
    nbr = [0] * n
    for u, v in facts.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    size = 1 << n
    ind = [1] * size
    for s in range(1, size):
        v = (s & -s).bit_length() - 1
        ind[s] = ind[s & ~(1 << v)] + ind[s & ~((1 << v) | nbr[v])]
    sign = [(-1) ** (n - bin(s).count("1")) for s in range(size)]
    for k in range(1, n + 1):
        if sum(sg * i ** k for sg, i in zip(sign, ind)) > 0:
            return k
    return n


def odd_components_after(facts: Facts, removed: Sequence[int]) -> int:
    comps = bfs_components(facts.adj, frozenset(removed))
    return sum(1 for c in comps if len(c) % 2 == 1)


def proper_palette(colors, facts: Facts) -> Tuple[bool, int]:
    if len(colors) != facts.n or any(not isinstance(c, int) for c in colors):
        return False, 0
    return all(colors[u] != colors[v] for u, v in facts.edges), len(set(colors))


def _close(a, b, tol=EIG_TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def wilf_of(norm: float) -> int:
    return math.floor(norm + 1e-9) + 1


# ---------------------------------------------------------------------------
# spectral-large
# ---------------------------------------------------------------------------

def check_extremes(p: dict, facts: Facts, norm: Optional[float]) -> List[str]:
    bad = []
    if p.get("n") != facts.n or p.get("d") != max(facts.degrees):
        bad.append("n or d differs from the input")
    if norm is not None and not _close(p.get("M"), norm):
        bad.append(f"M={p.get('M')} but the closed form gives {norm}")
    if norm is not None and p.get("wilf") != wilf_of(norm):
        bad.append(f"wilf={p.get('wilf')} but floor(M)+1={wilf_of(norm)}")
    hoffman = p.get("hoffman")
    if facts.m and (hoffman is None or hoffman > greedy_palette(facts)):
        bad.append(f"hoffman={hoffman} exceeds a proper coloring's palette")
    return bad


def check_spectrum(p: dict, facts: Facts, norm: Optional[float],
                   kind: str = "") -> List[str]:
    bad = check_extremes(p, facts, norm)
    adj, lap = p.get("spectrum_adj") or [], p.get("spectrum_lap") or []
    n = facts.n
    if len(adj) != n or len(lap) != n:
        return bad + ["spectrum length differs from n"]
    scale = max(1.0, max(abs(x) for x in adj))
    if abs(sum(adj)) > 1e-11 * n * scale + 1e-10:
        bad.append(f"adjacency trace {sum(adj):.3e} is not 0")
    if abs(sum(x * x for x in adj) - 2 * facts.m) > 2e-11 * n * scale ** 2 + 1e-10:
        bad.append("sum of squared adjacency eigenvalues is not 2m")
    lscale = max(1.0, max(abs(x) for x in lap))
    if abs(sum(lap) - 2 * facts.m) > 1e-11 * n * lscale + 1e-10:
        bad.append("Laplacian eigenvalues do not sum to 2m")
    zeros = sum(1 for x in lap if abs(x) <= EIG_TOL)
    if zeros != len(facts.components):
        bad.append(f"Laplacian kernel {zeros} != {len(facts.components)} components")
    if not (_close(p.get("M"), adj[-1], 0) and _close(p.get("m"), adj[0], 0)):
        bad.append("M/m are not the spectrum's extremes")
    if facts.regular:
        d = facts.degrees[0]
        if any(abs(lap[i] - (d - adj[n - 1 - i])) > EIG_TOL for i in range(n)):
            bad.append("Laplacian spectrum is not d - adjacency spectrum")
    if kind == "path":
        want = sorted(2.0 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1))
        if any(abs(a - b) > EIG_TOL for a, b in zip(adj, want)):
            bad.append("path spectrum differs from 2cos(pi k/(n+1))")
    return bad


def check_bounds(p: dict, facts: Facts, norm: Optional[float]) -> List[str]:
    bad = check_extremes(p, facts, norm)
    if len(facts.components) == 1 and facts.n >= 2:
        if p.get("mL") is None or p.get("ML") is None or not p["mL"] <= p["ML"]:
            bad.append("mean-zero Laplacian extremes missing on a connected graph")
    return bad


def check_color_wilf(p: dict, facts: Facts, norm: float) -> List[str]:
    bad = []
    proper, used = proper_palette(p.get("colors") or [], facts)
    if not proper or p.get("proper") is not True:
        bad.append("wilf coloring is not proper on the input's edges")
    if p.get("palette_used") != used:
        bad.append("palette_used differs from the colors listed")
    if p.get("palette_bound") != wilf_of(norm) or used > wilf_of(norm):
        bad.append(f"palette {used} / bound {p.get('palette_bound')} vs floor(M)+1={wilf_of(norm)}")
    return bad


def check_color_brute(p: dict, facts: Facts) -> List[str]:
    chi = chromatic_inclusion_exclusion(facts)
    if p.get("chromatic") != chi:
        return [f"brute chromatic {p.get('chromatic')} != inclusion-exclusion {chi}"]
    return []


def check_bipartite(p: dict, facts: Facts) -> List[str]:
    bad = []
    is_bip = facts.sides is not None
    if p.get("bfs_bipartite") is not is_bip:
        bad.append("bfs_bipartite disagrees with the benchmark's BFS")
    if len(facts.components) == 1:
        if p.get("symmetric_spectrum") is not is_bip:
            bad.append("symmetric_spectrum disagrees with bipartiteness")
        if p.get("minus_d_in_spectrum") is not is_bip:
            bad.append("minus_d_in_spectrum disagrees with bipartiteness")
    if p.get("regular") is not facts.regular:
        bad.append("regular flag is wrong")
    if facts.regular and is_bip and len(facts.components) == 1:
        if p.get("bipartition") != [facts.sides[0], facts.sides[1]] or p.get("defect") != []:
            bad.append("extracted sides differ from the BFS sides")
    elif p.get("bipartition") is not None:
        bad.append("bipartition extracted where none was expected")
    return bad


def check_tutte(p: dict, facts: Facts, exhaustive: bool,
                classical: Optional[bool] = None) -> List[str]:
    bad = []
    witness = p.get("witness") or []
    if not witness or any(not 0 <= v < facts.n for v in witness):
        return ["witness is empty or out of range"]
    ratio = odd_components_after(facts, witness) / len(witness)
    c_star = p.get("c_star")
    if not _close(c_star, ratio):
        bad.append(f"c_star={c_star} but the witness gives {ratio}")
    elif p.get("classical_holds") is not (c_star <= 1.0) or p.get("strict_holds") is not (c_star < 1.0):
        bad.append("classical/strict flags disagree with c_star")
    scanned = p.get("scanned")
    if exhaustive and scanned != (1 << facts.n) - 1:
        bad.append(f"scanned={scanned}, want 2^n-1")
    if not exhaustive and not facts.n <= scanned <= facts.n + 2000:
        bad.append(f"scanned={scanned} outside [n, n+samples]")
    if classical is not None and p.get("classical_holds") is not classical:
        bad.append(f"classical_holds={p.get('classical_holds')}, networkx says {classical}")
    matching = p.get("matching")
    if matching is not None:
        covered = sorted(v for e in matching for v in e)
        edge_set = {tuple(sorted(e)) for e in facts.edges}
        if covered != list(range(facts.n)) or any(tuple(sorted(e)) not in edge_set for e in matching):
            bad.append("matching is not a perfect matching of the input")
    if exhaustive and facts.n % 2 == 0 and (matching is not None) is not p.get("classical_holds"):
        bad.append("matching witness disagrees with classical_holds")
    return bad


def cycle_limit(max_n: int, tol: float = EIG_TOL):
    """Closed forms for the cycle family: merged points and per-n gaps."""
    values = sorted(2.0 * math.cos(2.0 * math.pi * k / n)
                    for n in range(3, max_n + 1) for k in range(n))
    points: List[float] = []
    for v in values:
        if not points or v - points[-1] > tol:
            points.append(v)
    gaps = [(n, 2.0 - 2.0 * math.cos(2.0 * math.pi / n)) for n in range(3, max_n + 1)]
    return points, gaps


def check_limit(p: dict, max_n: int, interval: Tuple[float, float]) -> List[str]:
    bad = []
    points, gaps = cycle_limit(max_n)
    if p.get("points_count") != len(points):
        bad.append(f"points_count={p.get('points_count')}, closed form gives {len(points)}")
    if p.get("points") is not None and (
            len(p["points"]) != len(points)
            or any(abs(a - b) > EIG_TOL for a, b in zip(p["points"], points))):
        bad.append("accumulated points differ from 2cos(2 pi k/n)")
    got = p.get("gaps") or []
    if len(got) != len(gaps) or any(
            e.get("index") != n or e.get("error") is not None or not _close(e.get("gap"), g)
            for e, (n, g) in zip(got, gaps)):
        bad.append("gaps differ from 2 - 2cos(2 pi/n)")
    lo, hi = interval
    anchors = [lo] + [x for x in points if lo <= x <= hi] + [hi]
    want = max(b - a for a, b in zip(anchors, anchors[1:]))
    if not _close(p.get("max_gap"), want):
        bad.append(f"max_gap={p.get('max_gap')}, closed form gives {want}")
    return bad


def check_verify(doc: dict) -> List[str]:
    p = doc.get("payload", {})
    if p.get("ok") is not True or not all(c.get("ok") for c in p.get("checks", [])):
        return ["verify reported a failing check"]
    return []


# ---------------------------------------------------------------------------
# networkx oracles (oracle-sweep, subset-scan)
# ---------------------------------------------------------------------------

def _nx():
    import networkx as nx  # imported late: only after every timed region
    return nx


def nx_graph(facts: Facts):
    nx = _nx()
    g = nx.Graph()
    g.add_nodes_from(range(facts.n))
    g.add_edges_from(facts.edges)
    return g


def nx_tutte_condition(facts: Facts) -> bool:
    """Truth of `o(G-A) <= |A|` for all nonempty A, via maximum matchings.

    Even n, connected: Tutte's theorem makes it a perfect matching.  Odd n:
    o(G-A) - |A| is odd, so the condition reads o(G-A) <= |A| - 1, which is
    factor-criticality (G - v has a perfect matching for every v).
    """
    nx = _nx()
    g = nx_graph(facts)
    if facts.n % 2 == 0:
        return len(nx.max_weight_matching(g, maxcardinality=True)) == facts.n // 2
    for v in range(facts.n):
        h = g.copy()
        h.remove_node(v)
        if len(nx.max_weight_matching(h, maxcardinality=True)) != (facts.n - 1) // 2:
            return False
    return True


def masks_to_facts(adj_masks: Sequence[int]) -> Facts:
    n = len(adj_masks)
    return Facts(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (adj_masks[u] >> v) & 1])


def check_class_counts(classes: Sequence[int], connected: Sequence[int]) -> List[str]:
    """Counts for n = 1, 2, ... against the classical values."""
    bad = []
    if tuple(classes) != CLASS_COUNTS[:len(classes)]:
        bad.append(f"class counts {list(classes)} != {list(CLASS_COUNTS[:len(classes)])}")
    if tuple(connected) != CONNECTED_COUNTS[:len(connected)] or len(connected) != len(classes):
        bad.append(f"connected counts {list(connected)} != {list(CONNECTED_COUNTS[:len(connected)])}")
    return bad


def _invariant(g) -> tuple:
    deg = dict(g.degree())
    return (g.number_of_nodes(), g.number_of_edges(),
            tuple(sorted((deg[v], tuple(sorted(deg[u] for u in g[v]))) for v in g)))


def check_atlas(classes_by_n: Dict[int, Sequence[Sequence[int]]]) -> List[str]:
    """Classes on n <= 7 vertices match graph_atlas_g() one to one."""
    nx = _nx()
    buckets: Dict[tuple, list] = {}
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() >= 1:
            buckets.setdefault(_invariant(g), []).append(g)
    unmatched = 0
    for n in range(1, 8):
        for masks in classes_by_n.get(n, ()):
            g = nx_graph(masks_to_facts(masks))
            pool = buckets.get(_invariant(g), [])
            hit = next((i for i, h in enumerate(pool) if nx.is_isomorphic(g, h)), None)
            if hit is None:
                unmatched += 1
            else:
                pool.pop(hit)
    left = sum(len(v) for v in buckets.values())
    if unmatched or left:
        return [f"atlas mismatch: {unmatched} classes unmatched, {left} atlas graphs left"]
    return []


def check_sweep_record(rec: dict, facts: Facts) -> List[str]:
    """One connected class: sandwich, independence bounds, bipartiteness,
    and the Tutte condition, against networkx where it applies."""
    bad = []
    nx = _nx()
    chi, wilf, hoffman = rec["chi"], rec["wilf"], rec["hoffman"]
    if not (hoffman is None or hoffman <= chi) or not chi <= wilf:
        bad.append(f"sandwich hoffman={hoffman} <= chi={chi} <= wilf={wilf} fails")
    proper, used = proper_palette(rec["colors"], facts)
    if not proper or used > wilf:
        bad.append("wilf coloring improper or above floor(M)+1")
    ratio = rec["alpha"] / facts.n
    for key in ("independence_bound", "mindeg_independence_bound"):
        if rec[key] is not None and ratio > rec[key] + 1e-9:
            bad.append(f"alpha/n={ratio} above {key}={rec[key]}")
    is_bip = nx.is_bipartite(nx_graph(facts))
    if rec["symmetric_spectrum"] is not is_bip or rec["bfs_bipartite"] is not is_bip:
        bad.append("bipartiteness disagrees with networkx")
    bad += check_tutte(rec["tutte"], facts, exhaustive=True,
                       classical=nx_tutte_condition(facts))
    return bad
