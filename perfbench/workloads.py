"""Seeded inputs and operation lists for the three benchmark workloads.

Standard library only: the inputs are built here, by the benchmark, and the
program under test receives nothing but edge-list text.  The same seed always
gives the same inputs.  Every graph is relabeled by a seeded permutation, so
two seeds exercise the same shapes under different vertex orders.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

Edges = List[Tuple[int, int]]

WORKLOADS = ("spectral-large", "oracle-sweep", "subset-scan")

# Small fixture for the untimed warm-up calls: the Petersen graph.
PETERSEN: Edges = ([(i, (i + 1) % 5) for i in range(5)]
                   + [(i, i + 5) for i in range(5)]
                   + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])

SPECTRAL_COMMANDS = {
    "spectrum": ["spectrum"],
    "bounds": ["bounds"],
    "color": ["color", "--algorithm", "wilf"],
    "bipartite": ["bipartite"],
    "tutte": ["tutte", "--mode", "randomized"],
}


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

def edge_list_text(n: int, edges: Edges) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append((a, b) if a < b else (b, a))
    return sorted(out)


def _matching_avoiding(left: Sequence[int], right: Sequence[int],
                       taken: set, rng: random.Random) -> Edges:
    """A uniformly drawn perfect matching left -> right that avoids `taken`."""
    right = list(right)
    while True:
        rng.shuffle(right)
        pairs = [(u, v) if u < v else (v, u) for u, v in zip(left, right)]
        if not any(p in taken for p in pairs):
            return pairs


def hamiltonian_cubic(n: int, rng: random.Random) -> Edges:
    """Connected 3-regular graph: a Hamiltonian cycle plus a perfect matching."""
    order = list(range(n))
    rng.shuffle(order)
    cyc = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    half = n // 2
    while True:
        rng.shuffle(order)
        pairs = {tuple(sorted((order[2 * i], order[2 * i + 1]))) for i in range(half)}
        if not pairs & cyc:
            return sorted(cyc | pairs)


def bipartite_cubic(n: int, rng: random.Random) -> Edges:
    """Connected 3-regular bipartite graph on sides 0..n/2-1 and n/2..n-1:
    an alternating Hamiltonian cycle plus a perfect matching across."""
    k = n // 2
    left = list(range(k))
    right = list(range(k, n))
    rng.shuffle(left)
    rng.shuffle(right)
    cyc = set()
    for i in range(k):
        cyc.add((left[i], right[i]))
        cyc.add((left[(i + 1) % k], right[i]))
    cyc = {(u, v) if u < v else (v, u) for u, v in cyc}
    return sorted(cyc | set(_matching_avoiding(left, right, cyc, rng)))


def subdivided(n: int, edges: Edges) -> Tuple[int, Edges]:
    """Replace every edge by a path of length two (midpoints n, n+1, ...)."""
    out = []
    for k, (u, v) in enumerate(sorted(edges)):
        out.append((u, n + k))
        out.append((v, n + k))
    return n + len(edges), out


def subdivided_edge(n: int, edges: Edges, rng: random.Random) -> Tuple[int, Edges]:
    """Put one new vertex n in the middle of a random edge: odd order, and
    otherwise the shape of the input."""
    edges = list(edges)
    u, v = edges.pop(rng.randrange(len(edges)))
    return n + 1, sorted(edges + [(u, n), (v, n)])


def path_edges(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def random_connected(n: int, extra: int, rng: random.Random) -> Edges:
    """Random spanning tree plus `extra` further random edges."""
    es = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in es]
    es.update(rng.sample(rest, min(extra, len(rest))))
    return sorted(es)


def tutte_obstruction(sizes: Sequence[int], rng: random.Random) -> Tuple[int, Edges]:
    """A connected graph with a Tutte set: one hub vertex per two odd blocks.

    Vertex set: ``len(sizes) // 2`` hub vertices, then one random connected
    block per size.  Deleting the hubs leaves every block as a component, so
    with more odd blocks than hubs no perfect matching exists.
    """
    hubs = max(1, len(sizes) // 2)
    n = hubs + sum(sizes)
    es = set()
    start = hubs
    for size in sizes:
        for u, v in random_connected(size, size // 2, rng):
            es.add((start + u, start + v))
        for h in range(hubs):
            if h == 0 or rng.random() < 0.5:
                es.add((h, start + rng.randrange(size)))
        start += size
    for h in range(1, hubs):
        es.add((0, h))
    return n, sorted(es)


def clebsch() -> Tuple[int, Edges]:
    """Folded 5-cube: 4-bit words, adjacent at Hamming distance 1 or 4."""
    es = [(u, v) for u in range(16) for v in range(u + 1, 16)
          if bin(u ^ v).count("1") in (1, 4)]
    return 16, es


def grotzsch() -> Tuple[int, Edges]:
    """Mycielskian of C5: cycle 0..4, shadows 5..9, apex 10."""
    es = set()
    for i in range(5):
        a, b = i, (i + 1) % 5
        es.add(tuple(sorted((a, b))))
        es.add(tuple(sorted((a, 5 + b))))
        es.add(tuple(sorted((b, 5 + a))))
        es.add((5 + i, 10))
    return 11, sorted(es)


def chvatal() -> Tuple[int, Edges]:
    """The Chvatal graph: 12 vertices, 4-regular, triangle-free, chi = 4."""
    adj = {0: (1, 4, 6, 9), 1: (2, 5, 7), 2: (3, 6, 8), 3: (4, 7, 9),
           4: (5, 8), 5: (10, 11), 6: (10, 11), 7: (8, 11), 8: (10,),
           9: (10, 11)}
    return 12, sorted((u, v) for u, vs in adj.items() for v in vs)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _graph_input(inputs, meta, name, n, edges, rng, **info):
    edges = relabel(n, edges, rng)
    inputs[name] = edge_list_text(n, edges)
    meta[name] = dict(info, n=n)


def _cli_op(name: str, command: str, argv: List[str], inp=None) -> dict:
    return {"name": name, "kind": "cli", "command": command, "argv": argv,
            "input": inp}


def spectral_large(seed: int) -> dict:
    rng = random.Random(seed)
    inputs: Dict[str, str] = {}
    meta: Dict[str, dict] = {}
    for n in (250, 500, 1000):
        _graph_input(inputs, meta, f"cubic-{n}", n, hamiltonian_cubic(n, rng),
                     rng, kind="regular", d=3)
    _graph_input(inputs, meta, "bipartite-cubic-1000", 1000,
                 bipartite_cubic(1000, rng), rng, kind="regular", d=3)
    sub_n, sub_edges = subdivided(400, hamiltonian_cubic(400, rng))
    _graph_input(inputs, meta, "subdivided-cubic-400", sub_n, sub_edges, rng,
                 kind="subdivision", d=3)
    _graph_input(inputs, meta, "path-1000", 1000, path_edges(1000), rng,
                 kind="path")

    plan = {
        "cubic-250": ("spectrum", "bounds", "color", "bipartite", "tutte"),
        "cubic-500": ("spectrum", "bounds", "color", "bipartite", "tutte"),
        "cubic-1000": ("spectrum", "bounds", "color", "bipartite"),
        "bipartite-cubic-1000": ("spectrum", "bipartite"),
        "subdivided-cubic-400": ("spectrum", "bounds", "bipartite"),
        "path-1000": ("spectrum", "color"),
    }
    ops = []
    for inp, commands in plan.items():
        for c in commands:
            argv = list(SPECTRAL_COMMANDS[c])
            if c == "tutte":
                argv += ["--seed", str(rng.randrange(1 << 30))]
            ops.append(_cli_op(f"{inp}/{c}", c, argv, inp))
    ops.append(_cli_op("cycles-256/limit", "limit",
                       ["limit", "--family", "cycle", "--max-n", "256",
                        "--interval=-2,2"]))
    warmup = [["spectrum"], ["bounds"], ["color", "--algorithm", "wilf"],
              ["bipartite"], ["tutte", "--mode", "randomized"],
              ["limit", "--max-n", "8"]]
    return {"inputs": inputs, "meta": meta, "ops": ops, "warmup": warmup}


SWEEP_MAX_N = 7  # see README: a cold n = 8 round takes ~25 s, one per run


def oracle_sweep(seed: int) -> dict:
    ops = [{"name": "enumerate", "kind": "enumerate", "command": "enum",
            "max_n": SWEEP_MAX_N}]
    ops += [{"name": f"sweep-n{n}", "kind": "sweep", "command": "sweep", "n": n}
            for n in range(1, SWEEP_MAX_N + 1)]
    ops.append(_cli_op("verify", "verify", ["verify"]))
    return {"inputs": {}, "meta": {}, "ops": ops, "warmup": [["verify"]],
            "relabel_seed": seed}


def subset_scan(seed: int) -> dict:
    rng = random.Random(seed)
    inputs: Dict[str, str] = {}
    meta: Dict[str, dict] = {}
    _graph_input(inputs, meta, "matching-16", 16, hamiltonian_cubic(16, rng),
                 rng, kind="matching")
    _graph_input(inputs, meta, "matching-18", 18, hamiltonian_cubic(18, rng),
                 rng, kind="matching")
    n, es = tutte_obstruction((5, 5, 7), rng)
    _graph_input(inputs, meta, "obstruction-18", n, es, rng, kind="obstruction")
    for n in (17, 19):
        sub_n, sub_es = subdivided_edge(n - 1, hamiltonian_cubic(n - 1, rng), rng)
        _graph_input(inputs, meta, f"odd-{n}", sub_n, sub_es, rng, kind="odd")
    ops = [_cli_op(f"{name}/tutte", "tutte", ["tutte", "--mode", "exhaustive"], name)
           for name in list(inputs)]
    for name, (gn, ges) in (("clebsch", clebsch()), ("grotzsch", grotzsch()),
                            ("chvatal", chvatal())):
        _graph_input(inputs, meta, name, gn, ges, rng, kind="named")
        ops.append(_cli_op(f"{name}/color-brute", "color",
                           ["color", "--algorithm", "brute"], name))
        ops.append(_cli_op(f"{name}/color-wilf", "color",
                           ["color", "--algorithm", "wilf"], name))
    warmup = [["tutte", "--mode", "exhaustive"], ["color", "--algorithm", "brute"],
              ["color", "--algorithm", "wilf"]]
    return {"inputs": inputs, "meta": meta, "ops": ops, "warmup": warmup}


def build(workload: str, seed: int) -> dict:
    spec = {"spectral-large": spectral_large, "oracle-sweep": oracle_sweep,
            "subset-scan": subset_scan}[workload](seed)
    spec["fixture"] = edge_list_text(10, PETERSEN)
    return spec


def closed_form_norm(meta: dict) -> float:
    """Largest adjacency eigenvalue M where the shape fixes it exactly."""
    if meta["kind"] == "regular":
        return float(meta["d"])
    if meta["kind"] == "subdivision":
        return math.sqrt(2.0 * meta["d"])
    if meta["kind"] == "path":
        return 2.0 * math.cos(math.pi / (meta["n"] + 1))
    raise KeyError(meta["kind"])
