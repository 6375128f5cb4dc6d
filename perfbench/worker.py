"""One benchmark process: set up, warm up, run whole rounds, check outputs.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``; reads
its workload spec as one JSON document on stdin.  It prints ``ready`` once
set-up is done (``import specbound.cli``, reading the inputs, one untimed
warm-up call per command on a small fixture), then -- unless it is only a
set-up probe -- runs whole rounds of the workload's operations, one at a
time, until ``seconds`` have passed.  Outputs are checked after the last
round, outside every timed region, and one JSON result line ends the output.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import sys
from time import perf_counter
from typing import Dict, List

import numpy as np
from specbound import bipartite, cli, coloring, enumeration, matching, spectral
from specbound.graphs import Graph

import checks
import spans
from workloads import closed_form_norm

PRISTINE_ENUM_CACHE = dict(getattr(enumeration, "_CACHE", {}))


def cold_enumeration() -> None:
    """Drop enumeration's memoized class lists so the next call is cold."""
    cache = getattr(enumeration, "_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()
        cache.update(PRISTINE_ENUM_CACHE)
    clear = getattr(enumeration.graph_masks, "cache_clear", None)
    if clear is not None:
        clear()


def bit_list(mask: int) -> List[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# oracle sweep: every connected class against every oracle
# ---------------------------------------------------------------------------

def connected_masks(adj_masks) -> bool:
    n = len(adj_masks)
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bit_list(frontier):
            nxt |= adj_masks[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def sweep_inputs(classes: Dict[int, list], seed: int) -> Dict[int, list]:
    """Connected classes per n, each relabeled by a seeded permutation."""
    out = {}
    for n, masks in classes.items():
        rng = random.Random(seed * 1000003 + n)
        graphs = []
        for adj in masks:
            if not connected_masks(adj):
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            es = sorted(tuple(sorted((perm[u], perm[v])))
                        for u in range(n) for v in range(u + 1, n) if (adj[u] >> v) & 1)
            graphs.append(Graph(n, es))
        out[n] = graphs
    return out


def sweep_one(g: Graph):
    return (spectral.bounds(g), coloring.wilf_color(g),
            coloring.brute_force_chromatic(g), coloring.brute_force_independence(g),
            bipartite.spectral_bipartite_test(g), bipartite.bfs_bipartition_oracle(g),
            matching.tutte_scan(g))


def sweep_record(raw) -> dict:
    b, col, chi, (alpha, _), verdict, bfs, t = raw
    return {
        "wilf": b.wilf, "hoffman": b.hoffman,
        "independence_bound": b.independence_bound,
        "mindeg_independence_bound": b.mindeg_independence_bound,
        "colors": list(col.colors), "chi": chi, "alpha": alpha,
        "symmetric_spectrum": verdict.symmetric_spectrum,
        "bfs_bipartite": bfs is not None,
        "tutte": {"c_star": t.c_star, "witness": bit_list(t.witness),
                  "classical_holds": t.classical_holds,
                  "strict_holds": t.strict_holds, "scanned": t.scanned,
                  "matching": [list(e) for e in t.matching] if t.matching is not None else None},
    }


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, spec: dict):
        self.spec = spec
        self.inputs = spec["inputs"]
        self.ops = spec["ops"]
        self.sweep_graphs: Dict[int, list] = {}
        self.first: Dict[str, object] = {}   # round-1 output per operation
        self.digests: Dict[str, str] = {}    # round-1 digest per operation
        self.times: Dict[str, List[float]] = {op["name"]: [] for op in self.ops}
        self.traced_times: Dict[str, List[float]] = {op["name"]: [] for op in self.ops}
        self.failed: Dict[str, int] = {op["name"]: 0 for op in self.ops}
        self.mismatches: Dict[str, int] = {op["name"]: 0 for op in self.ops}
        self.op_eigensolves: Dict[str, int] = {}

    def warm_up(self) -> None:
        fixture = self.spec["fixture"]
        for argv in self.spec["warmup"]:
            cli.run(argv, fixture, io.StringIO())
        if any(op["kind"] == "sweep" for op in self.ops):
            for n in (1, 2, 3):
                enumeration.graph_masks(n)
            for g in sweep_inputs({3: enumeration.graph_masks(3)}, 0)[3]:
                sweep_one(g)
            cold_enumeration()

    def run_op(self, op: dict):
        """Time one operation; return (seconds, failed, output, canonical text)."""
        kind = op["kind"]
        if kind == "cli":
            buf = io.StringIO()
            text = self.inputs[op["input"]] if op["input"] else None
            t0 = perf_counter()
            try:
                rc = cli.run(op["argv"], text, buf)
            except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
                rc = repr(exc)
            dt = perf_counter() - t0
            out = buf.getvalue()
            try:
                doc = json.loads(out)
            except ValueError:
                doc = None
            ok = (rc == 0 and out.count("\n") == 1 and out.endswith("\n")
                  and isinstance(doc, dict) and "error" not in doc)
            return dt, not ok, doc, out
        if kind == "enumerate":
            cold_enumeration()
            t0 = perf_counter()
            classes = {n: enumeration.graph_masks(n) for n in range(1, op["max_n"] + 1)}
            dt = perf_counter() - t0
            self.sweep_graphs = sweep_inputs(classes, self.spec["relabel_seed"])
            return dt, False, classes, repr(sorted(classes.items()))
        graphs = self.sweep_graphs.get(op["n"], [])
        t0 = perf_counter()
        raw = [sweep_one(g) for g in graphs]
        dt = perf_counter() - t0
        recs = [sweep_record(r) for r in raw]
        return dt, not graphs, (graphs, recs), json.dumps(recs, sort_keys=True)

    def run_round(self, tracer=None) -> float:
        t_round = perf_counter()
        for op in self.ops:
            name = op["name"]
            before = tracer.totals["spectral.eigensolve"]["calls"] if tracer else 0
            try:
                dt, failed, output, text = self.run_op(op)
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                print(f"operation {name} raised {exc!r}", file=sys.stderr)
                dt, failed, output, text = 0.0, True, None, ""
            (self.traced_times if tracer else self.times)[name].append(dt)
            if tracer and name not in self.op_eigensolves:
                self.op_eigensolves[name] = int(tracer.totals["spectral.eigensolve"]["calls"] - before)
            if failed:
                self.failed[name] += 1
                continue
            d = digest(text)
            if name not in self.digests:
                self.digests[name] = d
                self.first[name] = output
            elif d != self.digests[name]:
                self.mismatches[name] += 1
        return perf_counter() - t_round

    # -- checks on the round-1 outputs ------------------------------------

    def check(self) -> List[str]:
        problems: List[str] = []
        meta = self.spec["meta"]
        facts = {name: checks.Facts.from_text(text) for name, text in self.inputs.items()}
        for op in self.ops:
            name = op["name"]
            if name not in self.first:
                continue
            out = self.first[name]
            try:
                found = self.check_op(op, out, facts, meta)
            except Exception as exc:  # noqa: BLE001 - a checker crash is a failed check
                found = [f"checker raised {exc!r}"]
            problems += [f"{name}: {p}" for p in found]
        return problems

    def check_op(self, op, out, facts, meta) -> List[str]:
        kind, command = op["kind"], op["command"]
        if kind == "enumerate":
            counts = [len(out[n]) for n in sorted(out)]
            connected = [sum(1 for a in out[n] if connected_masks(a)) for n in sorted(out)]
            return checks.check_class_counts(counts, connected) + checks.check_atlas(out)
        if kind == "sweep":
            graphs, recs = out
            bad = []
            for g, rec in zip(graphs, recs):
                bad += checks.check_sweep_record(rec, checks.Facts(g.n, g.edges()))
            return bad[:20]
        if command == "verify":
            return checks.check_verify(out)
        if command == "limit":
            argv = op["argv"]
            max_n = int(argv[argv.index("--max-n") + 1])
            lo, hi = (float(x) for x in argv[-1].split("=", 1)[1].split(","))
            return checks.check_limit(out["payload"], max_n, (lo, hi))
        p = out["payload"]
        f = facts[op["input"]]
        m = meta[op["input"]]
        if command == "tutte":
            exhaustive = "exhaustive" in op["argv"]
            truth = checks.nx_tutte_condition(f) if exhaustive else None
            return checks.check_tutte(p, f, exhaustive, truth)
        if command == "color" and "brute" in op["argv"]:
            return checks.check_color_brute(p, f)
        if command == "bipartite":
            return checks.check_bipartite(p, f)
        norm = norm_of(m, f)
        if command == "color":
            return checks.check_color_wilf(p, f, norm)
        if command == "spectrum":
            return checks.check_spectrum(p, f, norm, m["kind"])
        if command == "bounds":
            return checks.check_bounds(p, f, norm)
        return [f"no checker for {command}"]


def norm_of(meta: dict, facts: checks.Facts) -> float:
    if meta["kind"] in ("regular", "subdivision", "path"):
        return closed_form_norm(meta)
    if facts.regular:
        return float(facts.degrees[0])
    a = np.zeros((facts.n, facts.n))
    for u, v in facts.edges:
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def main() -> int:
    spec = json.load(sys.stdin)
    runner = Runner(spec)
    runner.warm_up()
    print("ready", flush=True)
    if spec["mode"] == "probe":
        return 0

    tracer = spans.Tracer() if spec["trace"] else None
    round_s: List[float] = []
    traced_round_s: List[float] = []
    layer_rounds: List[dict] = []
    deadline = perf_counter() + spec["seconds"]
    while True:
        round_s.append(runner.run_round())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced_round_s.append(runner.run_round(tracer))
            finally:
                tracer.uninstall()
            layer_rounds.append(tracer.snapshot())
        if perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = runner.check()
    result = {
        "rounds": len(round_s),
        "round_s": round_s,
        "traced_round_s": traced_round_s,
        "rss_mb": rss_mb,
        "ops": [{"name": op["name"], "command": op["command"],
                 "times": runner.times[op["name"]],
                 "traced_times": runner.traced_times[op["name"]],
                 "failed": runner.failed[op["name"]],
                 "mismatches": runner.mismatches[op["name"]],
                 "digest": runner.digests.get(op["name"]),
                 "eigensolves": runner.op_eigensolves.get(op["name"])}
                for op in runner.ops],
        "sweep_classes": sum(len(v) for v in runner.sweep_graphs.values()),
        "problems": problems,
        "layers": layer_rounds,
    }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
