"""specbound benchmark: one command, three workloads.

    python3 perfbench/run.py --workload spectral-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src``; nothing is installed).  Each workload runs in a fresh interpreter as
a closed loop with one client: one process, one operation at a time, the BLAS
pool pinned to one thread.  The report lines name every metric with its unit;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a run with every layer function wrapped) with ``--trace 1``.
``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 2      # fresh interpreters timed to the first operation, before
                      # and again after the measuring worker
BLAS_THREADS = "1"    # see README: a 2-thread pool makes set-up time bimodal
WORKLOAD_DEADLINE_S = 170

# per-layer metrics in the result line: (name, unit, layer, field)
LAYER_METRICS = [
    ("cli.self_s", "s", "cli", "self_s"),
    ("graphs.load_edge_list.calls", "count", "graphs.load_edge_list", "calls"),
    ("graphs.load_edge_list.s", "s", "graphs.load_edge_list", "s"),
    ("graphs.components.calls", "count", "graphs.components", "calls"),
    ("graphs.components.s", "s", "graphs.components", "s"),
    ("graphs.components_within.calls", "count", "graphs.components_within", "calls"),
    ("graphs.components_within.s", "s", "graphs.components_within", "s"),
    ("spectral.matrix_build.calls", "count", "spectral.matrix_build", "calls"),
    ("spectral.matrix_build.s", "s", "spectral.matrix_build", "s"),
    ("spectral.matrix_build.bytes_computed", "B", "spectral.matrix_build", "bytes_computed"),
    ("spectral.eigensolve.calls", "count", "spectral.eigensolve", "calls"),
    ("spectral.eigensolve.s", "s", "spectral.eigensolve", "s"),
    ("spectral.eigensolve.flops_computed", "flop", "spectral.eigensolve", "flops_computed"),
    ("coloring.peel.calls", "count", "coloring.peel", "calls"),
    ("coloring.peel.layers", "count", "coloring.peel", "layers"),
    ("coloring.peel.s", "s", "coloring.peel", "s"),
    ("coloring.brute_chromatic.calls", "count", "coloring.brute_chromatic", "calls"),
    ("coloring.brute_independence.calls", "count", "coloring.brute_independence", "calls"),
    ("bipartite.spectral_test.calls", "count", "bipartite.spectral_test", "calls"),
    ("bipartite.bfs_oracle.calls", "count", "bipartite.bfs_oracle", "calls"),
    ("matching.tutte_scan.calls", "count", "matching.tutte_scan", "calls"),
    ("matching.tutte_scan.s", "s", "matching.tutte_scan", "s"),
    ("matching.subsets_scanned", "count", "matching.tutte_scan", "subsets_scanned"),
    ("matching.perfect_matching_oracle.calls", "count", "matching.perfect_matching_oracle", "calls"),
    ("limits.accumulate_spectra.calls", "count", "limits.accumulate_spectra", "calls"),
    ("limits.gap_persistence.calls", "count", "limits.gap_persistence", "calls"),
    ("enumeration.canonical_key.calls", "count", "enumeration.canonical_key", "calls"),
    ("enumeration.graph_masks.calls", "count", "enumeration.graph_masks", "calls"),
]


class BenchError(Exception):
    pass


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(spec: dict, mode: str, procs: list) -> float:
    """Spawn a fresh interpreter; return the seconds until it is 'ready'."""
    doc = json.dumps(dict(spec, mode=mode))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=worker_env(), cwd=str(ROOT), text=True)
    procs.append(proc)
    proc.stdin.write(doc)
    proc.stdin.close()
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        raise BenchError(f"{mode} worker did not become ready")
    return setup


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 probes: int) -> dict:
    """Run the workload, timing `probes` further set-ups in fresh
    interpreters before it and `probes` after it."""
    spec = workloads.build(name, seed)
    spec.update(seconds=seconds, trace=trace)
    setups: List[float] = []
    procs: List[subprocess.Popen] = []
    def probe():
        setups.append(start_worker(spec, "probe", procs))
        procs[-1].stdout.read()
        if procs[-1].wait() != 0:
            raise BenchError("set-up probe failed")

    try:
        for _ in range(probes):
            probe()
        setups.append(start_worker(spec, "run", procs))
        out = procs[-1].stdout.read()
        if procs[-1].wait() != 0 or not out.strip():
            raise BenchError(f"worker exited {procs[-1].returncode} without a result")
        for _ in range(probes):
            probe()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    result = json.loads(out.strip().splitlines()[-1])
    result["setups"] = setups
    return result


def best(xs: List[float]) -> float:
    """An operation's time in a run: the fastest of its rounds.  Interference
    from the rest of the machine only ever slows an operation down, and on a
    shared host it comes in phases longer than a round (see README)."""
    return min(xs) if xs else 0.0


def report(name: str, seed: int, seconds: int, trace: bool, res: dict) -> dict:
    """Print the report lines; return the result line's object."""
    ops = res["ops"]
    rounds = res["rounds"]
    attempted = sum(len(o["times"]) + len(o["traced_times"]) for o in ops)
    failed = sum(o["failed"] for o in ops)
    mismatches = sum(o["mismatches"] for o in ops)
    problems = res["problems"]
    correct = not problems and mismatches == 0

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  "
          f"blas_threads {BLAS_THREADS}  rounds {rounds}")
    for o in ops:
        print(f"  op {o['name']:<34} {best(o['times']):10.4f} s  best of "
              f"{len(o['times'])}  failed {o['failed']}  digest {(o['digest'] or '-')[:16]}")
    per_cmd: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    for o in ops:
        per_cmd[o["command"]] = per_cmd.get(o["command"], 0.0) + best(o["times"])
        samples[o["command"]] = samples.get(o["command"], 0) + len(o["times"])
    for cmd, total in per_cmd.items():
        print(f"  {cmd}_s {total:.4f} s  ({samples[cmd]} samples)")
    if name == "oracle-sweep":
        sweep_s = per_cmd.get("sweep", 0.0)
        rate = res["sweep_classes"] / sweep_s if sweep_s else 0.0
        print(f"  sweep_graphs_per_s {rate:.2f} graphs/s  ({res['sweep_classes']} "
              f"connected classes in {sweep_s:.4f} s)")
    solve_s = sum(best(o["times"]) for o in ops)
    setup_s = statistics.median(res["setups"])
    print(f"  solve_s {solve_s:.4f} s  (sum over {len(ops)} operations of the best round)")
    print(f"  setup_s {setup_s:.4f} s  (median of {len(res['setups'])} fresh interpreters)")
    print(f"  peak_rss_mb {res['rss_mb']:.2f} MB")
    print(f"  attempted {attempted}  failed {failed}  determinism_mismatches {mismatches}")
    for p in problems[:40]:
        print(f"  CHECK FAILED {p}")

    if not trace:
        metrics = {"solve_s": {"value": solve_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"}}
    else:
        metrics = layer_report(res)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_report(res: dict) -> dict:
    """Per-layer metrics from the traced rounds: counts from the first traced
    round (they repeat exactly), times as the median over traced rounds."""
    rounds = res["layers"]
    first = rounds[0]
    for r in rounds[1:]:
        for layer, tot in r.items():
            if tot["calls"] != first[layer]["calls"]:
                print(f"  NOTE layer {layer} call count differs between rounds")
    print("  layer                                calls        incl_s        self_s  counters")
    for layer in sorted(first):
        t = first[layer]
        extra = {k: v for k, v in t.items() if k not in ("calls", "s", "self_s")}
        incl = statistics.median([r[layer]["s"] for r in rounds])
        own = statistics.median([r[layer]["self_s"] for r in rounds])
        print(f"  {layer:<34} {int(t['calls']):>8}  {incl:12.4f}  {own:12.4f}  "
              + " ".join(f"{k}={v:.6g}" for k, v in sorted(extra.items())))
    for o in res["ops"]:
        if o["eigensolves"] is not None:
            print(f"  eigensolves {o['name']:<34} {o['eigensolves']}")
    untraced = best(res["round_s"])
    traced = best(res["traced_round_s"])
    overhead = 100.0 * (traced - untraced) / untraced
    print(f"  tracing overhead {overhead:.2f} %  (fastest round {traced:.4f} s traced "
          f"vs {untraced:.4f} s untraced)")
    metrics = {}
    for name, unit, layer, field in LAYER_METRICS:
        if unit == "s":
            value = statistics.median([r[layer].get(field, 0.0) for r in rounds])
        else:
            value = first[layer].get(field, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "specbound" / "cli.py").is_file():
        print(f"no specbound sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    def on_deadline(signum, frame):
        raise BenchError("workload exceeded its deadline")

    signal.signal(signal.SIGALRM, on_deadline)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        signal.alarm(WORKLOAD_DEADLINE_S)
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               0 if args.trace else SETUP_PROBES)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        line = report(name, args.seed, args.seconds, bool(args.trace), res)
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
