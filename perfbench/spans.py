"""In-memory span tracer for the traced benchmark runs.

Each layer function is wrapped at every place it is bound (the defining
module and every ``specbound`` module that imported it by name, as ``cli``
imports ``bounds`` and ``tutte_scan``), so calls made through any of those
names are seen.
A span is one outermost call of a layer: a call made while the same layer is
already open (recursion, or ``laplacian_matrix`` building its adjacency
matrix) belongs to the open span.  Spans are folded into per-layer totals as
they close -- calls, inclusive seconds, and self seconds (inclusive minus the
time covered by child spans) -- plus the layer's work counters, and written
out when the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _matrix_bytes(args, result) -> Dict[str, float]:
    return {"bytes_computed": float(result.nbytes)}


def _eig_flops(args, result) -> Dict[str, float]:
    n = args[0].shape[0]
    return {"flops_computed": 4.0 * n ** 3 / 3.0}


def _peel_layers(args, result) -> Dict[str, float]:
    return {"layers": float(len(result.layers))}


def _subsets(args, result) -> Dict[str, float]:
    return {"subsets_scanned": float(result.scanned)}


# (module, attribute, layer, counter): the layer boundaries of the package.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("specbound.cli", "run", "cli", None),
    ("specbound.graphs", "load_edge_list", "graphs.load_edge_list", None),
    ("specbound.graphs", "components", "graphs.components", None),
    ("specbound.graphs", "components_within", "graphs.components_within", None),
    ("specbound.spectral", "adjacency_matrix", "spectral.matrix_build", _matrix_bytes),
    ("specbound.spectral", "laplacian_matrix", "spectral.matrix_build", _matrix_bytes),
    ("numpy.linalg", "eigvalsh", "spectral.eigensolve", _eig_flops),
    ("numpy.linalg", "eigh", "spectral.eigensolve", _eig_flops),
    ("specbound.coloring", "peel_by_threshold", "coloring.peel", _peel_layers),
    ("specbound.coloring", "brute_force_chromatic", "coloring.brute_chromatic", None),
    ("specbound.coloring", "brute_force_independence", "coloring.brute_independence", None),
    ("specbound.bipartite", "spectral_bipartite_test", "bipartite.spectral_test", None),
    ("specbound.bipartite", "bfs_bipartition_oracle", "bipartite.bfs_oracle", None),
    ("specbound.matching", "tutte_scan", "matching.tutte_scan", _subsets),
    ("specbound.matching", "perfect_matching_oracle", "matching.perfect_matching_oracle", None),
    ("specbound.limits", "accumulate_spectra", "limits.accumulate_spectra", None),
    ("specbound.limits", "gap_persistence", "limits.gap_persistence", None),
    ("specbound.enumeration", "canonical_key", "enumeration.canonical_key", None),
    ("specbound.enumeration", "graph_masks", "enumeration.graph_masks", None),
]

LAYERS = sorted({t[2] for t in TARGETS})


class Tracer:
    """Wraps the layer functions while installed; folds spans into totals."""

    def __init__(self):
        self.patches: List[Tuple[object, str, object]] = []
        self.open_depth: Dict[str, int] = {}
        self.stack: List[List[float]] = []  # [child seconds] per open span
        self.reset()

    def reset(self) -> None:
        self.totals: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0.0, "s": 0.0, "self_s": 0.0} for layer in LAYERS}

    def _wrap(self, fn, layer: str, counter):
        depth = self.open_depth
        stack = self.stack

        def traced(*args, **kwargs):
            if depth.get(layer):
                return fn(*args, **kwargs)
            depth[layer] = 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                depth[layer] = 0
                tot = self.totals[layer]
                tot["calls"] += 1
                tot["s"] += dt
                tot["self_s"] += dt - frame[0]
            if counter is not None:
                tot = self.totals[layer]
                for key, value in counter(args, result).items():
                    tot[key] = tot.get(key, 0.0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "specbound" or name.startswith("specbound."))]
        for mod_name, attr, layer, counter in TARGETS:
            home = sys.modules.get(mod_name)
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                continue  # the layer function is gone; its metrics read 0
            wrapper = self._wrap(fn, layer, counter)
            for mod in [home] + modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self.patches.append((mod, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self.patches):
            setattr(mod, name, fn)
        self.patches.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {layer: dict(v) for layer, v in self.totals.items()}
