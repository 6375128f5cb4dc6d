"""Command-line front end.

Graphs travel between commands as edge-list text on stdin/stdout, so
subcommands compose with ordinary shell pipes::

    specbound gen --cycle 5 | specbound spectrum
    specbound gen --paley | specbound color --algorithm function

Analysis commands emit exactly one JSON report per run::

    {"command": ..., "input_digest": ..., "payload": ..., "version": ...}

with keys sorted and every real number rounded to 12 significant digits, so
identical invocations produce byte-identical output.  Exit codes: 0 success,
2 malformed usage or input, 3 a size cap was exceeded, 4 an internal fault
(``InternalError``: one of specbound's own consistency checks failed, or any
other exception, such as ``MemoryError``, reported by its ``repr``; the
program, not the input, is at fault), so no run ends in a traceback.  ``verify`` sweeps the quick tier of
the invariant registry (:mod:`specbound.invariants`) and exits 0 only if
every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from typing import Any, Dict, List, Optional

from . import __version__, invariants, spectral
from .bipartite import spectral_bipartite_test
from .coloring import (_check_brute, brute_force_chromatic, function_graph_color,
                       min_degree_peel_color)
from .generators import (complete, complete_bipartite, cycle,
                         function_graph, paley_tournament, path, petersen,
                         random_regular, subdivide)
from .graphs import (CapExceeded, InternalError, bits, canonical_digest,
                     dump_directed_edge_list, dump_edge_list,
                     load_directed_edge_list, load_edge_list)
from .limits import accumulate_spectra, max_gap
from .matching import _check_exhaustive, tutte_scan
from .spectral import (TOL, _check_dense, adjacency_spectrum, bounds, laplacian_spectrum,
                       norm_floor, snapped_floor)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse failures to exit code 2
        raise UsageError(message)


def tolerance(text: str) -> float:
    """``--tol``: a finite positive real."""
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, not {text!r}")
    return x


# 10^5 draws took 2.0 s and 38 MB on a 500-vertex cubic graph (2-core host);
# the sampler keeps every distinct draw, so the cap bounds memory as well
MAX_SAMPLES = 100_000


def sample_count(text: str) -> int:
    """``--samples``: an integer from 0 to MAX_SAMPLES."""
    k = int(text)
    if not 0 <= k <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be in 0..{MAX_SAMPLES}, not {text!r}")
    return k


def threshold(text: str) -> float:
    """``--threshold``: a finite real."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return x


def _round_reals(obj: Any) -> Any:
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_reals(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_reals(v) for v in obj]
    return obj


def _report(command: str, digest: str, payload: Dict[str, Any]) -> str:
    """The report line.  A payload is the fields of the command's report
    dataclass, read with ``vars``, plus the keys the report does not hold;
    ``dataclasses.asdict``, which deep-copies each value, cost 4.9 us per
    ``limit`` gap entry against 0.15 us and raised the peak RSS of 650
    rounds of exhaustive ``tutte`` scans by 0.5 MB (x86-64, CPython 3.11)."""
    doc = {"command": command, "input_digest": digest,
           "payload": _round_reals(payload), "version": __version__}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _error_json(code: str, message: str) -> str:
    doc = {"error": {"code": code, "message": message}, "version": __version__}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _read_text(args, stdin_text: Optional[str]) -> str:
    """The input text; an ``--input`` path that cannot be read (missing, a
    directory, no permission) is bad input, reported with the OS's message."""
    if getattr(args, "input", None):
        try:
            with open(args.input, "r") as fh:
                return fh.read()
        except OSError as exc:
            raise ValueError(str(exc)) from exc
    if stdin_text is not None:
        return stdin_text
    return sys.stdin.read()


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _gen_order(n: int) -> int:
    """``n``, the order of the graph ``gen`` is about to build, once it is
    within the dense cap, the largest graph the spectral commands read."""
    if n > spectral.MAX_DENSE_N:
        raise CapExceeded(f"gen capped at n={spectral.MAX_DENSE_N}, the dense cap")
    return n


def _cmd_gen(args, stdin_text, out) -> int:
    picked = [name for name in ("cycle", "path", "complete", "complete_bipartite",
                                "petersen", "paley", "random_regular",
                                "function_graph", "subdivide")
              if getattr(args, name) is not None]
    if len(picked) != 1:
        raise UsageError("gen needs exactly one constructor flag")
    name = picked[0]
    if name == "cycle":
        g = cycle(_gen_order(args.cycle))
    elif name == "path":
        g = path(_gen_order(args.path))
    elif name == "complete":
        g = complete(_gen_order(args.complete))
    elif name == "complete_bipartite":
        a, b = args.complete_bipartite
        _gen_order(a + b)
        g = complete_bipartite(a, b)
    elif name == "petersen":
        g = petersen()
    elif name == "random_regular":
        n, d = args.random_regular
        g = random_regular(_gen_order(n), d, args.seed)
    elif name == "subdivide":
        g = load_edge_list(_read_text(args, stdin_text), _gen_order)
        _gen_order(g.n + g.m)
        g = subdivide(g)
    elif name == "paley":
        out.write(dump_directed_edge_list(paley_tournament()))
        return 0
    else:  # function_graph
        maps = []
        for part in args.function_graph.split(";"):
            try:
                maps.append([int(tok) for tok in part.split(",")])
            except ValueError as exc:
                raise UsageError(f"bad map spec {part!r}") from exc
        _gen_order(len(maps[0]))
        out.write(dump_directed_edge_list(function_graph(maps)))
        return 0
    out.write(dump_edge_list(g))
    return 0


def _cmd_bounds(args, stdin_text, out) -> int:
    """``bounds`` and ``spectrum``: ``bounds(g, tol)`` with n and d; ``spectrum``
    prints the two spectra in place of the two independence bounds."""
    g = load_edge_list(_read_text(args, stdin_text), _check_dense)
    spectra = {"spectrum_adj": adjacency_spectrum(g), "spectrum_lap": laplacian_spectrum(g)}
    try:  # the spectra are kept on g, so only the gap's precondition can fail here
        payload = {"n": g.n, "d": g.max_degree, **vars(bounds(g, args.tol))}
    except ValueError as exc:
        raise UsageError(f"--tol {args.tol!r}: {exc}") from exc
    if args.command == "spectrum":
        del payload["independence_bound"], payload["mindeg_independence_bound"]
        payload.update(spectra)
    out.write(_report(args.command, canonical_digest(g), payload))
    return 0


def _cmd_color(args, stdin_text, out) -> int:
    algo = args.algorithm
    if algo == "function":
        d = load_directed_edge_list(_read_text(args, stdin_text), _check_dense)
        digest = hashlib.sha256(dump_directed_edge_list(d).encode()).hexdigest()
        g, palette = d.underlying(), 2 * d.n_functions + 1
        coloring = function_graph_color(d)
    else:
        g = load_edge_list(_read_text(args, stdin_text),
                           _check_brute if algo == "brute" else _check_dense)
        digest = canonical_digest(g)
        if algo == "brute":
            out.write(_report("color", digest,
                              {"algorithm": algo, "chromatic": brute_force_chromatic(g)}))
            return 0
        if algo == "wilf":  # else mindeg: argparse allows no other choice
            bound = norm_floor(g)
        elif args.threshold is None:
            raise UsageError("--algorithm mindeg needs --threshold")
        elif args.threshold > g.n:  # no graph needs more colours than vertices
            raise UsageError(f"--threshold {args.threshold!r} exceeds the {g.n} vertices")
        else:
            bound = args.threshold
        palette = snapped_floor(bound) + 1
        coloring = min_degree_peel_color(g, bound)
    payload = {"algorithm": algo, "palette_bound": palette, "colors": coloring.colors,
               "palette_used": coloring.palette_size, "proper": coloring.proper(g)}
    out.write(_report("color", digest, payload))
    return 0


def _cmd_bipartite(args, stdin_text, out) -> int:
    g = load_edge_list(_read_text(args, stdin_text), _check_dense)
    v = spectral_bipartite_test(g, args.tol)
    payload = {**vars(v), "defect": [],  # no vertex is undecided in a printed bipartition
               "bipartition": [list(bits(s)) for s in v.bipartition] if v.bipartition else None}
    out.write(_report("bipartite", canonical_digest(g), payload))
    return 0


def _cmd_tutte(args, stdin_text, out) -> int:
    g = load_edge_list(_read_text(args, stdin_text),
                       _check_exhaustive if args.mode == "exhaustive" else _check_dense)
    r = tutte_scan(g, mode=args.mode, seed=args.seed, samples=args.samples,
                   tol=args.tol)
    payload = {**vars(r), "witness": list(bits(r.witness))}
    out.write(_report("tutte", canonical_digest(g), payload))
    return 0


def _cmd_limit(args, stdin_text, out) -> int:
    if args.family != "cycle":
        raise UsageError(f"unknown family {args.family!r}")
    try:
        lo_s, hi_s = args.interval.split(",")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise UsageError(f"bad interval {args.interval!r}; want LO,HI") from exc
    if not math.isfinite(hi - lo):  # false for an infinite or NaN end, too
        raise UsageError(f"bad interval {args.interval!r}; LO, HI and HI - LO must be finite")
    if not lo < hi:
        raise UsageError(f"bad interval {args.interval!r}; want LO < HI")
    _check_dense(args.max_n)  # caps the total work: about max_n^2 / 2 eigenvalues
    acc = accumulate_spectra(args.max_n, args.tol)
    payload = {
        "family": args.family,
        "max_index": args.max_n,
        "interval": [lo, hi],
        "points_count": len(acc.points),
        "points": list(acc.points) if len(acc.points) <= 512 else None,
        "max_gap": max_gap(acc, (lo, hi)),
        "gaps": [vars(e) for e in acc.gaps],
    }
    digest_src = f"family={args.family};max_n={args.max_n};interval={lo},{hi}"
    out.write(_report("limit", hashlib.sha256(digest_src.encode()).hexdigest(), payload))
    return 0


def _cmd_verify(args, stdin_text, out) -> int:
    checks = invariants.verify("quick")
    ok = all(c[1] for c in checks)
    payload = {"ok": ok, "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in checks]}
    out.write(_report("verify", hashlib.sha256(b"builtin-fixtures").hexdigest(), payload))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process and never changed: building one
    took 1.7 ms on a 2-core host and left about 380 objects in reference
    cycles (argparse's help formatters), which piled up until the cyclic
    collector ran."""
    p = _Parser(prog="specbound", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, inp=True):
        if inp:
            sp.add_argument("--input", help="edge-list file (default: stdin)")
        sp.add_argument("--tol", type=tolerance, default=TOL,
                        help="numeric tolerance (default 1e-9)")

    sp = sub.add_parser("gen", help="emit a generated graph as edge-list text")
    sp.add_argument("--cycle", type=int)
    sp.add_argument("--path", type=int)
    sp.add_argument("--complete", type=int)
    sp.add_argument("--complete-bipartite", dest="complete_bipartite",
                    type=int, nargs=2, metavar=("A", "B"))
    # the flags default to None, not False, so that an unset flag and a
    # number flag given 0 (an error of its generator's own) stay apart
    sp.add_argument("--petersen", action="store_true", default=None)
    sp.add_argument("--paley", action="store_true", default=None)
    sp.add_argument("--random-regular", dest="random_regular", type=int,
                    nargs=2, metavar=("N", "D"))
    sp.add_argument("--function-graph", dest="function_graph",
                    help="semicolon-separated maps, e.g. '1,2,0;2,0,1'")
    sp.add_argument("--subdivide", action="store_true", default=None,
                    help="subdivide the input graph (reads --input/stdin)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--input", help="edge-list file (for --subdivide)")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("spectrum", help="adjacency/Laplacian spectra and extremes")
    add_common(sp)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("bounds", help="spectral coloring/matching bounds")
    add_common(sp)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("color", help="peeling-based colorings and the brute oracle")
    sp.add_argument("--input", help="edge-list file (default: stdin)")
    sp.add_argument("--algorithm", choices=["wilf", "function", "mindeg", "brute"],
                    default="wilf")
    sp.add_argument("--threshold", type=threshold,
                    help="degree bound for --algorithm mindeg")
    sp.set_defaults(fn=_cmd_color)

    sp = sub.add_parser("bipartite", help="spectral bipartiteness indicators")
    add_common(sp)
    sp.set_defaults(fn=_cmd_bipartite)

    sp = sub.add_parser("tutte", help="odd-component scan and matching checks")
    add_common(sp)
    sp.add_argument("--mode", choices=["exhaustive", "randomized"],
                    default="exhaustive")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=sample_count, default=2000,
                    help=f"randomized draws beyond the singletons (0..{MAX_SAMPLES})")
    sp.set_defaults(fn=_cmd_tutte)

    sp = sub.add_parser("limit", help="accumulated spectra along a graph family")
    add_common(sp, inp=False)
    sp.add_argument("--family", default="cycle", help="family name (cycle)")
    sp.add_argument("--max-n", dest="max_n", type=int, default=64)
    sp.add_argument("--interval", default="-2,2", help="LO,HI")
    sp.set_defaults(fn=_cmd_limit)

    sp = sub.add_parser("verify", help="run the built-in invariant suite")
    sp.set_defaults(fn=_cmd_verify)

    return p


def run(argv: Optional[List[str]] = None, stdin_text: Optional[str] = None,
        out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args, stdin_text, out)
    except UsageError as exc:
        out.write(_error_json("usage", str(exc)))
        return 2
    except CapExceeded as exc:
        out.write(_error_json("cap-exceeded", str(exc)))
        return 3
    except ValueError as exc:
        out.write(_error_json("input", str(exc)))
        return 2
    except InternalError as exc:
        out.write(_error_json("internal", str(exc)))
        return 4
    except Exception as exc:  # any other fault of the program, named by its type
        out.write(_error_json("internal", repr(exc)))
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
