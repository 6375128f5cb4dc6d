"""Command-line surface: payload shapes, byte determinism, piping, exit codes."""

import dataclasses
import importlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specbound
from specbound import enumeration, graphs, invariants, matching, spectral
from specbound.cli import MAX_SAMPLES, run
from specbound.generators import (complete_bipartite, cycle, function_graph, petersen,
                                  random_regular, subdivide)
from specbound.graphs import (canonical_digest, dump_directed_edge_list, dump_edge_list,
                              load_directed_edge_list, load_edge_list)


def _run(argv, stdin_text=None):
    out = io.StringIO()
    code = run(argv, stdin_text=stdin_text, out=out)
    return code, out.getvalue()


def _doc(argv, stdin_text=None):
    code, text = _run(argv, stdin_text=stdin_text)
    assert code == 0, text
    return json.loads(text)


def test_gen_cycle_emits_edge_list():
    code, text = _run(["gen", "--cycle", "5"])
    assert code == 0
    assert text == dump_edge_list(cycle(5))


def test_gen_requires_exactly_one_family():
    for argv in (["gen"], ["gen", "--cycle", "4", "--petersen"],
                 ["gen", "--cycle", "0", "--path", "0"]):
        code, text = _run(argv)
        assert code == 2
        assert json.loads(text)["error"] == {"code": "usage",
                                             "message": "gen needs exactly one constructor flag"}


@pytest.mark.parametrize("flag, message", [
    ("--cycle", "cycle needs n >= 3"),
    ("--path", "path needs n >= 1"),
    ("--complete", "complete graph needs n >= 1"),
], ids=["cycle", "path", "complete"])
def test_gen_size_zero_reports_the_generators_own_error(flag, message):
    # 0 == False, so the constructor must be picked by identity with None
    code, text = _run(["gen", flag, "0"])
    assert code == 2
    assert json.loads(text)["error"] == {"code": "input", "message": message}


def test_spectrum_report_shape():
    doc = _doc(["spectrum"], stdin_text=dump_edge_list(cycle(4)))
    assert doc["command"] == "spectrum"
    assert doc["version"] == "0.1.0"
    assert doc["input_digest"] == canonical_digest(cycle(4))
    p = doc["payload"]
    assert p["n"] == 4 and p["d"] == 2
    assert p["M"] == pytest.approx(2.0) and p["wilf"] == 3
    assert p["spectrum_adj"] == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-9)
    assert p["spectrum_lap"] == pytest.approx([0.0, 2.0, 2.0, 4.0], abs=1e-9)


_BOUNDS = {"n", "d", "M", "m", "wilf", "hoffman", "gap", "mL", "ML"}
_COLORING = {"algorithm", "palette_bound", "colors", "palette_used", "proper"}
_TUTTE = {"c_star", "witness", "classical_holds", "strict_holds", "mode", "scanned",
          "bh_condition", "matching"}


@pytest.mark.parametrize("argv, keys", [
    (["spectrum"], _BOUNDS | {"spectrum_adj", "spectrum_lap"}),
    (["bounds"], _BOUNDS | {"independence_bound", "mindeg_independence_bound"}),
    (["color", "--algorithm", "wilf"], _COLORING),
    (["color", "--algorithm", "mindeg", "--threshold", "3"], _COLORING),
    (["color", "--algorithm", "function"], _COLORING),
    (["color", "--algorithm", "brute"], {"algorithm", "chromatic"}),
    (["bipartite"], {"symmetric_spectrum", "minus_d_in_spectrum", "bipartition", "defect",
                     "regular", "note", "bfs_bipartite"}),
    (["tutte"], _TUTTE),
    (["tutte", "--mode", "randomized"], _TUTTE),
    (["limit", "--max-n", "8"], {"family", "max_index", "interval", "points_count",
                                 "points", "max_gap", "gaps"}),
    (["verify"], {"ok", "checks"}),
], ids=["spectrum", "bounds", "color-wilf", "color-mindeg", "color-function", "color-brute",
        "bipartite", "tutte-exhaustive", "tutte-randomized", "limit", "verify"])
def test_payload_key_sets(argv, keys):
    # each payload is printed from its report dataclass, so a renamed field
    # would rename a key: the sets are pinned here, one command at a time
    p = _doc(argv, stdin_text=dump_edge_list(petersen()))["payload"]
    assert set(p) == keys
    if argv[0] == "limit":
        assert all(set(e) == {"index", "gap", "error"} for e in p["gaps"])
    if argv[0] == "verify":
        assert all(set(c) == {"name", "ok", "detail"} for c in p["checks"])


def test_bounds_payload_petersen():
    p = _doc(["bounds"], stdin_text=dump_edge_list(petersen()))["payload"]
    assert p["wilf"] == 4
    assert p["hoffman"] == 3
    assert p["gap"] == 2.0
    assert p["independence_bound"] == 0.4
    assert p["mL"] == 2.0 and p["ML"] == 5.0


def test_reports_are_byte_deterministic():
    text1 = _run(["spectrum"], stdin_text=dump_edge_list(petersen()))[1]
    text2 = _run(["spectrum"], stdin_text=dump_edge_list(petersen()))[1]
    assert text1 == text2
    assert text1.endswith("\n")
    # canonical JSON: sorted keys, no spaces
    body = json.loads(text1)
    assert text1 == json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def test_color_wilf_payload():
    p = _doc(["color", "--algorithm", "wilf"], stdin_text=dump_edge_list(petersen()))["payload"]
    assert p["proper"] is True
    assert p["palette_bound"] == 4
    assert p["palette_used"] <= 4
    assert len(p["colors"]) == 10
    assert all(c is not None for c in p["colors"])


def test_color_brute():
    p = _doc(["color", "--algorithm", "brute"], stdin_text=dump_edge_list(cycle(5)))["payload"]
    assert p["chromatic"] == 3


def test_color_mindeg_needs_threshold():
    code, text = _run(["color", "--algorithm", "mindeg"], stdin_text=dump_edge_list(cycle(5)))
    assert code == 2
    assert json.loads(text)["error"]["code"] == "usage"
    p = _doc(["color", "--algorithm", "mindeg", "--threshold", "2"],
             stdin_text=dump_edge_list(cycle(5)))["payload"]
    assert p["proper"] is True and p["palette_bound"] == 3


def test_bipartite_payload():
    p = _doc(["bipartite"], stdin_text=dump_edge_list(cycle(6)))["payload"]
    assert p["symmetric_spectrum"] is True
    assert p["minus_d_in_spectrum"] is True
    assert sorted(p["bipartition"][0] + p["bipartition"][1]) == list(range(6))
    assert p["defect"] == []
    assert p["bfs_bipartite"] is True


def test_tutte_payload_and_seeded_determinism():
    stdin = dump_edge_list(petersen())
    a = _run(["tutte", "--mode", "randomized", "--seed", "5", "--samples", "64"], stdin_text=stdin)
    b = _run(["tutte", "--mode", "randomized", "--seed", "5", "--samples", "64"], stdin_text=stdin)
    assert a == b
    p = json.loads(a[1])["payload"]
    assert p["mode"] == "randomized"
    assert p["classical_holds"] is True


def test_tutte_exhaustive_star():
    p = _doc(["tutte"], stdin_text="4 3\n0 1\n0 2\n0 3\n")["payload"]
    assert p["c_star"] == 3.0
    assert p["witness"] == [0]
    assert p["classical_holds"] is False
    assert p["matching"] is None


def test_limit_payload():
    p = _doc(["limit", "--family", "cycle", "--max-n", "16", "--interval=-2,2"])["payload"]
    assert p["family"] == "cycle"
    assert p["max_gap"] < 0.5
    assert p["points"] is not None and len(p["points"]) == p["points_count"]
    big = _doc(["limit", "--family", "cycle", "--max-n", "64"])["payload"]
    assert big["points"] is None  # too many accumulated points to embed
    assert big["points_count"] > 512
    assert big["max_gap"] < 0.2


def test_limit_rejects_unknown_family():
    code, _ = _run(["limit", "--family", "paths"])
    assert code == 2


def test_missing_file_is_exit_2():
    code, text = _run(["spectrum", "--input", "/nonexistent/em.txt"])
    assert code == 2
    assert json.loads(text)["error"]["code"] == "input"


def test_malformed_edge_list_is_exit_2():
    code, text = _run(["spectrum"], stdin_text="3 1\n2 1\n")
    assert code == 2


def test_cap_is_exit_3():
    n = 20
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    code, out = _run(["color", "--algorithm", "brute"], stdin_text=text)
    assert code == 3
    assert json.loads(out)["error"]["code"] == "cap-exceeded"


_DENSE_COMMANDS = pytest.mark.parametrize(
    "argv", [["spectrum"], ["bounds"], ["color"], ["bipartite"]],
    ids=["spectrum", "bounds", "wilf", "bipartite"])


@_DENSE_COMMANDS
def test_dense_cap_is_exit_3_before_any_allocation(monkeypatch, argv):
    allocated = []
    real = np.zeros
    monkeypatch.setattr(np, "zeros", lambda *a, **k: allocated.append(a) or real(*a, **k))
    code, out = _run(argv, stdin_text=dump_edge_list(cycle(4097)))
    assert code == 3
    assert json.loads(out)["error"]["code"] == "cap-exceeded"
    assert allocated == []


@pytest.fixture
def graphs_built(monkeypatch):
    """The orders of the ``Graph``s and ``DirectedGraph``s constructed while
    the test runs."""
    built = []

    for cls in (graphs.Graph, graphs.DirectedGraph):
        def spy(self, n, *args, real=cls.__init__, **kwargs):
            built.append(n)
            real(self, n, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    return built


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["bounds"], ["color"], ["bipartite"], ["tutte", "--mode", "randomized"],
    ["color", "--algorithm", "mindeg", "--threshold", "2"], ["color", "--algorithm", "function"],
], ids=["spectrum", "bounds", "wilf", "bipartite", "tutte-randomized", "mindeg", "function"])
def test_dense_cap_is_checked_while_parsing(graphs_built, argv):
    # no larger graph comes out of gen, so the commands that run no dense
    # solve take the same cap: at 300000000 vertices mindeg and the
    # randomized scan ran out of memory building the graph, and at 3000000
    # the function colouring ran for over a minute
    # 3000000 per-vertex lists and masks took 3 s and 310 MB before the cap
    code, out = _run(argv, stdin_text="3000000 1\n0 1\n")
    assert code == 3
    assert json.loads(out)["error"] == {"code": "cap-exceeded",
                                        "message": "dense eigensolve capped at n=4096"}
    assert graphs_built == []


@pytest.mark.parametrize("argv, message", [
    (["tutte", "--mode", "exhaustive"], "exhaustive Tutte scan capped at n=22"),
    (["color", "--algorithm", "brute"], "brute-force chromatic number capped at n=16"),
], ids=["tutte-exhaustive", "color-brute"])
def test_scan_caps_are_checked_while_parsing(graphs_built, argv, message):
    # a 40000-vertex path's masks took peak RSS from 36 MB to 156 MB before the cap
    code, out = _run(argv, stdin_text="40000 1\n0 1\n")
    assert code == 3
    assert json.loads(out)["error"] == {"code": "cap-exceeded", "message": message}
    assert graphs_built == []


@_DENSE_COMMANDS
@pytest.mark.parametrize("text, named", [
    ("3000000 1\n0 x\n", "bad edge line '0 x'"),
    ("3000000 2\n0 1\n1 1\n", "0 <= u < v < n: 1 1"),
    ("3000000 1\n0 3000000\n", "0 <= u < v < n: 0 3000000"),
    ("3000000 3\n0 1\n1 2\n0 1\n", "duplicate edge (0, 1)"),
], ids=["malformed", "loop", "out-of-range", "duplicate"])
def test_bad_lines_are_reported_before_the_dense_cap(graphs_built, argv, text, named):
    code, out = _run(argv, stdin_text=text)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "input" and named in err["message"]
    assert graphs_built == []


def test_commands_without_a_dense_solve_read_graphs_up_to_the_dense_cap(monkeypatch):
    text = dump_edge_list(cycle(12))
    maps = dump_directed_edge_list(function_graph([[(i + 1) % 12 for i in range(12)]]))
    monkeypatch.setattr(spectral, "MAX_DENSE_N", 12)
    p = _doc(["color", "--algorithm", "mindeg", "--threshold", "2"], stdin_text=text)["payload"]
    assert p["proper"] and p["palette_bound"] == 3
    assert _doc(["color", "--algorithm", "function"], stdin_text=maps)["payload"]["proper"]
    _doc(["tutte", "--mode", "randomized", "--samples", "50"], stdin_text=text)


def test_limit_above_dense_cap_fails_before_any_solve(eigensolves):
    code, out = _run(["limit", "--max-n", "5000"])
    assert code == 3
    assert json.loads(out)["error"]["code"] == "cap-exceeded"
    assert eigensolves == []


def test_internal_fault_is_exit_4(monkeypatch):
    # an eigensolve that breaks the degree bound is specbound's fault, not the input's
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: np.full(len(mat), 99.0))
    code, out = _run(["spectrum"], stdin_text=dump_edge_list(petersen()))
    assert code == 4
    assert out.count("\n") == 1
    err = json.loads(out)["error"]
    assert err["code"] == "internal"
    assert "untrustworthy" in err["message"]


@pytest.mark.parametrize("exc", [MemoryError(), KeyError("x"), RecursionError(),
                                 NotImplementedError()], ids=lambda e: type(e).__name__)
def test_any_other_exception_is_an_internal_fault(monkeypatch, exc):
    # gen --complete 2048 under a low address-space limit died with a
    # traceback from a MemoryError in Graph.__init__
    def fail(*args):
        raise exc

    monkeypatch.setattr(graphs.Graph, "__init__", fail)
    code, out = _run(["gen", "--complete", "8"])
    assert code == 4
    assert out.count("\n") == 1
    err = json.loads(out)["error"]
    assert err["code"] == "internal"
    assert type(exc).__name__ in err["message"]


def test_directed_pipe_for_function_coloring():
    code, gen_out = _run(["gen", "--paley"])
    assert code == 0
    p = _doc(["color", "--algorithm", "function"], stdin_text=gen_out)["payload"]
    assert p["proper"] is True
    assert p["palette_used"] == 7
    assert p["palette_bound"] == 7


def test_function_graph_flag_parses_maps():
    _, gen_out = _run(["gen", "--function-graph", "1,2,0;2,0,1"])
    p = _doc(["color", "--algorithm", "function"], stdin_text=gen_out)["payload"]
    assert p["proper"] is True
    assert p["palette_bound"] == 5


def test_directed_input_rejected_by_undirected_commands():
    _, gen_out = _run(["gen", "--paley"])
    code, _ = _run(["spectrum"], stdin_text=gen_out)
    assert code == 2


def test_shared_syntax_dump_read_by_both_commands():
    # the two formats share one syntax: a one-arc dump with u < v is also an
    # undirected edge list, and the function coloring reads it as one arc
    text = "2 1\n0 1\n"
    assert _doc(["spectrum"], stdin_text=text)["payload"]["spectrum_adj"] == [-1.0, 1.0]
    p = _doc(["color", "--algorithm", "function"], stdin_text=text)["payload"]
    assert p["proper"] is True and p["palette_bound"] == 3


@pytest.mark.parametrize("text, named", [("2 1\n0 x\n", "bad arc line '0 x'"),
                                         ("2 x\n", "header")],
                         ids=["arc", "header"])
def test_malformed_directed_input_names_the_line(text, named):
    code, out = _run(["color", "--algorithm", "function"], stdin_text=text)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "input"
    assert named in err["message"]


def test_peeling_stuck_error_is_bounded():
    _, rr = _run(["gen", "--random-regular", "1000", "3", "--seed", "1"])
    code, out = _run(["color", "--algorithm", "mindeg", "--threshold", "1"], stdin_text=rr)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input"
    assert len(out.encode()) < 512


@pytest.mark.parametrize("graph, argv, solves", [
    (petersen(), ["spectrum"], 1),  # regular: the adjacency spectrum is d - lambda(L)
    (petersen(), ["bounds"], 1),
    (subdivide(petersen()), ["spectrum"], 2),  # irregular: one solve per operator
    (subdivide(petersen()), ["bounds"], 2),
    (petersen(), ["color", "--algorithm", "wilf"], 0),  # regular: floor(M) = d, certified
    (petersen(), ["bipartite"], 0),  # not bipartite: the proved odd-cycle gap settles it
    (complete_bipartite(4, 4), ["bipartite"], 0),  # bipartite: the BFS 2-coloring proves it
    (subdivide(petersen()), ["bipartite"], 0),  # irregular and bipartite: the same
    (random_regular(500, 3, 1), ["tutte", "--mode", "randomized"], 0),  # 2U < Delta + 1
    (None, ["limit", "--max-n", "16"], 0),  # cycle spectra from their closed form
], ids=["spectrum", "bounds", "spectrum-irregular", "bounds-irregular", "wilf", "bipartite",
        "bipartite-regular", "bipartite-irregular", "tutte-randomized", "limit"])
def test_each_spectrum_is_solved_once(eigensolves, graph, argv, solves):
    code, text = _run(argv, stdin_text=dump_edge_list(graph) if graph else None)
    assert code == 0, text
    assert len(eigensolves) == solves


def test_gen_subdivide_pipeline():
    _, c4 = _run(["gen", "--cycle", "4"])
    code, sub = _run(["gen", "--subdivide"], stdin_text=c4)
    assert code == 0
    p = _doc(["bounds"], stdin_text=sub)["payload"]
    assert p["M"] == 2.0


@pytest.mark.parametrize("flag, at_cap, above", [
    ("--cycle", ["12"], ["13"]),
    ("--path", ["12"], ["13"]),
    ("--complete", ["12"], ["13"]),
    ("--complete-bipartite", ["5", "7"], ["6", "7"]),
    ("--random-regular", ["12", "3"], ["14", "3"]),
    ("--function-graph", ["1,2,3,4,5,6,7,8,9,10,11,0"], ["1,2,3,4,5,6,7,8,9,10,11,12,0"]),
], ids=["cycle", "path", "complete", "complete-bipartite", "random-regular", "function-graph"])
def test_gen_is_capped_before_it_builds(monkeypatch, graphs_built, flag, at_cap, above):
    monkeypatch.setattr(spectral, "MAX_DENSE_N", 12)
    assert _run(["gen", flag] + at_cap)[0] == 0
    graphs_built.clear()
    code, out = _run(["gen", flag] + above)
    assert code == 3
    assert json.loads(out)["error"] == {"code": "cap-exceeded",
                                        "message": "gen capped at n=12, the dense cap"}
    assert graphs_built == []


def test_gen_subdivide_is_capped_by_the_order_of_its_output(monkeypatch, graphs_built):
    monkeypatch.setattr(spectral, "MAX_DENSE_N", 12)
    assert _run(["gen", "--subdivide"], stdin_text=dump_edge_list(cycle(6)))[0] == 0
    c7 = dump_edge_list(cycle(7))
    graphs_built.clear()
    assert _run(["gen", "--subdivide"], stdin_text=c7)[0] == 3
    assert graphs_built == [7]  # the input, not its 14-vertex subdivision
    graphs_built.clear()
    assert _run(["gen", "--subdivide"], stdin_text="3000000 1\n0 1\n")[0] == 3
    assert graphs_built == []


def test_gen_random_regular_seeded():
    a = _run(["gen", "--random-regular", "10", "3", "--seed", "4"])
    b = _run(["gen", "--random-regular", "10", "3", "--seed", "4"])
    assert a == b and a[0] == 0


# The CLI as a separate process that imports the package the tests import,
# installed or found through PYTHONPATH, whatever the working directory.
_CLI = [sys.executable, "-m", "specbound"]
_PACKAGE_ROOT = str(Path(specbound.__file__).resolve().parents[1])
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}


def _spawn(args, **kwargs):
    return subprocess.run(_CLI + args, capture_output=True, env=_ENV, **kwargs)


def test_console_script_pipes():
    gen = _spawn(["gen", "--petersen"], text=True, check=True)
    first = _spawn(["spectrum"], input=gen.stdout, text=True, check=True)
    doc = json.loads(first.stdout)
    assert doc["payload"]["M"] == 3.0
    again = _spawn(["spectrum"], input=gen.stdout, text=True, check=True)
    assert first.stdout == again.stdout


def test_spectrum_bytes_do_not_depend_on_the_blas_thread_count():
    # specbound pins one BLAS thread itself, whatever the caller asks for.
    # Unpinned, on one thread and then two: rr(250, 3) printed an eigenvalue
    # as -1.54321335892 and -1.54321335891, and C1000 its gap and mL as
    # 3.9478287726e-05 and 3.94782877253e-05 / 3.94782877254e-05.  The
    # zero Laplacian eigenvalue of rr(1000, 3) printed as -4.49277354776e-16
    # and 2.10423560208e-15 before the zeroing rule.
    for gen, command in ((["--random-regular", "1000", "3", "--seed", "1"], "spectrum"),
                         (["--random-regular", "250", "3", "--seed", "1"], "spectrum"),
                         (["--cycle", "1000"], "spectrum"),
                         (["--cycle", "1000"], "bounds")):
        edges = _spawn(["gen"] + gen, text=True, check=True).stdout
        outputs = set()
        for threads in ("1", "2"):
            env = {**_ENV, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads}
            r = subprocess.run(_CLI + [command], input=edges, capture_output=True,
                               text=True, env=env, check=True)
            outputs.add(r.stdout)
        assert len(outputs) == 1, (gen, command)


def test_console_script_exit_codes():
    r = _spawn(["spectrum", "--input", "/no/such"])
    assert r.returncode == 2
    r = _spawn(["nonsense"])
    assert r.returncode == 2


def test_huge_header_is_capped_under_a_memory_limit():
    # 300000^2 doubles would be 671 GiB; under a 1 GB address-space limit an
    # allocation before the cap check fails loudly instead of exhausting the host
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    r = subprocess.run(_CLI + ["spectrum"], input="300000 0\n", capture_output=True,
                       text=True, env=env, preexec_fn=limit, timeout=120)
    assert r.returncode == 3, r.stderr
    assert r.stdout.count("\n") == 1
    assert json.loads(r.stdout)["error"]["code"] == "cap-exceeded"


def test_console_script_target_resolves():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["specbound"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def _strict_json(text):
    """``json.loads`` that also rejects the NaN and Infinity tokens, which are
    not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_unreadable_input_path_is_an_input_error(tmp_path, kind):
    # a directory raised IsADirectoryError through to a traceback; the message
    # is the OS's, exactly as a missing file always reported it
    path = str(tmp_path if kind == "directory" else tmp_path / "no-such-file")
    with pytest.raises(OSError) as exc:
        open(path).close()
    code, out = _run(["spectrum", "--input", path])
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": {"code": "input", "message": str(exc.value)},
                               "version": "0.1.0"}


@pytest.mark.parametrize("interval", ["-inf,inf", "0,inf", "nan,1", "-1e308,1e308"])
def test_limit_interval_must_be_finite(interval):
    code, out = _run(["limit", "--max-n", "8", f"--interval={interval}"])
    assert code == 2
    assert out.count("\n") == 1
    err = _strict_json(out)["error"]
    assert err["code"] == "usage" and interval in err["message"]


@pytest.mark.parametrize("interval", ["2,1", "1,1"])
def test_limit_reversed_interval_fails_before_any_solve(eigensolves, interval):
    # it was rejected as bad input only after every cycle's spectrum was solved
    code, out = _run(["limit", "--max-n", "300", f"--interval={interval}"])
    assert code == 2
    assert eigensolves == []
    err = json.loads(out)["error"]
    assert err["code"] == "usage" and interval in err["message"]


def test_directed_duplicate_arc_rejected():
    code, text = _run(["color", "--algorithm", "function"], stdin_text="3 3\n0 1\n0 1\n1 2")
    assert code == 2
    assert json.loads(text)["error"]["code"] == "input"


def test_verify_runs_clean():
    doc = _doc(["verify"])
    assert doc["payload"]["ok"] is True
    assert len(doc["payload"]["checks"]) == 12
    assert all(c["ok"] for c in doc["payload"]["checks"])


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "1e-9"],
    ["verify", "--tol=nan"],
    ["verify", "--input", "x"],
    ["verify", "stray"],
    ["verify", "--bogus"],
], ids=["tol", "tol-nan", "input", "positional", "unknown-flag"])
def test_verify_takes_no_arguments(monkeypatch, argv):
    sweeps = []
    monkeypatch.setattr(invariants, "verify", lambda *a: sweeps.append(a))
    code, out = _run(argv)
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["code"] == "usage"
    assert sweeps == []


def test_verify_reports_a_failing_check_and_runs_the_rest(monkeypatch):
    def boom(item):
        raise ZeroDivisionError("planted fault")

    broken = dataclasses.replace(invariants.INVARIANTS[3], check=boom)
    monkeypatch.setattr(invariants, "INVARIANTS",
                        invariants.INVARIANTS[:3] + (broken,) + invariants.INVARIANTS[4:])
    code, text = _run(["verify"])
    assert code == 1
    payload = json.loads(text)["payload"]
    assert payload["ok"] is False
    checks = payload["checks"]
    assert [c["name"] for c in checks] == [inv.name for inv in invariants.INVARIANTS]
    assert checks[3]["ok"] is False
    assert "ZeroDivisionError" in checks[3]["detail"]
    assert "planted fault" in checks[3]["detail"]
    assert all(c["ok"] for i, c in enumerate(checks) if i != 3)


@pytest.mark.parametrize("argv, graph, named", [
    (["spectrum", "--tol", "-1"], petersen(), "--tol"),
    (["bipartite", "--tol", "inf"], petersen(), "--tol"),
    (["bounds", "--tol", "nan"], petersen(), "--tol"),
    (["color", "--algorithm", "mindeg", "--threshold", "inf"], petersen(), "--threshold"),
    # every eigenvalue lies within the tolerance of the degree: the gap below
    # it is undefined because of the flag, not the graph
    (["spectrum", "--tol", "1e300"], petersen(), "--tol"),
    (["bounds", "--tol", "6"], petersen(), "--tol"),
], ids=["negative-tol", "infinite-tol", "nan-tol", "infinite-threshold", "no-gap-spectrum",
        "no-gap-bounds"])
def test_bad_numeric_arguments_are_usage_errors(argv, graph, named):
    code, out = _run(argv, stdin_text=dump_edge_list(graph))
    assert code == 2
    assert out.count("\n") == 1
    err = json.loads(out)["error"]
    assert err["code"] == "usage" and named in err["message"]


def test_mindeg_threshold_above_the_order_is_a_usage_error():
    # --threshold 1e308 printed a 309-digit palette_bound; no graph needs more
    # colours than it has vertices, so n is the largest threshold accepted
    text = dump_edge_list(petersen())
    code, out = _run(["color", "--algorithm", "mindeg", "--threshold", "1e308"], stdin_text=text)
    assert code == 2
    assert out.count("\n") == 1 and len(out.encode()) < 512
    err = json.loads(out)["error"]
    assert err["code"] == "usage" and "--threshold" in err["message"]
    assert _run(["color", "--algorithm", "mindeg", "--threshold", "10.5"], stdin_text=text)[0] == 2
    p = _doc(["color", "--algorithm", "mindeg", "--threshold", "10"], stdin_text=text)["payload"]
    assert p["palette_bound"] == 11


def test_tolerance_below_the_solver_error_is_not_an_internal_fault():
    # --tol reaches no solve, only comparisons, so a tiny one is the caller's
    # choice, not a failed consistency check, and no --tol moves a spectrum
    text = dump_edge_list(petersen())
    for argv in (["spectrum"], ["bounds"], ["bipartite"], ["tutte"]):
        code, out = _run(argv + ["--tol", "1e-300"], stdin_text=text)
        assert code == 0, out
    spectra = [{k: v for k, v in _doc(["spectrum", "--tol", tol], stdin_text=text)["payload"]
                .items() if k.startswith("spectrum_")} for tol in ("1e-300", "1e-9", "0.5")]
    assert spectra[0] == spectra[1] == spectra[2]


def test_cold_verify_solves_each_graph_at_most_once_per_operator(monkeypatch, eigensolves):
    # an empty memo of enumerated graphs, so verify builds and solves them
    # afresh, as a one-shot ``specbound verify`` does
    monkeypatch.setattr(enumeration, "_GRAPHS", {})
    assert _doc(["verify"])["payload"]["ok"] is True
    assert len(eigensolves) <= 450


def test_tutte_above_the_dense_cap_fails_before_the_scan(monkeypatch):
    # the randomized scan of C_5000 ran for minutes before the doubled-gap flag
    # hit the cap
    scans = []
    monkeypatch.setattr(matching, "_scan", lambda *a: scans.append(a))
    code, out = _run(["tutte", "--mode", "randomized"], stdin_text=dump_edge_list(cycle(5000)))
    assert code == 3
    assert json.loads(out)["error"]["code"] == "cap-exceeded"
    assert scans == []


def test_disconnected_tutte_input_above_the_dense_cap_fails_while_parsing(graphs_built,
                                                                         monkeypatch):
    # a disconnected graph needs no solve, but gen writes none this large, so
    # the parsed header is capped as a connected graph's is
    text = dump_edge_list(graphs.Graph(24, [(i, i + 1) for i in range(23) if i != 11]))
    graphs_built.clear()
    monkeypatch.setattr(spectral, "MAX_DENSE_N", 12)
    code, out = _run(["tutte", "--mode", "randomized", "--samples", "50"], stdin_text=text)
    assert code == 3
    assert json.loads(out)["error"]["code"] == "cap-exceeded"
    assert graphs_built == []


def test_limit_builds_no_graph_and_solves_nothing(graphs_built, eigensolves):
    doc = _doc(["limit", "--max-n", "256"])
    assert graphs_built == [] and eigensolves == []
    assert [e["index"] for e in doc["payload"]["gaps"]] == list(range(3, 257))


def test_color_takes_no_tolerance():
    # --tol reached only the dense fallback of the Wilf floor, where it could
    # only widen a sanity check's slack, so the flag is gone
    code, out = _run(["color", "--tol", "1e-3"], stdin_text=dump_edge_list(petersen()))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "usage"


# --- the CLI boundary under arbitrary arguments and corrupted edge lists ---

_REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["", "x", "1e-300", "1e308", "-0", "0x10", "1_000", " 2 "]))


@st.composite
def _edge_list_texts(draw):
    """Edge lists on at most 14 vertices (a header's n stays small, so every
    scan finishes quickly), valid or corrupted one way or another."""
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    header = f"{n} {len(edges)}"
    lines = [f"{u} {v}" for u, v in edges]
    junk_line = st.one_of(
        st.tuples(st.integers(-2, 16), st.integers(-2, 16)).map(lambda p: f"{p[0]} {p[1]}"),
        st.sampled_from(["", "0", "0 1 2", "a b", "1.5 2", "0 0", " 1   2 ", "#", "-"]))
    corruption = draw(st.sampled_from(["none", "header", "insert", "drop", "truncate",
                                       "duplicate", "noise"]))
    if corruption == "header":
        header = draw(st.one_of(
            st.tuples(st.integers(-3, 30), st.integers(-3, 130)).map(lambda p: f"{p[0]} {p[1]}"),
            st.sampled_from(["", "x", "5", "5 5 5", "1e1 0", "-1 0"])))
    elif corruption == "insert":
        lines.insert(draw(st.integers(0, len(lines))), draw(junk_line))
    elif corruption == "drop" and lines:
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif corruption == "duplicate" and lines:
        lines.append(draw(st.sampled_from(lines)))
    text = "\n".join([header] + lines) + "\n"
    if corruption == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    elif corruption == "noise":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.text(alphabet=" \t\n-.0123456789ex", max_size=3)) + text[i:]
    return text


_FUZZ_CAP = 32  # the dense cap during the fuzz, so gen's drawn sizes cross it

# integers listed twice, so that most draws parse and reach the generators
_SIZES = st.one_of(st.integers(-3, _FUZZ_CAP + 8).map(str),
                   st.integers(-3, _FUZZ_CAP + 8).map(str), _REALS)

# gen's constructor flags and how many numbers each takes
_GEN_FLAGS = {"--cycle": 1, "--path": 1, "--complete": 1, "--complete-bipartite": 2,
              "--random-regular": 2, "--petersen": 0, "--paley": 0, "--subdivide": 0,
              "--function-graph": 0}
# the flags gen draws from: --function-graph four times, so that its long maps
# are drawn often enough to cross the cap in most runs of the fuzz
_GEN_DRAWS = sorted(_GEN_FLAGS) + ["--function-graph"] * 3


@st.composite
def _function_maps(draw):
    """A well-formed ``--function-graph`` spec: one or two maps of the same m
    points, m within 8 of _FUZZ_CAP, so that the order drawn crosses the cap
    about half the time (the free-text specs are short)."""
    m = draw(st.sampled_from(range(_FUZZ_CAP - 7, _FUZZ_CAP + 9)))  # uniform; integers() is not
    rng = random.Random(draw(st.integers(0, 2 ** 32)))  # long maps, few draws
    return ";".join(",".join(str(rng.randrange(m)) for _ in range(m))
                    for _ in range(draw(st.integers(1, 2))))


@st.composite
def _gen_args(draw):
    """One of gen's constructor flags, now and then two (a usage error)."""
    flags = [draw(st.sampled_from(_GEN_DRAWS))]
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(_GEN_DRAWS)))
    argv = []
    for flag in flags:
        argv.append(flag)
        argv.extend(draw(_SIZES) for _ in range(_GEN_FLAGS[flag]))
        if flag == "--function-graph":
            argv.append(draw(st.one_of(st.text(alphabet="0123,;-x", max_size=12),
                                       _function_maps())))
    if draw(st.booleans()):
        argv.append(f"--seed={draw(_SIZES)}")
    return argv


@st.composite
def _cli_calls(draw):
    # gen twice: one call in nine is too few to draw each of its flags often
    command = draw(st.sampled_from(["spectrum", "bounds", "color", "bipartite", "tutte",
                                    "limit", "verify", "gen", "gen"]))
    argv = [command]
    if command == "gen":
        return argv + draw(_gen_args())
    if draw(st.booleans()):
        argv.append(f"--tol={draw(_REALS)}")
    if command == "verify" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["stray", "--bogus", "--input=x", "--seed=1"])))
    if command == "color":
        argv.append(f"--algorithm={draw(st.sampled_from(['wilf', 'mindeg', 'brute', 'function', 'x']))}")
        if draw(st.booleans()):
            argv.append(f"--threshold={draw(_REALS)}")
    if command == "tutte":
        if draw(st.booleans()):
            argv.append(f"--mode={draw(st.sampled_from(['exhaustive', 'randomized', 'x']))}")
        if draw(st.booleans()):
            argv.append(f"--samples={draw(st.one_of(st.integers(-5, 200).map(str), _REALS))}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(st.one_of(st.integers().map(str), _REALS))}")
    if command == "limit":
        argv.append(f"--max-n={draw(st.integers(-5, 40))}")
        if draw(st.booleans()):
            argv.append(f"--interval={draw(_REALS)},{draw(_REALS)}")
    return argv


@given(_cli_calls(), _edge_list_texts())
@settings(max_examples=300, deadline=None)
def test_cli_boundary_fuzz(argv, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "MAX_DENSE_N", _FUZZ_CAP)
        # verify's arguments reach the parser, but no sweep runs
        mp.setattr(invariants, "verify", lambda tier: [("stub", True, "corpus size 0")])
        code, out = _run(argv, stdin_text=text)
    assert code in (0, 2, 3), out
    if argv[0] == "gen" and code == 0:  # an edge list, not a report
        if "--paley" in argv or "--function-graph" in argv:
            assert load_directed_edge_list(out).n <= _FUZZ_CAP
        else:
            assert load_edge_list(out).n <= _FUZZ_CAP
        return
    assert out.endswith("\n") and out.count("\n") == 1
    doc = _strict_json(out)
    assert ("payload" in doc) == (code == 0)


@pytest.mark.parametrize("samples", ["-1", str(MAX_SAMPLES + 1)], ids=["negative", "cap+1"])
def test_samples_out_of_range_fail_before_the_graph_is_parsed(graphs_built, samples):
    # the text is no edge list: a usage error shows the flag was checked first
    code, out = _run(["tutte", "--mode", "randomized", "--samples", samples],
                     stdin_text="not an edge list\n")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "usage" and "--samples" in err["message"]
    assert graphs_built == []


def test_zero_samples_scan_only_the_singletons():
    p = _doc(["tutte", "--mode", "randomized", "--samples", "0"],
             stdin_text=dump_edge_list(petersen()))["payload"]
    assert p["scanned"] == 10
