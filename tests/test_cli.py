"""Command-line surface: payload shapes, byte determinism, piping, exit codes."""

import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specbound
from specbound import generators, graphs, invariants, matching, spectral
from specbound.cli import run
from specbound.generators import complete_bipartite, cycle, petersen
from specbound.graphs import canonical_digest, dump_edge_list


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
    code, text = _run(["gen"])
    assert code == 2
    err = json.loads(text)
    assert err["error"]["code"] == "usage"
    code, _ = _run(["gen", "--cycle", "4", "--petersen"])
    assert code == 2


def test_spectrum_report_shape():
    doc = _doc(["spectrum"], stdin_text=dump_edge_list(cycle(4)))
    assert doc["command"] == "spectrum"
    assert doc["version"] == "0.1.0"
    assert doc["input_digest"] == canonical_digest(cycle(4))
    p = doc["payload"]
    assert p["n"] == 4 and p["d"] == 2
    assert p["spectrum_adj"] == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-9)
    assert p["spectrum_lap"] == pytest.approx([0.0, 2.0, 2.0, 4.0], abs=1e-9)


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
    """The orders of the ``Graph``s constructed while the test runs."""
    built = []
    real = graphs.Graph.__init__

    def spy(self, n, edges):
        built.append(n)
        real(self, n, edges)

    monkeypatch.setattr(graphs.Graph, "__init__", spy)
    return built


@_DENSE_COMMANDS
def test_dense_cap_is_checked_while_parsing(graphs_built, argv):
    # 3000000 per-vertex lists and masks took 3 s and 310 MB before the cap
    code, out = _run(argv, stdin_text="3000000 1\n0 1\n")
    assert code == 3
    assert json.loads(out)["error"] == {"code": "cap-exceeded",
                                        "message": "dense eigensolve capped at n=4096"}
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


def test_commands_without_a_dense_solve_build_large_graphs(graphs_built):
    text = dump_edge_list(cycle(5000))
    graphs_built.clear()
    code, out = _run(["color", "--algorithm", "mindeg", "--threshold", "2"], stdin_text=text)
    p = json.loads(out)["payload"]
    assert code == 0 and p["proper"] and p["palette_bound"] == 3
    assert graphs_built == [5000]


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
    (petersen(), ["spectrum"], 2),
    (petersen(), ["bounds"], 2),
    (petersen(), ["color", "--algorithm", "wilf"], 0),  # regular: floor(M) = d, certified
    (petersen(), ["bipartite"], 1),
    (complete_bipartite(4, 4), ["bipartite"], 1),  # -d vector: a certified solve, no eigh
    (None, ["limit", "--max-n", "16"], 14),  # cycles 3..16, one solve each
], ids=["spectrum", "bounds", "wilf", "bipartite", "bipartite-regular", "limit"])
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


def test_directed_duplicate_arc_rejected():
    code, text = _run(["color", "--algorithm", "function"], stdin_text="3 3\n0 1\n0 1\n1 2")
    assert code == 2
    assert json.loads(text)["error"]["code"] == "input"


def test_verify_runs_clean():
    doc = _doc(["verify"])
    assert doc["payload"]["ok"] is True
    assert len(doc["payload"]["checks"]) == 14
    assert all(c["ok"] for c in doc["payload"]["checks"])


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
], ids=["negative-tol", "infinite-tol", "nan-tol", "infinite-threshold"])
def test_bad_numeric_arguments_are_usage_errors(argv, graph, named):
    code, out = _run(argv, stdin_text=dump_edge_list(graph))
    assert code == 2
    assert out.count("\n") == 1
    err = json.loads(out)["error"]
    assert err["code"] == "usage" and named in err["message"]


def test_tolerance_below_the_solver_error_is_not_an_internal_fault():
    # the eigensolves' sanity checks allow the solver's own error margin, so a
    # tiny --tol is the caller's choice, not a failed consistency check
    for argv in (["spectrum"], ["bounds"], ["bipartite"], ["tutte"]):
        code, out = _run(argv + ["--tol", "1e-300"], stdin_text=dump_edge_list(petersen()))
        assert code == 0, out


def test_tutte_above_the_dense_cap_fails_before_the_scan(monkeypatch):
    # the randomized scan of C_5000 ran for minutes before the doubled-gap flag
    # hit the cap
    scans = []
    monkeypatch.setattr(matching, "_scan", lambda *a: scans.append(a))
    code, out = _run(["tutte", "--mode", "randomized"], stdin_text=dump_edge_list(cycle(5000)))
    assert code == 3
    assert json.loads(out)["error"]["code"] == "cap-exceeded"
    assert scans == []


def test_disconnected_tutte_input_above_the_dense_cap_is_scanned(monkeypatch):
    # a disconnected graph needs no solve, so the cap does not apply to it
    text = dump_edge_list(graphs.Graph(24, [(i, i + 1) for i in range(23) if i != 11]))
    argv = ["tutte", "--mode", "randomized", "--samples", "50"]
    uncapped = _doc(argv, stdin_text=text)
    monkeypatch.setattr(spectral, "MAX_DENSE_N", 12)
    assert _run(argv, stdin_text=dump_edge_list(cycle(24)))[0] == 3
    capped = _doc(argv, stdin_text=text)
    assert capped == uncapped and capped["payload"]["bh_condition"] is None


def test_limit_builds_each_cycle_once(monkeypatch):
    built = []
    real = generators.cycle
    monkeypatch.setattr(generators, "cycle", lambda n: built.append(n) or real(n))
    doc = _doc(["limit", "--max-n", "20"])
    assert built == list(range(3, 21))
    assert [e["index"] for e in doc["payload"]["gaps"]] == built


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


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(["spectrum", "bounds", "color", "bipartite", "tutte"]))
    argv = [command]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(_REALS)}")
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
    return argv


@given(_cli_calls(), _edge_list_texts())
@settings(max_examples=300, deadline=None)
def test_cli_boundary_fuzz(argv, text):
    code, out = _run(argv, stdin_text=text)
    assert code in (0, 2, 3), out
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert ("payload" in doc) == (code == 0)
