"""The work record: it sees every dense solve, and it changes no output."""

import ast
import io
from pathlib import Path

import numpy as np
import pytest

from specbound import enumeration, stats
from specbound.cli import run
from specbound.generators import path, petersen, random_regular, subdivide
from specbound.graphs import Graph, dump_edge_list


def _stdout(argv, stdin_text=None):
    out = io.StringIO()
    code = run(argv, stdin_text=stdin_text, out=out)
    return code, out.getvalue()


def test_a_record_is_open_only_inside_its_block():
    stats.add("graph", 5)  # no record open: kept nowhere
    with stats.recording() as outer:
        stats.add("graph", 6)
        with stats.recording() as inner:
            stats.add("graph", 7)
            stats.add("bridges")
        stats.add("graph", 8)
    stats.add("graph", 9)
    assert outer == {"graph": [6, 8]}
    assert inner == {"graph": [7], "bridges": [1]}
    assert stats._open is None


def test_the_program_only_adds_to_the_record():
    # no module but stats reads the record, so an open one changes no output
    used = set()
    for module in Path(stats.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "stats", module
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "stats":
                used.add(node.attr)
    assert used == {"add"}


@pytest.mark.parametrize("argv, stdin_text", [
    (["tutte", "--mode", "exhaustive"], dump_edge_list(petersen())),
    (["bounds"], dump_edge_list(subdivide(petersen()))),
], ids=["tutte", "bounds"])
def test_an_open_record_changes_no_output(argv, stdin_text):
    plain = _stdout(argv, stdin_text)
    assert stats._open is None  # with no record open, nothing is kept
    with stats.recording():
        recorded = _stdout(argv, stdin_text)
    assert recorded == plain and plain[0] == 0


def _bipartite_double_cover(g):
    return Graph(2 * g.n, [(u, g.n + v) for u, v in g.edges()]
                 + [(v, g.n + u) for u, v in g.edges()])


# the shapes of the spectral-large workload, small: cubic, bipartite cubic
# (regular, one solve), subdivided cubic and a path (irregular and bipartite,
# an SVD and a solve)
@pytest.mark.parametrize("make", [
    pytest.param(lambda: random_regular(48, 3, seed=1), id="cubic-48"),
    pytest.param(lambda: _bipartite_double_cover(random_regular(24, 3, seed=1)),
                 id="bipartite-cubic-48"),
    pytest.param(lambda: subdivide(random_regular(24, 3, seed=2)), id="subdivided-cubic-60"),
    pytest.param(lambda: path(50), id="path-50"),
    pytest.param(None, id="cold-verify"),
])
def test_the_record_lists_every_dense_solve(monkeypatch, make):
    # the one count of the solves that does not come from the record: a
    # solve added without its count fails here
    seen = []
    for name in ("eigvalsh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _real=real, _name=name, **kwargs:
                            seen.append(_name) or _real(*args, **kwargs))
    if make is None:
        monkeypatch.setattr(enumeration, "_GRAPHS", {})  # as a one-shot verify starts
        runs = [(["verify"], None)]
    else:
        text = dump_edge_list(make())
        runs = [(argv, text) for argv in (["spectrum"], ["bounds"], ["bipartite"],
                                          ["color", "--algorithm", "wilf"])]
    with stats.recording() as rec:
        for argv, stdin_text in runs:
            assert _stdout(argv, stdin_text)[0] == 0
    assert seen and rec["solve"] == seen
