import numpy as np
import pytest
from hypothesis import strategies as st

from specbound.enumeration import canonical_key
from specbound.graphs import Graph


@st.composite
def graphs(draw, min_n=1, max_n=12):
    """Strategy producing arbitrary simple graphs (not necessarily connected)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, sorted(edges))


def friendship(k):
    """k triangles sharing vertex 0; M = (1 + sqrt(1 + 8k)) / 2."""
    return Graph(2 * k + 1, [e for i in range(k)
                             for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def isomorphic(g, h):
    """Exact isomorphism test through canonical keys (n <= 8)."""
    return g.n == h.n and canonical_key(g.adj_masks, g.n) == canonical_key(h.adj_masks, h.n)


@pytest.fixture
def eigensolves(monkeypatch):
    """The names of the dense solves (``numpy.linalg.eigvalsh``/``svd``)
    called while the test runs, in order."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return calls


# acceptance tests append (label, "PASS"/"FAIL") here; printed at session end
ACCEPTANCE = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.write_sep("-", "acceptance criteria")
        for label, status in ACCEPTANCE:
            terminalreporter.write_line(f"{label}: {status}")
