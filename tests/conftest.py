from hypothesis import strategies as st

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

# acceptance tests append (label, "PASS"/"FAIL") here; printed at session end
ACCEPTANCE = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.write_sep("-", "acceptance criteria")
        for label, status in ACCEPTANCE:
            terminalreporter.write_line(f"{label}: {status}")
