"""End-to-end acceptance sweep: each entry of ``specbound.invariants`` at its
``full`` tier (``specbound verify`` sweeps the ``quick`` tier), as one test that
records a PASS/FAIL line for pytest's terminal summary."""

import time

from conftest import ACCEPTANCE
from specbound.generators import paley_tournament, petersen
from specbound.invariants import INVARIANTS


def _acceptance_test(label, run):
    def test():
        try:
            run()
        except BaseException:
            ACCEPTANCE.append((label, "FAIL"))
            raise
        ACCEPTANCE.append((label, "PASS"))

    return test


# the wall-time bounds that two labels state, on one whole ``full`` sweep;
# ``specbound verify`` times nothing, so its verdict is the same on any host
_SECONDS = {"chromatic-sandwich": 300.0, "function-graph-coloring": 1.0}


def _timed_sweep(inv):
    start = time.perf_counter()
    inv.sweep("full")
    elapsed = time.perf_counter() - start
    bound = _SECONDS.get(inv.name)
    assert bound is None or elapsed < bound, f"sweep took {elapsed:.3f} s, bound {bound} s"


for _i, _inv in enumerate(INVARIANTS, 1):
    globals()["test_" + _inv.name.replace("-", "_")] = _acceptance_test(
        f"{_i:02d} {_inv.label}", lambda inv=_inv: _timed_sweep(inv))


def _paley_tight():
    """The tight item of ``function-graph-coloring`` on its own: the Paley system
    on k = 3 maps needs all 2k+1 = 7 colors, and colouring it takes < 1 s."""
    check = next(inv.check for inv in INVARIANTS if inv.name == "function-graph-coloring")
    start = time.perf_counter()
    d = paley_tournament()
    assert 2 * d.n_functions + 1 == 7
    check((d, True))
    assert time.perf_counter() - start < 1.0


test_paley_coloring_tight = _acceptance_test(
    "Paley system colored with 7 = 2*3+1 colors, tight on K7, < 1 s", _paley_tight)


def test_chromatic_sandwich_solves_each_spectrum_once(eigensolves):
    """The sandwich check colors from the ``M`` of its ``bounds``, not from a
    second adjacency solve; on the regular Petersen graph ``bounds`` itself
    makes one solve, the Laplacian's."""
    check = next(inv.check for inv in INVARIANTS if inv.name == "chromatic-sandwich")
    check(petersen())
    assert len(eigensolves) == 1
