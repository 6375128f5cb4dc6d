"""Bipartiteness through spectral symmetry, with the sides it implies.

For a connected graph three statements coincide: the graph is bipartite,
the adjacency spectrum is symmetric about 0, and -M is an eigenvalue (M =
||A||; Cvetkovic, Doob and Sachs, *Spectra of Graphs*, 1980).  On a
d-regular graph M = d, and the -d eigenvector is the +-1 side vector s:
``A s = -d s`` holds exactly when every edge joins the two sides, so the
sign pattern of any -d eigenvector is the graph's one bipartition.  The
test below reports the two spectral indicators and, in the regular case,
those sides.  A BFS 2-coloring, whose every edge joins its two sides, is
the exact O(m) proof of "bipartite" and gives the sides; on a regular
graph a proved gap certifies "not bipartite" (``spectral_bipartite_test``).
Neither certificate builds a matrix.

``rotation_two_coloring`` is the odd one out: it builds the classical
2-coloring of an irrational-rotation orbit graph off a small interval
C = [0, gamma), labeling each point by the parity of its first-entry time
into C.  Along the orbit the entry time drops by one per step until C is hit,
so adjacent samples get different labels except on C itself -- a defect set of
measure gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import Graph, InternalError, Mask, _two_coloring, bfs_levels, mask_of
from .spectral import TOL, adjacency_spectrum, margin, multiset_close


def is_symmetric_spectrum(spectrum: Sequence[float], tol: float = TOL) -> bool:
    return multiset_close(spectrum, [-v for v in spectrum], tol)


@dataclass
class BipartiteVerdict:
    symmetric_spectrum: bool
    minus_d_in_spectrum: bool
    bipartition: Optional[Tuple[Mask, Mask]]
    regular: bool
    bfs_bipartite: bool  # whether the BFS 2-coloring found no odd cycle
    note: str = ""


def spectral_bipartite_test(g: Graph, tol: float = TOL) -> BipartiteVerdict:
    """Spectral bipartiteness indicators, plus the sides when regular.

    Connected graphs only.  For non-regular graphs the -d indicator is
    computed against -M (M = ||T||) and the sides are not reported, flagged
    in ``note``; -M is an eigenvalue of a connected graph iff it is
    bipartite.  ``bfs_bipartite`` records whether the BFS 2-coloring it
    runs found no odd cycle.

    Unless ``g`` already carries its adjacency spectrum, the verdict is
    certified when n >= 2 and ``tol > 4 eta``: it is the one the dense path
    would print under the error model of ``margin`` (every computed
    eigenvalue within ``eta``), and that path runs only when no certificate
    closes.  A BFS 2-coloring decides which to try:

    - bipartite: the coloring, whose every edge joins its two sides, proves
      it, so the spectrum is exactly symmetric with ``-M`` in it, and a
      dense solve, within ``eta`` of each eigenvalue, pairs them within
      ``2 eta < tol``: both indicators are true, and no matrix is built.
      (The zeroing rule can split a pair ``+-x`` only when x lies within
      ``eta`` of the noise level, where the dense verdict itself hangs on
      rounding.)
    - with an odd cycle, on a d-regular graph where ``_odd_cycle_gap``
      exceeds ``tol + 2 eta`` twice over: ``l_min > -d + tol + 2 eta``, so
      no computed eigenvalue lies within ``tol`` of ``-d`` and the
      spectrum's ends do not pair, and both indicators are false.  An
      irregular graph with an odd cycle, or a regular one the gap is too
      weak for, goes to the adjacency spectrum.

    A connected graph has one bipartition, so the coloring's sides, vertex
    0's first, are the printed ones wherever a regular graph's ``-d``
    indicator holds.
    """
    levels = bfs_levels(g)
    if levels.count(0) != 1:  # a second component's least vertex
        raise ValueError("spectral bipartiteness test needs a connected graph")
    regular = g.is_regular
    sides = _sides(g, _two_coloring(g, levels))
    eta = margin(g)
    certified = None  # both indicators' value, where a certificate settles it
    if g._adj_spectrum is None and g.n >= 2 and tol > 4 * eta:
        if sides is not None:
            certified = True
        elif regular and tol + 2 * eta < _odd_cycle_gap(g.n, max(levels)) / 2:
            certified = False
    if certified is None:
        spec = adjacency_spectrum(g)
        ref = g.max_degree if regular else spec[-1]
        symmetric = is_symmetric_spectrum(spec, tol)
        minus_d_in = any(abs(v + ref) <= tol for v in spec)
    else:
        symmetric = minus_d_in = certified

    if not regular:
        note = "graph is not regular: indicator uses -M in place of -d, extraction skipped"
    elif minus_d_in and sides is None:  # an odd cycle: no +-1 vector has A s = -d s
        note = "-d lies within tol of the spectrum, but no sign pattern is a bipartition"
    else:
        note = ""
    return BipartiteVerdict(symmetric_spectrum=symmetric, minus_d_in_spectrum=minus_d_in,
                            bipartition=sides if regular and minus_d_in and g.n >= 2 else None,
                            regular=regular, bfs_bipartite=sides is not None, note=note)


def _odd_cycle_gap(n: int, e: int) -> float:
    """``2 / (n (4e + 1)) <= d + l_min`` on a connected non-bipartite
    d-regular graph of order n with some vertex of eccentricity e.

    For a unit ``l_min`` eigenvector x, ``d + l_min = sum_{uv in E}
    (x_u + x_v)^2``.  Take ``x_v^2 >= 1/n``: some edge joins two vertices of
    one BFS level from v, closing an odd walk through v of length
    ``L <= 4e + 1`` that uses no edge twice over.  The alternating sum of
    ``x_a + x_b`` along it is ``2 x_v``, so Cauchy-Schwarz gives
    ``4/n <= 2 L (d + l_min)``.  On odd cycles the gap is within a factor
    pi^2 of this (cf. Alon and Sudakov, CPC 2000).
    """
    return 2.0 / (n * (4 * e + 1))


def _sides(g: Graph, side: Optional[List[int]]) -> Optional[Tuple[Mask, Mask]]:
    """A 2-coloring's sides as masks, side 0's first; None for None."""
    if side is None:
        return None
    a = mask_of(v for v in range(g.n) if side[v] == 0)
    return a, g.full_mask & ~a


def bfs_bipartition_oracle(g: Graph) -> Optional[Tuple[Mask, Mask]]:
    """BFS 2-coloring; None iff some component has an odd cycle."""
    return _sides(g, _two_coloring(g))


@dataclass
class RotationColoring:
    labels: List[int]
    defect_count: int


def rotation_two_coloring(alpha: float, gamma: float, n_samples: int) -> RotationColoring:
    """2-coloring of an irrational rotation orbit, proper off [0, gamma).

    Samples are x_k = k*alpha mod 1 for k < n_samples.  Each is labeled by
    the parity of its first-entry time into C = [0, gamma) under repeated
    rotation; requires 0 < gamma < min(alpha, 1 - alpha) and alpha bounded
    away from rationals with small denominator.  The first-entry search is
    capped at ceil(10/gamma) steps.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    for q in range(1, 65):
        if abs(q * alpha - round(q * alpha)) < 1e-9:
            raise ValueError(f"alpha is too close to a rational with denominator {q}")
    if not (0.0 < gamma < min(alpha, 1.0 - alpha)):
        raise ValueError("need 0 < gamma < min(alpha, 1 - alpha)")
    j_max = math.ceil(10.0 / gamma)

    def first_hit(x: float) -> int:
        y = x
        for j in range(j_max + 1):
            if y < gamma:
                return j
            y = (y + alpha) % 1.0
        raise InternalError(f"first-entry search exceeded {j_max} rotations; "
                            f"orbit is not equidistributing as expected")

    labels = []
    defect_count = 0
    for k in range(n_samples):
        x = (k * alpha) % 1.0
        if x < gamma:
            defect_count += 1
        labels.append(first_hit(x) % 2)
    return RotationColoring(labels=labels, defect_count=defect_count)
