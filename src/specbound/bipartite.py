"""Bipartiteness through spectral symmetry, with an explicit extraction.

For a connected d-regular graph three statements coincide: the graph is
bipartite, the adjacency spectrum is symmetric about 0, and -d is an
eigenvalue, whose eigenvector is then the +-1 side vector s: ``A s = -d s``
holds exactly when every edge joins the two sides.  The test below reports
the two spectral indicators and, in the regular case, takes the sides from
the signs of one shifted linear solve, reporting them only when that exact
O(m) edge check passes.  A plain BFS 2-coloring is the independent oracle.

``rotation_two_coloring`` is the odd one out: it builds the classical
2-coloring of an irrational-rotation orbit graph off a small interval
C = [0, gamma), labeling each point by the parity of its first-entry time
into C.  Along the orbit the entry time drops by one per step until C is hit,
so adjacent samples get different labels except on C itself -- a defect set of
measure gamma.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graphs import Graph, InternalError, Mask, is_connected, mask_of
from .spectral import TOL, adjacency_matrix, adjacency_spectrum, multiset_close

SIGN_EPS = 1e-9  # eigenvector entries closer to 0 than this are undecided


def is_symmetric_spectrum(spectrum: Sequence[float], tol: float = TOL) -> bool:
    return multiset_close(spectrum, [-v for v in spectrum], tol)


@dataclass
class BipartiteVerdict:
    symmetric_spectrum: bool
    minus_d_in_spectrum: bool
    bipartition: Optional[Tuple[Mask, Mask]]
    regular: bool
    note: str = ""


def spectral_bipartite_test(g: Graph, tol: float = TOL) -> BipartiteVerdict:
    """Spectral bipartiteness indicators, plus extraction when regular.

    Connected graphs only.  For non-regular graphs the -d indicator is
    computed against -M (M = ||T||) and extraction is skipped, flagged in
    ``note``; -M is an eigenvalue of a connected graph iff it is bipartite.
    """
    if not is_connected(g):
        raise ValueError("spectral bipartiteness test needs a connected graph")
    spec = adjacency_spectrum(g)
    regular = g.is_regular
    ref = g.max_degree if regular else spec[-1]
    symmetric = is_symmetric_spectrum(spec, tol)
    minus_d_in = any(abs(v + ref) <= tol for v in spec)

    bipartition = None
    note = ""
    if regular and minus_d_in and g.n >= 2:
        bipartition = _sign_sides(g, spec)
        if bipartition is None:
            note = "-d lies within tol of the spectrum, but no sign pattern is a bipartition"
    elif not regular:
        note = "graph is not regular: indicator uses -M in place of -d, extraction skipped"
    return BipartiteVerdict(symmetric_spectrum=symmetric,
                            minus_d_in_spectrum=minus_d_in,
                            bipartition=bipartition, regular=regular, note=note)


def _sign_sides(g: Graph, spec: Sequence[float]) -> Optional[Tuple[Mask, Mask]]:
    """The sides of the least eigenvector's sign pattern, vertex 0's first;
    None when some entry lies within ``SIGN_EPS`` of 0 or some edge has both
    ends on one side.

    The vector is one step of inverse iteration: solve ``(A - (l0 - delta) I)
    x = b`` for a fixed b, l0 and l1 the two least computed eigenvalues and
    delta = 1e-8 (l1 - l0), then scale x to unit length.  On a connected
    regular bipartite graph -d is a simple eigenvalue and x is the side
    vector up to scale, so every check passes; on any other graph no sign
    pattern passes the edge check, whatever the solve returns.
    """
    mat = adjacency_matrix(g)
    l0, l1 = spec[0], spec[1]
    mat[np.diag_indices(g.n)] = 1e-8 * (l1 - l0) - l0  # A has a zero diagonal
    try:
        x = np.linalg.solve(mat, np.sin(np.arange(1.0, g.n + 1.0)))
    except np.linalg.LinAlgError:  # an exactly singular shift
        return None
    x /= np.linalg.norm(x)
    pos = (x > SIGN_EPS).tolist()
    if not (np.abs(x) > SIGN_EPS).all() or any(pos[u] == pos[v] for u, v in g.edges()):
        return None
    a = mask_of(v for v in range(g.n) if pos[v] == pos[0])
    return a, g.full_mask & ~a


def bfs_bipartition_oracle(g: Graph) -> Optional[Tuple[Mask, Mask]]:
    """BFS 2-coloring; None iff some component has an odd cycle."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.adj[v]:
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    a = mask_of(v for v in range(g.n) if side[v] == 0)
    return a, g.full_mask & ~a


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
