"""Bipartiteness through spectral symmetry, with an explicit extraction.

For a connected d-regular graph three statements coincide: the graph is
bipartite, the adjacency spectrum is symmetric about 0, and -d is an
eigenvalue.  The test below reports the two spectral indicators and, in the
regular case with -d present, extracts the two sides from the sign pattern of
the -d eigenvector (entries too close to zero land in a defect set, which is
empty for exact finite instances).  That eigenvector comes from one shifted
linear solve whose signs a Davis-Kahan residual bound certifies; only when
the bound does not close (a multiple or nearly multiple least eigenvalue)
does a full ``eigh`` run.  A plain BFS 2-coloring serves as the independent
oracle.

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
from typing import List, Optional, Tuple

import numpy as np

from .graphs import Graph, InternalError, Mask, is_connected, mask_of
from .spectral import (TOL, Spectrum, adjacency_matrix, adjacency_spectrum, margin,
                       multiset_close)

SIGN_EPS = 1e-9  # eigenvector entries closer to 0 than this are "defect"


def is_symmetric_spectrum(spectrum: Spectrum, tol: float = TOL) -> bool:
    vals = list(spectrum.values)
    return multiset_close(vals, [-v for v in vals], tol)


@dataclass
class BipartiteVerdict:
    symmetric_spectrum: bool
    minus_d_in_spectrum: bool
    bipartition: Optional[Tuple[Mask, Mask]]
    defect: Mask
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
    spec = adjacency_spectrum(g, tol)
    regular = g.is_regular
    ref = g.max_degree if regular else spec.max
    symmetric = is_symmetric_spectrum(spec, tol)
    minus_d_in = spec.contains(-ref)

    bipartition = None
    defect = 0
    note = ""
    if regular and minus_d_in and g.n >= 2:
        mat = adjacency_matrix(g)
        vec = _certified_bottom_vector(g, mat, spec)
        if vec is None:
            vec = np.linalg.eigh(mat)[1][:, 0]  # eigenvector of the least eigenvalue
        pos = mask_of(v for v in range(g.n) if vec[v] > SIGN_EPS)
        neg = mask_of(v for v in range(g.n) if vec[v] < -SIGN_EPS)
        defect = g.full_mask & ~(pos | neg)
        # canonical sides: the one holding the least classified vertex first
        lo = (pos | neg) & -(pos | neg)
        if lo & neg:
            pos, neg = neg, pos
        bipartition = (pos, neg)
    elif not regular:
        note = "graph is not regular: indicator uses -M in place of -d, extraction skipped"
    return BipartiteVerdict(symmetric_spectrum=symmetric,
                            minus_d_in_spectrum=minus_d_in,
                            bipartition=bipartition, defect=defect,
                            regular=regular, note=note)


def _certified_bottom_vector(g: Graph, mat: np.ndarray,
                             spec: Spectrum) -> Optional[np.ndarray]:
    """An eigenvector of the least eigenvalue whose signs are certified to be
    those ``eigh`` would give, with no entry within ``SIGN_EPS`` of 0; None
    when one shifted solve cannot certify that.

    One step of inverse iteration: solve ``(A - (l0 - delta) I) x = b`` for a
    fixed b, l0 and l1 the two least computed eigenvalues and delta = 1e-8
    (l1 - l0).  With x a unit vector, theta its Rayleigh quotient and
    ``r = ||Ax - theta x||``, Davis-Kahan (1970) bounds the angle to the true
    eigenvector by ``r / (l1 - theta)``, so each entry of x lies within
    ``sqrt(2) r / gap`` of it; ``eigh``'s vector lies within ``sqrt(2) eta /
    gap`` of it as well (``eta = spectral.margin``, which also absorbs l1's
    error and the rounding in r).  x is accepted when every entry clears
    ``SIGN_EPS`` by both.  A multiple or nearly multiple least eigenvalue
    leaves no gap and goes to ``eigh``.
    """
    eta = margin(g)
    l0, l1 = spec.values[0], spec.values[1]
    if l1 - l0 <= 2.0 * eta:
        return None
    diag = np.diag_indices(g.n)
    mat[diag] = 1e-8 * (l1 - l0) - l0  # shift in place: A has a zero diagonal
    try:
        x = np.linalg.solve(mat, np.sin(np.arange(1.0, g.n + 1.0)))
    except np.linalg.LinAlgError:
        return None
    finally:
        mat[diag] = 0.0
    x /= np.linalg.norm(x)
    ax = mat @ x
    theta = float(x @ ax)
    gap = l1 - eta - theta
    if not gap > 0.0:
        return None
    error = math.sqrt(2.0) * (float(np.linalg.norm(ax - theta * x)) + 2.0 * eta) / gap
    return x if float(np.abs(x).min()) > SIGN_EPS + error else None


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
