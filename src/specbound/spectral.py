"""Spectra of the adjacency and Laplacian operators, and the derived bounds.

For a finite graph with uniform measure the adjacency operator acts by
summing over neighbors, ``(Tf)(x) = sum_{y ~ x} f(y)``; the Laplacian is
``L = D - T``.  The Rayleigh extremes

    m(T) = min spec,  M(T) = max spec = ||T||

drive everything here: the greedy-peeling chromatic bound ``floor(M)+1``, the
Hoffman-type lower bound ``ceil(1 - M/m)``, independence-ratio bounds, the
spectral gap of regular graphs, and the mean-zero Laplacian extremes used by
the matching criteria.  The antidiagonal operator ``[[0, T], [T, 0]]`` of the
bipartite double cover is not built: on a finite graph it is ``sigma_x (x) T``,
so its spectrum is ``spec T u -spec T`` by algebra.  Likewise a bipartite
graph with sides of p and q vertices, ordered side by side, has
``T = [[0, B], [B^T, 0]]`` for its p x q biadjacency block B, so its spectrum
is ``-sigma(B)``, ``|q - p|`` zeros and ``sigma(B)`` by algebra (the singular
values of B; Cvetkovic, Doob and Sachs, *Spectra of Graphs*, 1980).

The eigensolves are dense: numpy ``eigvalsh`` on the symmetric operator,
except on an irregular bipartite graph of at least ``_SVD_MIN_N`` vertices,
whose adjacency spectrum is read off B's singular values, from numpy's
``svd``.  Both are capped at matrix order 4096, which is checked before any
matrix is allocated; at that scale the solvers are exact to far better than
the 1e-9 tolerance used throughout.  Each ``Graph`` is solved at most
once per operator: ``laplacian_spectrum`` and ``adjacency_spectrum`` keep
their results on the graph, and every caller (``bounds``, the dense
fallbacks of ``norm_floor``, ``bipartite`` and the Tutte scan's flag) reads
them there.
On a d-regular graph, where ``T = dI - L``, the adjacency spectrum is taken
from the Laplacian's solve, so one solve gives both.

Tolerance policy, stated once for the whole package:

- ``TOL = 1e-9`` is the default tolerance of every comparison between
  computed eigenvalues (and the ``--tol`` default of the CLI).  ``--tol``
  reaches only those comparisons (the spectral gap, the bipartite
  indicators, the doubled-gap and two-set flags, ``limit``'s merge), never
  an eigensolve, so it never changes a printed spectrum (the certificates
  of the bipartite indicators and the doubled-gap flag shift by it, to
  settle those same comparisons);
- integer-valued bounds snap by ``TOL`` before rounding, so a computed
  2.9999999999 floors to 3 (``snapped_floor``) and 2.0000000001 ceils to 2
  (``snapped_ceil``);
- the CLI rounds every real it prints to 12 significant digits, so output is
  byte-identical across runs and platforms whose solvers agree that far.
  No rounding makes that hold across BLAS thread counts: a solve's
  eigenvalues move between them within its absolute error, about
  ``n eps d`` (7e-13 at n = 1000, d = 3), so a 12th digit next to a
  rounding boundary can flip, and a value below about ``1e11 n eps d`` in
  magnitude prints digits finer than that error (unpinned, the path on
  1000 vertices printed its smallest nonzero Laplacian eigenvalue as
  9.8695962823e-06 on one thread and 9.86959628246e-06 on two).  So
  importing ``specbound`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy
  loads, which fixes the summation order: the bytes are those of one
  thread whatever count the environment asks for.  The cost is
  single-threaded solves on a multi-core host (one n = 1000 ``eigvalsh``,
  best of 7 on a 2-core x86-64 host: 0.118 s on one thread, 0.055 s on
  two).  The limit: a program that loaded numpy before ``specbound`` keeps
  its own thread count, and nothing is claimed across CPUs or BLAS builds.
  A spectrum symmetric by algebra can print a pair ``+-x`` with different
  last digits, except where it is taken from ``sigma(B)``: those pairs are
  exact negatives;
- ``margin(g) = 8 n (d + 1) eps`` (``eta``; d the maximum degree, eps the
  double-precision machine epsilon) is the error model: the package takes
  a dense solve's eigenvalues to stray on ``g`` by at most ``eta``, a small
  multiple of ``n eps ||A||`` with ``||A|| <= d``, the size these errors
  have in practice, not a proven bound.  Every certificate below is exact
  or proved, and settles an answer only if it is the answer for every
  value within ``eta`` of the quantity it brackets, so, under that model,
  the solve it replaces would print the same bytes; the model is all that
  "certified" takes on trust.  Where ``eta`` exceeds ``TOL`` (large dense
  graphs) nothing near a snap boundary is certified;
- one noise level, ``max(TOL, eta)``, serves both the solves' sanity
  checks (adjacency eigenvalues within [-d, d], the Laplacian's
  nonnegative, each up to that level) and the zeroing rule: after the
  checks every eigenvalue with ``|x| <= max(TOL, eta)`` is set to 0.0, as
  such digits are solver noise (the Laplacian kernel's, for one) and moved
  with the BLAS thread count.

Which answers are certified and which go dense:

- ``norm_floor`` (the ``floor(M)`` behind ``color --algorithm wilf``) is
  certified by the bracket ``hofmeister(g) <= M <= d``, by the proved gap
  ``d - M >= 1 / (n (2e + 1))`` of a connected irregular graph
  (``_irregular_gap``), or by ``M <= sqrt(W)`` for the most 2-walks W from
  a vertex; else the adjacency spectrum decides;
- the ``bipartite`` indicators are certified true by a BFS 2-coloring and
  false by the proved gap ``d + l_min >= 2 / (n (4e + 1))`` of a regular
  graph with an odd cycle (``bipartite._odd_cycle_gap``); else the
  adjacency spectrum decides (``bipartite.spectral_bipartite_test``);
- the Tutte scan's doubled-gap flag ``2 mL >= ML`` is certified false when
  ``2 U < Lo - tol - 4 eta`` for two exact integer ratios, a Rayleigh
  quotient ``U >= mL`` and ``Lo = Delta + 1 <= ML``; otherwise the
  Laplacian spectrum decides (``matching._doubled_gap_holds``);
- the two gaps are proved, with e the eccentricity of vertex 0 from one
  BFS; a factor of 2 in each test absorbs its own rounding.  What rests on
  ``eta`` is only that the dense path would print the same bytes;
- none of the three builds a matrix, and each runs only on a graph that
  does not yet carry the spectrum it would replace, so a caller that has
  solved it (``bounds`` before them, as in ``verify`` and the oracle
  sweeps) reads it instead;
- every real-valued output (``spectrum``, ``bounds``) but ``limit``'s
  comes from a dense solve, or on a regular graph from the Laplacian's as
  ``d - lambda``: no certificate is cheaper than ``eigvalsh`` there at
  n <= 4096.  The solve is of the whole operator, but of B for the
  adjacency spectrum of an irregular bipartite graph of at least
  ``_SVD_MIN_N`` vertices.  ``limit`` takes each cycle's spectrum from its
  closed form (``limits.cycle_spectrum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graphs import (CapExceeded, Graph, InternalError, Mask, _two_coloring, bfs_levels, bits,
                     is_connected)

TOL = 1e-9
MAX_DENSE_N = 4096
EPS = float(np.finfo(float).eps)


def snapped_floor(x: float) -> int:
    """floor with a ``TOL`` nudge so that 2.9999999999 floors to 3."""
    return math.floor(x + TOL)


def snapped_ceil(x: float) -> int:
    return math.ceil(x - TOL)


def multiset_close(a: Sequence[float], b: Sequence[float], tol: float = TOL) -> bool:
    """Multiset equality by greedy pairing of the two sorted lists."""
    if len(a) != len(b):
        return False
    sa, sb = sorted(a), sorted(b)
    return all(abs(x - y) <= tol for x, y in zip(sa, sb))


# Irregular bipartite graphs of at least _SVD_MIN_N vertices take their
# adjacency spectrum from an SVD of the biadjacency block.  Measured per call,
# matrix build included, on 10 random irregular bipartite graphs of average
# degree 2 each, 2-core host, one BLAS thread: n = 16 23.6 us by eigvalsh
# against 26.7 us by BFS and SVD, n = 24 42.5 against 34.2 us, n = 32 54.3
# against 45.1 us, n = 512 19.5 against 6.5 ms.  The gate sits above the
# crossover, so the sweeps over every small graph (n <= 8) never run the BFS.
_SVD_MIN_N = 32


def _check_dense(n: int) -> None:
    if n > MAX_DENSE_N:
        raise CapExceeded(f"dense eigensolve capped at n={MAX_DENSE_N}")


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense adjacency matrix; every dense solve builds through it, so the
    size cap is checked here, before anything is allocated."""
    _check_dense(g.n)
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def _bipartite_spectrum(g: Graph, side: Sequence[int]) -> List[float]:
    """The adjacency spectrum of a bipartite graph with sides ``side``, from
    the singular values of its p x q biadjacency block B: with the vertices
    ordered side by side ``A = [[0, B], [B^T, 0]]``, whose eigenvalues are
    ``-sigma(B)``, ``|q - p|`` zeros and ``sigma(B)``."""
    index, count = [0] * g.n, [0, 0]
    for v in range(g.n):
        index[v] = count[side[v]]
        count[side[v]] += 1
    b = np.zeros(count)
    for u, v in g.edges():
        if side[u]:
            u, v = v, u
        b[index[u], index[v]] = 1.0
    sigma = np.linalg.svd(b, compute_uv=False)  # descending
    return np.concatenate((-sigma, np.zeros(abs(count[0] - count[1])), sigma[::-1])).tolist()


def laplacian_matrix(g: Graph) -> np.ndarray:
    lap = adjacency_matrix(g)
    np.negative(lap, out=lap)
    lap[np.diag_indices(g.n)] = g.degrees
    return lap


def _noise(g: Graph) -> float:
    """The one noise level of the tolerance policy, ``max(TOL, eta)``."""
    return max(TOL, margin(g))


def _denoised(vals: List[float], noise: float) -> Tuple[float, ...]:
    """The zeroing rule of the tolerance policy: ``|x| <= noise`` is 0.0."""
    return tuple(0.0 if abs(v) <= noise else v for v in vals)


def laplacian_spectrum(g: Graph) -> Tuple[float, ...]:
    """Eigenvalues of L = D - T, sorted; nonnegative up to the noise level,
    kernel dim = #components.  Solved once per graph and kept on it."""
    if g._lap_spectrum is None:
        vals = np.linalg.eigvalsh(laplacian_matrix(g))
        noise = _noise(g)
        if len(vals) and vals[0] < -noise:
            raise InternalError("negative Laplacian eigenvalue; eigensolve is "
                                "untrustworthy here")
        g._lap_spectrum = _denoised(vals.tolist(), noise)
    return g._lap_spectrum


def adjacency_spectrum(g: Graph) -> Tuple[float, ...]:
    """Eigenvalues of the adjacency operator, sorted; within [-d, d] up to
    the noise level.  Kept on the graph once computed.

    On a d-regular graph ``T = dI - L``, so the values are ``d - lambda``,
    in reverse order, from ``laplacian_spectrum``'s one solve; the Laplacian
    is the operator solved, so its own values are never derived ones.  On
    any other bipartite graph of at least ``_SVD_MIN_N`` vertices they are
    ``+-sigma`` of the biadjacency block (``_bipartite_spectrum``).
    """
    if g._adj_spectrum is None:
        d = g.max_degree
        if g.is_regular:
            vals = [d - x for x in reversed(laplacian_spectrum(g))]
        else:
            _check_dense(g.n)
            side = _two_coloring(g) if g.n >= _SVD_MIN_N else None
            if side is None:
                vals = np.linalg.eigvalsh(adjacency_matrix(g)).tolist()
            else:
                vals = _bipartite_spectrum(g, side)
        noise = _noise(g)
        if vals and (vals[0] < -d - noise or vals[-1] > d + noise):
            raise InternalError("adjacency eigenvalue escaped the degree bound; "
                                "eigensolve is untrustworthy here")
        g._adj_spectrum = _denoised(vals, noise)
    return g._adj_spectrum


def margin(g: Graph) -> float:
    """``eta`` of the tolerance policy: the error the package allows a dense
    solve on ``g``'s adjacency operator, the size such errors have in
    practice (not a worst-case bound)."""
    return 8.0 * g.n * (g.max_degree + 1) * EPS


def norm_floor(g: Graph) -> int:
    """``snapped_floor(M)``, certified without an eigensolve when it can be.

    A spectrum kept on ``g`` decides.  Else Hofmeister's bound and
    ``M <= d`` bracket M; let t be the snapped floor of the lower end less
    ``eta``.  If t = d, every value within ``eta`` of M snaps to d (always
    so on regular graphs).  If t = d - 1 on a connected irregular graph and
    ``_irregular_gap`` exceeds ``TOL + eta`` twice over, every value within
    ``eta`` of M stays below the snap boundary ``d - TOL``.  Else
    ``M^2``, the Perron root of ``A^2``, is at most its largest row sum W,
    the most 2-walks from a vertex, and ``sqrt(W) + TOL + 2 eta < t + 1``
    does the same for ``t + 1 - TOL``.  In each case t is the answer, and
    no matrix is built; if none closes the adjacency spectrum decides.
    """
    _check_dense(g.n)
    if g._adj_spectrum is not None:
        return snapped_floor(g._adj_spectrum[-1])
    eta = margin(g)
    t = snapped_floor(hofmeister(g) - eta)
    if t == g.max_degree:
        return t
    if t == g.max_degree - 1 and not g.is_regular:  # M = d on a regular graph
        levels = bfs_levels(g)
        if levels.count(0) == 1 and TOL + eta < _irregular_gap(g.n, max(levels)) / 2:
            return t
    walks = max(sum(g.degrees[u] for u in nbrs) for nbrs in g.adj)
    if math.sqrt(walks) + TOL + 2 * eta < t + 1:
        return t
    return snapped_floor(adjacency_spectrum(g)[-1])


def _irregular_gap(n: int, e: int) -> float:
    """``1 / (n (2e + 1)) <= d - M`` on a connected irregular graph of
    order n, maximum degree d and some vertex of eccentricity e.

    For the Perron unit vector x, ``d - M = sum_v (d - d_v) x_v^2 +
    sum_{uv in E} (x_u - x_v)^2``.  Take ``x_v^2 >= 1/n`` and w of degree
    below d at distance ``l <= 2e`` from v: Cauchy-Schwarz along a shortest
    path gives ``d - M >= x_w^2 + (x_v - x_w)^2 / l >= x_v^2 / (l + 1)``.
    On paths the gap is within a factor pi^2 of this (cf. Cioaba, EJC 2007).
    """
    return 1.0 / (n * (2 * e + 1))


def hofmeister(g: Graph) -> float:
    """``sqrt(sum d_v^2 / n)``, a lower bound on M: the Rayleigh quotient of
    ``A^2`` at the constant vector is ``sum d_v^2 / n``."""
    return math.sqrt(sum(d * d for d in g.degrees) / g.n)


def _gap(adj: Sequence[float], d: int, tol: float) -> float:
    """Gap below the degree eigenvalue d of a connected d-regular graph."""
    below = [v for v in adj if v < d - tol]
    if not below:
        raise ValueError("no eigenvalue below the degree; gap undefined")
    return d - max(below)


@dataclass(frozen=True)
class BlockExtremes:
    m: float
    M: float


def block_extremes(g: Graph, parts: Sequence[Mask]) -> List[BlockExtremes]:
    """Rayleigh extremes of the diagonal blocks of T under a vertex partition.

    The diagonal block for a part is the adjacency operator of the induced
    subgraph.  Parts must be disjoint and cover the vertex set; empty parts
    are legal and contribute (0, 0).
    """
    union = 0
    for p in parts:
        if union & p:
            raise ValueError("partition has overlapping parts")
        union |= p
    if union != g.full_mask:
        raise ValueError("partition must cover all vertices")
    a = adjacency_matrix(g)
    out = []
    for p in parts:
        if p == 0:
            out.append(BlockExtremes(0.0, 0.0))
            continue
        vs = list(bits(p))
        vals = np.linalg.eigvalsh(a[np.ix_(vs, vs)])
        out.append(BlockExtremes(float(vals[0]), float(vals[-1])))
    return out


@dataclass(frozen=True)
class SpectralBounds:
    """Bundle of the spectral quantities used by the coloring/matching work.

    ``mL``/``ML``, the Laplacian's Rayleigh extremes on mean-zero functions,
    are its second-smallest and largest eigenvalues on a connected graph.

    ``None`` marks a value whose precondition fails: ``hoffman`` on edgeless
    graphs, ``gap`` off connected regular graphs, ``mL``/``ML`` off connected
    graphs, ``independence_bound`` off regular graphs with an edge.
    """

    M: float
    m: float
    wilf: int
    hoffman: Optional[int]
    gap: Optional[float]
    mL: Optional[float]
    ML: Optional[float]
    independence_bound: Optional[float]
    mindeg_independence_bound: Optional[float]


def bounds(g: Graph, tol: float = TOL) -> SpectralBounds:
    """Every bound of ``g`` from its adjacency and Laplacian spectra; ``tol``
    is the gap's comparison tolerance."""
    adj, lap = adjacency_spectrum(g), laplacian_spectrum(g)
    m_t, big_m = adj[0], adj[-1]
    d = g.max_degree
    connected = g.n >= 2 and is_connected(g)
    m_l, big_l = (lap[1], lap[-1]) if connected else (None, None)
    has_edge = g.m > 0
    return SpectralBounds(
        M=big_m, m=m_t, wilf=snapped_floor(big_m) + 1,
        hoffman=snapped_ceil(1.0 - big_m / m_t) if has_edge else None,
        gap=_gap(adj, d, tol) if connected and g.is_regular else None,
        mL=m_l, ML=big_l,
        independence_bound=-m_t / (d - m_t) if has_edge and g.is_regular else None,
        mindeg_independence_bound=1.0 - g.min_degree / lap[-1] if has_edge else None)

