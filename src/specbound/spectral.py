"""Spectra of the adjacency and Laplacian operators, and the derived bounds.

For a finite graph with uniform measure the adjacency operator acts by
summing over neighbors, ``(Tf)(x) = sum_{y ~ x} f(y)``; the Laplacian is
``L = D - T``.  The Rayleigh extremes

    m(T) = min spec,  M(T) = max spec = ||T||

drive everything here: the greedy-peeling chromatic bound ``floor(M)+1``, the
Hoffman-type lower bound ``ceil(1 - M/m)``, independence-ratio bounds, the
spectral gap of regular graphs, and the mean-zero Laplacian extremes used by
the matching criteria.

All eigensolves are dense symmetric (numpy ``eigvalsh``/``eigh``), as are
the Cholesky factorization and the linear solve of the certificates below.
All are capped at matrix order 4096, which is checked before any matrix is
allocated; at that scale the solvers are exact to far better than the 1e-9
tolerance used throughout.  ``bounds`` and ``spectral_report`` solve
the adjacency and the Laplacian spectrum once each and derive every quantity
from those two.

Tolerance policy, stated once for the whole package:

- ``TOL = 1e-9`` is the default tolerance of every comparison between
  computed eigenvalues (and the ``--tol`` default of the CLI);
- integer-valued bounds snap by ``TOL`` before rounding, so a computed
  2.9999999999 floors to 3 (``snapped_floor``) and 2.0000000001 ceils to 2
  (``snapped_ceil``);
- the CLI rounds every real it prints to 12 significant digits, so output is
  byte-identical across runs and platforms whose solvers agree that far;
- ``margin(g) = 8 n (d + 1) eps`` (``eta``; d the maximum degree, eps the
  double-precision machine epsilon) bounds how far a dense solve's eigenvalue
  or eigenvector, or a factorization's backward error, may stray on ``g``:
  each is a small multiple of ``n eps ||A||``, and ``||A|| <= d``.  A
  certificate below settles an answer only if it is the answer for every
  value within ``eta`` of the quantity it brackets, so the dense solve it
  replaces would print the same bytes.  Where ``eta`` exceeds ``TOL`` (large
  dense graphs) nothing near a snap boundary is certified;
- the solves' own sanity checks (adjacency eigenvalues within [-d, d], the
  Laplacian's nonnegative) allow the larger of ``tol`` and ``eta``, so a
  ``tol`` finer than the solver's precision is not an internal fault.

Which answers are certified and which go dense:

- ``norm_floor`` (the ``floor(M)`` behind ``color --algorithm wilf`` and
  ``coloring.wilf_color``) is certified by the bracket
  ``sqrt(sum d_v^2 / n) <= M <= d`` alone when both ends snap alike (always
  on regular graphs, where they meet), else by one Cholesky factorization
  of ``(t + 1 - TOL - eta) I - A`` for the lower end's t; when that fails it
  takes the dense spectrum;
- the -d eigenvector of ``bipartite`` is certified by one shifted solve with
  a Davis-Kahan residual bound (``bipartite.spectral_bipartite_test``), else
  taken from ``eigh``;
- every real-valued output (``spectrum``, ``bounds``, ``limit``, the Tutte
  scan's doubled-gap flag) comes from a dense solve: no certificate is
  cheaper than ``eigvalsh`` there at n <= 4096.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graphs import CapExceeded, Graph, InternalError, Mask, bits, is_connected

TOL = 1e-9
MAX_DENSE_N = 4096
EPS = float(np.finfo(float).eps)


def snapped_floor(x: float) -> int:
    """floor with a ``TOL`` nudge so that 2.9999999999 floors to 3."""
    return math.floor(x + TOL)


def snapped_ceil(x: float) -> int:
    return math.ceil(x - TOL)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset, sorted ascending, with a comparison tolerance."""

    values: Tuple[float, ...]
    tol: float = TOL

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __iter__(self):
        return iter(self.values)

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]

    def contains(self, x: float) -> bool:
        return any(abs(v - x) <= self.tol for v in self.values)


def multiset_close(a: Sequence[float], b: Sequence[float], tol: float = TOL) -> bool:
    """Multiset equality by greedy pairing of the two sorted lists."""
    if len(a) != len(b):
        return False
    sa, sb = sorted(a), sorted(b)
    return all(abs(x - y) <= tol for x, y in zip(sa, sb))


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


def laplacian_matrix(g: Graph) -> np.ndarray:
    lap = -adjacency_matrix(g)
    lap[np.diag_indices(g.n)] = g.degrees
    return lap


def adjacency_spectrum(g: Graph, tol: float = TOL) -> Spectrum:
    """Eigenvalues of the adjacency operator; always within [-d, d], up to
    the larger of ``tol`` and the solver's own error ``margin(g)``."""
    vals = np.linalg.eigvalsh(adjacency_matrix(g))
    slack = g.max_degree + max(tol, margin(g))
    if len(vals) and (vals[0] < -slack or vals[-1] > slack):
        raise InternalError("adjacency eigenvalue escaped the degree bound; "
                            "eigensolve is untrustworthy here")
    return Spectrum(tuple(vals), tol)


def laplacian_spectrum(g: Graph, tol: float = TOL) -> Spectrum:
    """Eigenvalues of L = D - T; nonnegative (up to the larger of ``tol`` and
    ``margin(g)``), kernel dim = #components."""
    vals = np.linalg.eigvalsh(laplacian_matrix(g))
    if len(vals) and vals[0] < -max(tol, margin(g)):
        raise InternalError("negative Laplacian eigenvalue; eigensolve is "
                            "untrustworthy here")
    return Spectrum(tuple(vals), tol)


def margin(g: Graph) -> float:
    """``eta`` of the tolerance policy: the largest error a dense solve or
    a factorization may make on ``g``'s adjacency operator."""
    return 8.0 * g.n * (g.max_degree + 1) * EPS


def norm_floor(g: Graph, tol: float = TOL) -> int:
    """``snapped_floor(M)``, certified without an eigensolve when it can be.

    Hofmeister's bound ``M^2 >= sum d_v^2 / n`` (Rayleigh quotient of ``A^2``
    at the constant vector) and ``M <= d`` bracket M.  Let t be the snapped
    floor of the lower end less ``eta``.  If t = d, every value within
    ``eta`` of M snaps to d (always so on regular graphs, where the ends
    meet).  Otherwise a Cholesky factorization of ``(t + 1 - TOL - eta) I - A``
    proves ``M + eta < t + 1 - TOL``, so t is the answer.  If it fails the
    dense spectrum decides, exactly as ``adjacency_spectrum(g, tol).max``
    would.
    """
    _check_dense(g.n)
    eta = margin(g)
    t = snapped_floor(math.sqrt(sum(d * d for d in g.degrees) / g.n) - eta)
    if t == g.max_degree:
        return t
    shifted = adjacency_matrix(g)
    np.negative(shifted, out=shifted)
    shifted[np.diag_indices(g.n)] = t + 1 - TOL - eta
    try:
        np.linalg.cholesky(shifted)
        return t
    except np.linalg.LinAlgError:
        return snapped_floor(adjacency_spectrum(g, tol).max)


def _check_gap_domain(g: Graph) -> None:
    if not g.is_regular:
        raise ValueError("spectral gap is defined for regular graphs")
    if not is_connected(g):
        raise ValueError("spectral gap needs a connected graph")


def _gap(adj: Spectrum, d: int) -> float:
    """Gap below the degree eigenvalue d of a connected d-regular graph."""
    below = [v for v in adj if v < d - adj.tol]
    if not below:
        raise ValueError("no eigenvalue below the degree; gap undefined")
    return d - max(below)


def _mean_zero(lap: Spectrum) -> Tuple[float, float]:
    """Second-smallest and largest Laplacian eigenvalue of a connected graph."""
    return lap.values[1], lap.values[-1]


def mean_zero_extremes(g: Graph, tol: float = TOL) -> Tuple[float, float]:
    """Rayleigh extremes of the Laplacian restricted to mean-zero functions.

    For a connected graph these are the second-smallest and the largest
    Laplacian eigenvalues.
    """
    if not is_connected(g):
        raise ValueError("mean-zero extremes need a connected graph")
    if g.n < 2:
        raise ValueError("mean-zero extremes need at least two vertices")
    return _mean_zero(laplacian_spectrum(g, tol))


@dataclass(frozen=True)
class BlockExtremes:
    m: float
    M: float


def block_extremes(g: Graph, parts: Sequence[Mask], tol: float = TOL) -> List[BlockExtremes]:
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


def antidiagonal_spectrum(g: Graph, tol: float = TOL) -> Spectrum:
    """Spectrum of the operator [[0, T], [T, 0]] on the doubled vertex set.

    Computed from the actual 2n x 2n matrix; equals the symmetrization
    spec(T) union -spec(T) as a multiset, which the tests cross-check.
    """
    _check_dense(2 * g.n)
    a = adjacency_matrix(g)
    z = np.zeros_like(a)
    big = np.block([[z, a], [a, z]])
    return Spectrum(tuple(np.linalg.eigvalsh(big)), tol)


@dataclass(frozen=True)
class SpectralBounds:
    """Bundle of the spectral quantities used by the coloring/matching work.

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


def _bounds_from(g: Graph, adj: Spectrum, lap: Spectrum) -> SpectralBounds:
    """Every bound of ``g`` from its adjacency and Laplacian spectra."""
    m_t, big_m = adj.min, adj.max
    d = g.max_degree
    connected = g.n >= 2 and is_connected(g)
    m_l, big_l = _mean_zero(lap) if connected else (None, None)
    has_edge = g.m > 0
    return SpectralBounds(
        M=big_m, m=m_t, wilf=snapped_floor(big_m) + 1,
        hoffman=snapped_ceil(1.0 - big_m / m_t) if has_edge else None,
        gap=_gap(adj, d) if connected and g.is_regular else None,
        mL=m_l, ML=big_l,
        independence_bound=-m_t / (d - m_t) if has_edge and g.is_regular else None,
        mindeg_independence_bound=1.0 - g.min_degree / lap.max if has_edge else None)


def bounds(g: Graph, tol: float = TOL) -> SpectralBounds:
    return _bounds_from(g, adjacency_spectrum(g, tol), laplacian_spectrum(g, tol))


def spectral_report(g: Graph, tol: float = TOL) -> dict:
    """The flat report emitted by the CLI ``spectrum`` subcommand."""
    adj, lap = adjacency_spectrum(g, tol), laplacian_spectrum(g, tol)
    b = _bounds_from(g, adj, lap)
    return {
        "n": g.n,
        "d": g.max_degree,
        "spectrum_adj": list(adj.values),
        "spectrum_lap": list(lap.values),
        "M": b.M,
        "m": b.m,
        "wilf": b.wilf,
        "hoffman": b.hoffman,
        "gap": b.gap,
        "mL": b.mL,
        "ML": b.ML,
    }
