"""Undirected mesh graphs and their spectral operators.

A triangular mesh is treated as an undirected graph: ``adjacency_matrix``
takes its unique edges (``meshes.edge_set``) and holds one symmetric 0/1
entry per edge, and the (unnormalized) Laplacian is the diagonal of the
adjacency's row sums minus the adjacency. A graph is its adjacency: every
function here takes and returns plain ``scipy.sparse`` CSR matrices with
sorted indices. The Laplacian is positive semi-definite with zero row sums,
and its rescaled form (``scaled_laplacian``) has its spectrum in [-1, 1].

The spectral solvers pick their method from the graph size and the number of
eigenpairs requested, nothing else. Small graphs, and requests for much of
the spectrum, take LAPACK's dense symmetric solver: there it is the faster
one. Larger graphs take ARPACK's Lanczos iteration on the sparse matrix
(``scipy.sparse.linalg.eigsh``): the pipeline needs only a few extreme
eigenpairs (the low end for segmentation, the top value for Chebyshev
scaling), and on the 4023-vertex hand template a dense solve costs seconds
where Lanczos costs milliseconds. ``ARPACK_MIN_VERTICES`` sets the switch.
ARPACK starts from a fixed vector rather than its default random one, so
both paths give bitwise repeatable results.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import ArgumentError, NumericalError, StructuralError

# Eigenvalues above this magnitude count as nonzero when counting connected
# components; below it, tiny negatives are clamped to exactly zero.
ZERO_EIGENVALUE_TOL = 1e-8

# First eigenvector component with magnitude above this threshold is forced
# positive, fixing the sign ambiguity of every eigenvector.
SIGN_CONVENTION_TOL = 1e-10

# ARPACK replaces the dense solver once a graph has this many vertices plus
# 8 per requested eigenpair: the measured crossover of the two on hand
# pyramid levels of 50 to 1600 vertices, k from 1 to 256, 1 BLAS thread.
ARPACK_MIN_VERTICES = 300

# Shift just below the spectrum for the shift-invert solve of the smallest
# eigenpairs: L - SHIFT * I is positive definite, so it factors even when L
# is singular, and the eigenvalues nearest the shift are the smallest.
_SHIFT = -1e-2


def adjacency_matrix(edges, n_vertices: int) -> sp.csr_matrix:
    """The symmetric 0/1 CSR adjacency of an undirected edge list.

    Edges may repeat and run either way; each pair becomes one entry in both
    triangles, with indices sorted within rows.

    Raises:
        StructuralError: an endpoint lies outside [0, n_vertices), or an
            edge joins a vertex to itself (a degenerate face's edge).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n_vertices:
            raise StructuralError(f"edge endpoint outside [0, {n_vertices})")
        loops = edges[:, 0] == edges[:, 1]
        if loops.any():
            raise StructuralError(f"edge {int(np.argmax(loops))} joins a vertex to itself")
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n_vertices, n_vertices))
    adj.data[:] = 1.0  # repeated edges summed to more than one
    adj.sort_indices()
    return adj


def laplacian(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """The unnormalized Laplacian: diagonal degree matrix minus adjacency."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    mat = (sp.diags(degrees, format="csr") - adjacency).tocsr()
    mat.sort_indices()
    return mat


def eigendecompose(l: sp.csr_matrix, k: int):
    """The k smallest eigenpairs of a Laplacian as (eigenvalues, eigenvectors).

    The (k,) eigenvalues are nonnegative and ascending; column i of the
    (V, k) orthonormal eigenvectors pairs with eigenvalue i, its sign fixed
    so the first significant component is positive.

    Graphs with fewer than ``ARPACK_MIN_VERTICES + 8 k`` vertices take
    LAPACK's dense symmetric solve (the subset variant when k < |V|). Larger
    ones take ARPACK in shift-invert mode about a point just below zero: each
    iteration solves with a sparse factor of L - shift * I, and the
    eigenvalues nearest the shift, the smallest, converge first. On the
    4023-vertex hand template with k = 8 that takes about 60 ms where the
    dense solve takes 9 s. ARPACK starts from a fixed vector instead of a
    random one, so its output is bitwise repeatable. Eigenvalue clamping and
    the sign convention then apply to either result.

    Raises:
        ArgumentError: k outside [1, |V|].
        NumericalError: the eigensolver failed to converge.
    """
    n = l.shape[0]
    if not 1 <= k <= n:
        raise ArgumentError(f"k must be in [1, {n}], got {k}")
    if _use_arpack(n, k):
        eigenvalues, eigenvectors = _arpack(l, k, sigma=_SHIFT, which="LM")
        order = np.argsort(eigenvalues, kind="stable")
        eigenvalues = eigenvalues[order]
        eigenvectors = eigenvectors[:, order]
    else:
        dense = l.toarray()
        try:
            if k == n:
                eigenvalues, eigenvectors = scipy.linalg.eigh(dense, driver="ev")
            else:
                eigenvalues, eigenvectors = scipy.linalg.eigh(
                    dense, driver="evr", subset_by_index=[0, k - 1])
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    eigenvalues = eigenvalues[:k].copy()
    eigenvectors = eigenvectors[:, :k].copy()
    small_negative = (eigenvalues < 0) & (eigenvalues > -ZERO_EIGENVALUE_TOL)
    eigenvalues[small_negative] = 0.0
    if (eigenvalues < 0).any():
        worst = float(eigenvalues.min())
        raise NumericalError(f"eigenvalue {worst:g} below the PSD tolerance")
    _fix_signs(eigenvectors)
    return eigenvalues, eigenvectors


def _use_arpack(n: int, k: int) -> bool:
    """ARPACK for large graphs when k is a small part of the spectrum.

    The dense cost grows as n^3 whatever k is; ARPACK's grows with the 2k + 1
    Lanczos vectors it keeps, so each requested pair moves the crossover up.
    """
    return n >= ARPACK_MIN_VERTICES + 8 * k


def _arpack(l: sp.csr_matrix, k: int, **kwargs):
    """``eigsh`` from a fixed start vector; ARPACK failures as NumericalError.

    The start vector is seeded noise: ARPACK's default is a random draw,
    which would make repeated runs differ in the last bits, and the constant
    vector is the Laplacian's null vector, whose Krylov space is trivial.
    """
    v0 = np.random.default_rng(0).standard_normal(l.shape[0])
    try:
        return scipy.sparse.linalg.eigsh(l, k=k, v0=v0, **kwargs)
    except scipy.sparse.linalg.ArpackError as exc:
        raise NumericalError(f"ARPACK failed to converge: {exc}") from exc


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip columns in place so the first significant component is positive."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        significant = np.abs(col) > SIGN_CONVENTION_TOL
        if significant.any():
            lead = col[np.argmax(significant)]
            if lead < 0:
                col *= -1.0


def lambda_max(l: sp.csr_matrix) -> float:
    """Largest eigenvalue of a Laplacian, to rounding.

    ARPACK's Lanczos iteration on the sparse matrix from
    ``ARPACK_MIN_VERTICES + 8`` vertices up, LAPACK's dense top-value solve
    below.

    Raises:
        NumericalError: ARPACK failed to converge.
    """
    n = l.shape[0]
    if _use_arpack(n, 1):
        values = _arpack(l, 1, which="LA", return_eigenvectors=False)
    else:
        values = scipy.linalg.eigh(l.toarray(), driver="evr",
                                   subset_by_index=[n - 1, n - 1], eigvals_only=True)
    return float(values[0])


def scaled_laplacian(l: sp.csr_matrix, lam_max: float) -> sp.csr_matrix:
    """Rescale so the spectrum lands in [-1, 1]: 2 L / lambda_max - I.

    Raises:
        ArgumentError: lam_max is not positive.
    """
    if not lam_max > 0:
        raise ArgumentError(f"lambda_max must be positive, got {lam_max}")
    n = l.shape[0]
    mat = (l * (2.0 / lam_max) - sp.identity(n, format="csr")).tocsr()
    mat.sort_indices()
    return mat
