"""Undirected mesh graphs and their spectral operators.

A triangular mesh is treated as an undirected graph: the adjacency matrix
holds one symmetric 0/1 entry per face edge, and the (unnormalized)
Laplacian is the diagonal of its row sums minus the adjacency. Adjacency and
operators are plain ``scipy.sparse`` CSR matrices with sorted indices; the
Laplacian is positive semi-definite with zero row sums, and its rescaled form
(``scaled_laplacian``) has its spectrum in [-1, 1].

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

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class MeshGraph:
    """Undirected graph of a mesh: positions, adjacency, degrees.

    ``adjacency`` is a symmetric CSR 0/1 matrix with zero diagonal and
    canonically sorted indices; ``degrees`` holds its row sums.
    """

    positions: np.ndarray  # (V, 3) float64, meters
    adjacency: sp.csr_matrix  # (V, V)
    degrees: np.ndarray = field(repr=False)  # (V,)

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]

    def edge_array(self) -> np.ndarray:
        """Unique undirected edges as an (E, 2) array with i < j, sorted."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        edges = np.stack([coo.row, coo.col], axis=1).astype(np.int64)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        return edges[order]


@dataclass(frozen=True)
class Spectrum:
    """The k smallest eigenpairs of a Laplacian, ascending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]``. Signs follow
    the first-significant-component-positive convention so repeated runs are
    bitwise identical.
    """

    eigenvalues: np.ndarray  # (k,) nonnegative, ascending
    eigenvectors: np.ndarray  # (V, k) orthonormal columns

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.eigenvectors.shape[0]


def build_mesh_graph(positions, faces) -> MeshGraph:
    """Build the undirected graph of a triangular mesh.

    Every face contributes its three edges; shared edges collapse to a
    single symmetric adjacency entry.

    Raises:
        StructuralError: a face references an out-of-range vertex or repeats
            a vertex (degenerate face).
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise StructuralError(f"positions must be (V, 3), got {positions.shape}")
    n = positions.shape[0]
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        faces = faces.reshape(0, 3)
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise StructuralError(f"faces must be (F, 3), got {faces.shape}")
    if faces.size:
        if faces.min() < 0 or faces.max() >= n:
            bad = int(np.argmax((faces < 0) | (faces >= n)).item() // 3)
            raise StructuralError(f"face {bad} references a vertex outside [0, {n})")
        degenerate = (
            (faces[:, 0] == faces[:, 1])
            | (faces[:, 1] == faces[:, 2])
            | (faces[:, 0] == faces[:, 2])
        )
        if degenerate.any():
            raise StructuralError(f"degenerate face {int(np.argmax(degenerate))}: repeated vertex index")
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0)
    return graph_from_edges(positions, edges)


def graph_from_edges(positions, edges) -> MeshGraph:
    """Build a MeshGraph from an explicit edge list (duplicates allowed)."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    n = positions.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise StructuralError("edge endpoint outside vertex range")
        keep = edges[:, 0] != edges[:, 1]  # self loops carry no structure
        edges = edges[keep]
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.ones(rows.shape[0], dtype=np.float64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return graph_from_adjacency(positions, adj)


def graph_from_adjacency(positions, adjacency: sp.csr_matrix) -> MeshGraph:
    """Build a MeshGraph from a symmetric CSR pattern with an empty diagonal.

    Stored entries become 1 whatever their values (duplicate edges collapse
    to 0/1) and the indices are sorted in place.
    """
    adjacency.data[:] = 1.0
    adjacency.sort_indices()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    return MeshGraph(positions=positions, adjacency=adjacency, degrees=degrees)


def laplacian(g: MeshGraph) -> sp.csr_matrix:
    """The unnormalized Laplacian: diagonal degree matrix minus adjacency."""
    mat = (sp.diags(g.degrees, format="csr") - g.adjacency).tocsr()
    mat.sort_indices()
    return mat


def eigendecompose(l: sp.csr_matrix, k: int) -> Spectrum:
    """The k smallest eigenpairs of a Laplacian, ascending, sign-fixed.

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
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


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
