"""Mesh segmentation by spectral clustering of the graph Laplacian.

Vertices are embedded by rows of the low-frequency Laplacian eigenvectors
and grouped with k-means. For a connected graph the constant eigenvector is
skipped (it carries no information); for a disconnected graph the whole
null space is kept, which makes component recovery exact. ``segment`` takes
the mesh's CSR adjacency and returns one int32 cluster label per vertex;
the clusters bind region-specific image features to mesh regions.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError
from .graphs import eigendecompose, laplacian
from .meshes import farthest_points

KMEANS_MAX_ITERS = 100
KMEANS_TOL = 1e-8
_CONSTANT_COLUMN_TOL = 1e-8


def segment(adjacency: sp.csr_matrix, K: int) -> np.ndarray:
    """Spectral clustering of a graph, given by its adjacency, into K clusters.

    Returns each vertex's int32 label in [0, K). The embedding uses
    eigenvectors 2..K+1 when the first is constant (connected graph),
    otherwise 1..K so the null space of each component is retained.

    Raises:
        ArgumentError: K outside [1, |V|].
    """
    n = adjacency.shape[0]
    if not 1 <= K <= n:
        raise ArgumentError(f"K must be in [1, {n}], got {K}")
    if K == 1:
        return np.zeros(n, dtype=np.int32)
    k_request = min(K + 1, n)
    _, eigenvectors = eigendecompose(laplacian(adjacency), k_request)
    first = eigenvectors[:, 0]
    if first.max() - first.min() < _CONSTANT_COLUMN_TOL:
        embedding = eigenvectors[:, 1:k_request]
    else:
        embedding = eigenvectors[:, :K]
    return _kmeans(embedding, K).astype(np.int32)


def _kmeans(points: np.ndarray, K: int):
    """Lloyd iterations with greedy (deterministic) k-means++ seeding.

    Seeding is value-driven (``farthest_points`` from the max-norm point),
    which makes the partition invariant to vertex relabeling on
    graphs without exact embedding ties, and needs no random seed.
    Assignment ties go to the lowest cluster index; empty clusters are
    repaired by splitting the largest one.
    """
    centroids = points[farthest_points(points, int(np.argmax(np.sum(points**2, axis=1))), K)]
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(KMEANS_MAX_ITERS):
        d2 = _sq_distances(points, centroids)
        labels = np.argmin(d2, axis=1)  # argmin picks the lowest index on ties
        new_centroids = centroids.copy()
        for k in range(K):
            members = labels == k
            if members.any():
                new_centroids[k] = points[members].mean(axis=0)
        labels, new_centroids = _repair_empty(points, labels, new_centroids, K)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    return labels


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)


def _repair_empty(points, labels, centroids, K):
    """Give every empty cluster the farthest point of the largest cluster."""
    for k in range(K):
        if (labels == k).any():
            continue
        sizes = np.bincount(labels, minlength=K)
        big = int(np.argmax(sizes))
        members = np.flatnonzero(labels == big)
        far = members[np.argmax(np.sum((points[members] - centroids[big]) ** 2, axis=1))]
        labels[far] = k
        centroids[k] = points[far]
        centroids[big] = points[labels == big].mean(axis=0)
    return labels, centroids

