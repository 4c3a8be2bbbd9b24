"""Precomputed coarsening hierarchies for the mesh decoder.

Each coarser level is produced by greedy edge collapse (matching passes over
the finer graph) stopped exactly when the requested vertex count is reached,
so level sizes are hit exactly with real vertices and every coarse vertex
keeps at least one child. Coarse edges are contracted fine edges: with P the
(n, n') 0/1 matrix that assigns each fine vertex to its coarse vertex, the
coarse adjacency is the off-diagonal pattern of P^T A P, computed on the CSR
adjacency. A level is its adjacency alone: the decoder filters on each
coarse level's Laplacian and reads nothing else of it.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import StructuralError


def build_pyramid(fine: sp.csr_matrix, target_sizes, seed: int = 0):
    """Coarsen the adjacency ``fine`` to the exact vertex counts in ``target_sizes``.

    ``target_sizes`` is ascending and ends at the size of ``fine``. Returns
    ``(levels, parent_maps)``: the 0/1 CSR adjacency of each level, coarsest
    first and ``fine`` itself last, and for each i the map from every vertex
    of ``levels[i + 1]`` to its parent in ``levels[i]``. Matching order is
    seeded, so the pyramid is deterministic in (fine, sizes, seed).

    Raises:
        StructuralError: sizes not ascending / wrong finest size, or a level
            target is unreachable (fewer merges available than required).
    """
    sizes = [int(s) for s in target_sizes]
    if not sizes:
        raise StructuralError("target_sizes must be non-empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise StructuralError(f"target_sizes must be strictly ascending, got {sizes}")
    if sizes[-1] != fine.shape[0]:
        raise StructuralError(
            f"finest target {sizes[-1]} must equal the graph size {fine.shape[0]}")
    rng = np.random.default_rng(seed)
    levels = [fine]
    parent_maps: list[np.ndarray] = []
    for t in reversed(sizes[:-1]):
        coarse, parent = _contract_exact(levels[-1], t, rng)
        levels.append(coarse)
        parent_maps.append(parent)
    return tuple(reversed(levels)), tuple(reversed(parent_maps))


def _contract_exact(adj: sp.csr_matrix, target: int, rng: np.random.Generator):
    """Contract edges until exactly ``target`` vertices remain; returns the
    coarse 0/1 adjacency and each fine vertex's coarse parent."""
    n = adj.shape[0]
    if target >= n:
        raise StructuralError(f"coarse target {target} not below level size {n}")
    total_parent = np.arange(n, dtype=np.int64)
    cur_n = n
    while cur_n > target:
        needed = cur_n - target
        neighbours = adj.indices.tolist()  # sorted within each row
        start = adj.indptr.tolist()
        match = np.full(cur_n, -1, dtype=np.int64)
        merges = 0
        for u in rng.permutation(cur_n):
            if merges >= needed:
                break
            if match[u] >= 0:
                continue
            for v in neighbours[start[u]:start[u + 1]]:
                if match[v] < 0:
                    match[u] = v
                    match[v] = u
                    merges += 1
                    break
        if merges == 0:
            raise StructuralError(
                f"cannot coarsen level of {cur_n} vertices to {target}: no edges left to collapse")
        # a pair takes the rank of its smaller old id, so new ids follow the
        # first appearance of each pair scanning old ids ascending
        ids = np.arange(cur_n)
        kept, new_id = np.unique(np.where(match >= 0, np.minimum(ids, match), ids),
                                 return_inverse=True)
        nxt = kept.size
        assign = sp.csr_matrix((np.ones(cur_n), (ids, new_id)), shape=(cur_n, nxt))
        contracted = (assign.T @ adj @ assign).tocsr()
        # the diagonal counts the edge inside each merged pair: drop it
        adj = contracted - sp.diags(contracted.diagonal(), format="csr")
        adj.eliminate_zeros()
        adj.sort_indices()
        total_parent = new_id[total_parent]
        cur_n = nxt
    adj.data[:] = 1.0  # contraction sums parallel fine edges
    return adj, total_parent

