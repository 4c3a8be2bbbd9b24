"""Precomputed coarsening hierarchies for the mesh decoder.

Each coarser level is produced by greedy edge collapse (matching passes over
the finer graph) stopped exactly when the requested vertex count is reached,
so level sizes are hit exactly with real vertices and every coarse vertex
keeps at least one child. Coarse positions are child means. Coarse edges are
contracted fine edges: with P the (n, n') 0/1 matrix that assigns each fine
vertex to its coarse vertex, the coarse adjacency is the off-diagonal pattern
of P^T A P, computed on the CSR adjacency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import StructuralError
from .graphs import MeshGraph, graph_from_adjacency


@dataclass(frozen=True)
class GraphPyramid:
    """Coarsened graphs (coarsest first) with child-to-parent maps.

    ``parent_maps[i]`` maps each vertex of ``levels[i + 1]`` (finer) to its
    parent in ``levels[i]`` (coarser).
    """

    levels: tuple[MeshGraph, ...]
    parent_maps: tuple[np.ndarray, ...]

    @property
    def level_sizes(self) -> list[int]:
        return [g.n_vertices for g in self.levels]

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def build_pyramid(fine: MeshGraph, target_sizes, seed: int = 0) -> GraphPyramid:
    """Coarsen ``fine`` to the exact vertex counts in ``target_sizes``.

    ``target_sizes`` is ascending and ends at ``fine.n_vertices``. Matching
    order is seeded, so the pyramid is deterministic in (fine, sizes, seed).

    Raises:
        StructuralError: sizes not ascending / wrong finest size, or a level
            target is unreachable (fewer merges available than required).
    """
    sizes = [int(s) for s in target_sizes]
    if not sizes:
        raise StructuralError("target_sizes must be non-empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise StructuralError(f"target_sizes must be strictly ascending, got {sizes}")
    if sizes[-1] != fine.n_vertices:
        raise StructuralError(
            f"finest target {sizes[-1]} must equal the graph size {fine.n_vertices}")
    rng = np.random.default_rng(seed)
    levels_fine_first = [fine]
    maps_fine_first: list[np.ndarray] = []
    current = fine
    for t in reversed(sizes[:-1]):
        coarse, parent = _contract_exact(current, t, rng)
        levels_fine_first.append(coarse)
        maps_fine_first.append(parent)
        current = coarse
    levels = tuple(reversed(levels_fine_first))
    parent_maps = tuple(reversed(maps_fine_first))
    return GraphPyramid(levels=levels, parent_maps=parent_maps)


def _contract_exact(graph: MeshGraph, target: int, rng: np.random.Generator):
    """Contract edges until exactly ``target`` vertices remain."""
    n = graph.n_vertices
    if target >= n:
        raise StructuralError(f"coarse target {target} not below level size {n}")
    adj = graph.adjacency
    total_parent = np.arange(n, dtype=np.int64)
    positions = graph.positions.copy()
    weights = np.ones(n)  # children counts, for mean positions
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
        new_positions = np.zeros((nxt, 3))
        new_weights = np.zeros(nxt)
        np.add.at(new_positions, new_id, positions * weights[:, None])
        np.add.at(new_weights, new_id, weights)
        positions = new_positions / new_weights[:, None]
        weights = new_weights
        assign = sp.csr_matrix((np.ones(cur_n), (ids, new_id)), shape=(cur_n, nxt))
        contracted = (assign.T @ adj @ assign).tocsr()
        # the diagonal counts the edge inside each merged pair: drop it
        adj = contracted - sp.diags(contracted.diagonal(), format="csr")
        adj.eliminate_zeros()
        adj.sort_indices()
        total_parent = new_id[total_parent]
        cur_n = nxt
    return graph_from_adjacency(positions, adj), total_parent

