"""Triangle mesh ingestion and topology utilities.

Handles Wavefront OBJ round-tripping (``split_quads`` splits quads into
triangle pairs), area-weighted vertex normals, and deterministic
farthest-point sampling of any point set, which picks the coarse token
templates and seeds k-means. Faces are split into edges in one place,
``_edge_counts``: every face edge, sorted so i <= j, is summed into a
sparse matrix, whose stored entries are the unique edges and whose values
count the faces at each edge. That gives the unique edges (``edge_set``:
the graph adjacency, the edge-length loss and the rigidity energy all take
them) and the watertightness check. A mesh computes them once, on its
``Topology``, which every mesh ``with_positions`` makes from it shares.

All positions are meters. OBJ text is ASCII with 1-based ``v``/``f`` records;
``#`` comments and unknown record types are ignored.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, ParseError
from .kernels import FaceClusters, _kdtree


class Topology:
    """What a mesh's faces alone determine, computed on first use.

    ``edge_counts`` backs ``edge_set`` and ``is_watertight``; ``derived``
    keeps what another module builds from the faces (refinement keeps its
    ARAP incidence, order and band here). One record serves every mesh that
    ``TriMesh.with_positions`` makes from the same mesh, so each is computed
    once per topology, not once per set of positions. The edge arrays are
    read-only.
    """

    def __init__(self, faces: np.ndarray):
        self.faces = faces
        self._derived = {}

    @functools.cached_property
    def edge_counts(self):
        """``_edge_counts`` of the faces: (unique edges, faces per edge)."""
        counts = _edge_counts(self.faces)
        for array in counts:
            array.setflags(write=False)
        return counts

    def derived(self, key, build):
        """``build()``, called on the first call with ``key`` only."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]


@dataclass(eq=False)
class TriMesh:
    """Triangular surface mesh with lazily computed, cached structures.

    ``normals``, ``face_clusters`` (the faces prepared for the triangle
    kernels) and ``vertex_tree`` (the KD-tree of the vertices, which both
    distance kernels read) are computed from ``positions`` and ``faces`` on
    first use and kept, so the arrays must not be changed in place: make a
    new mesh (``with_positions``) instead. Such a mesh shares this one's
    ``topology`` (the edges behind ``edge_set`` and ``is_watertight``, and
    refinement's ARAP incidence, order and band) and builds its own normals,
    face clusters and vertex tree. Meshes compare by identity: ``==`` is
    ``is``, as for any object.
    """

    positions: np.ndarray  # (V, 3) float64
    faces: np.ndarray  # (F, 3) int32
    _topology: Topology | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @functools.cached_property
    def normals(self) -> np.ndarray:
        """Per-vertex unit normals, area-weighted over incident faces."""
        return vertex_normals(self.positions, self.faces)

    @functools.cached_property
    def face_clusters(self) -> FaceClusters:
        """The faces, prepared for the triangle kernels."""
        return FaceClusters(self.positions[self.faces])

    @functools.cached_property
    def vertex_tree(self):
        """``scipy.spatial.cKDTree`` of the vertices, for ``nearest_vertex``
        and ``point_triangle_dists``."""
        return _kdtree(self.positions)

    @property
    def topology(self) -> Topology:
        if self._topology is None:
            self._topology = Topology(self.faces)
        return self._topology

    def with_positions(self, positions: np.ndarray) -> "TriMesh":
        """Same faces and ``topology``, new vertex positions."""
        return TriMesh(
            positions=np.ascontiguousarray(positions, dtype=np.float64),
            faces=self.faces,
            _topology=self.topology,
        )


def vertex_normals(positions: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Area-weighted vertex normals; isolated vertices get +z."""
    normals = np.zeros_like(positions)
    if faces.size:
        p0 = positions[faces[:, 0]]
        e1 = positions[faces[:, 1]] - p0
        e2 = positions[faces[:, 2]] - p0
        face_n = np.cross(e1, e2)  # magnitude = 2 * area, the weighting
        for c in range(3):
            np.add.at(normals, faces[:, c], face_n)
    norms = np.linalg.norm(normals, axis=1)
    degenerate = norms < 1e-30
    normals[degenerate] = (0.0, 0.0, 1.0)
    norms[degenerate] = 1.0
    return normals / norms[:, None]


def load_obj(source) -> TriMesh:
    """Parse OBJ text (str or bytes) into a TriMesh.

    Quad faces are split along the 0-2 diagonal into two triangles. Indices
    are 1-based; anything malformed raises :class:`ParseError` naming the
    line. Non-manifold connectivity is accepted; ``is_watertight`` rejects it.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    positions: list[tuple[float, float, float]] = []
    pending: list[tuple[int, list[int]]] = []  # faces checked after all v records
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise ParseError(f"line {lineno}: vertex record needs 3 coordinates")
            try:
                positions.append((float(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex coordinate: {exc}") from exc
        elif tag == "f":
            if len(parts) not in (4, 5):
                raise ParseError(f"line {lineno}: face record needs 3 or 4 indices")
            idx = []
            for token in parts[1:]:
                head = token.split("/", 1)[0]
                try:
                    value = int(head)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad face index {token!r}") from exc
                if value < 1:
                    raise ParseError(f"line {lineno}: face indices must be positive (1-based)")
                idx.append(value - 1)
            pending.append((lineno, idx))
        # other record types (vn, vt, o, g, usemtl, s, mtllib) are ignored
    n = len(positions)
    for lineno, idx in pending:
        for value in idx:
            if value >= n:
                raise ParseError(f"line {lineno}: face index {value + 1} exceeds vertex count {n}")
    pos = np.array(positions, dtype=np.float64).reshape(n, 3)
    return TriMesh(positions=pos, faces=split_quads(idx for _, idx in pending))


def split_quads(faces) -> np.ndarray:
    """(F, 3) int32 triangles of faces of 3 or 4 vertex indices, in order: a
    quad (a, b, c, d) splits along its 0-2 diagonal into (a, b, c), (a, c, d)."""
    tris = []
    for face in faces:
        if len(face) == 4:
            a, b, c, d = face
            tris += [(a, b, c), (a, c, d)]
        else:
            tris.append(face)
    return np.array(tris, dtype=np.int32).reshape(len(tris), 3)


def save_obj(mesh: TriMesh) -> str:
    """Serialize to OBJ text; float repr round-trips bit-exactly."""
    lines = []
    for x, y, z in mesh.positions:
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for i, j, k in mesh.faces:
        lines.append(f"f {i + 1} {j + 1} {k + 1}")
    return "\n".join(lines) + "\n"


def _edge_counts(faces: np.ndarray):
    """Unique face edges (E, 2) with i <= j in lexicographic order, and the
    number of faces that share each one."""
    if faces.size == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0)
    e = np.sort(e.astype(np.int64), axis=1)
    n = int(e.max()) + 1
    counts = sp.coo_matrix((np.ones(e.shape[0], dtype=np.int64), (e[:, 0], e[:, 1])),
                           shape=(n, n)).tocsr()
    counts.sum_duplicates()  # one entry per edge, columns sorted within rows
    rows = np.repeat(np.arange(n), np.diff(counts.indptr))
    return np.stack([rows, counts.indices], axis=1).astype(np.int64), counts.data


def edge_set(mesh: TriMesh) -> np.ndarray:
    """Every undirected face edge exactly once: (E, 2) int64, i <= j, sorted
    (read-only: the mesh's topology keeps it)."""
    return mesh.topology.edge_counts[0]


def is_watertight(mesh: TriMesh) -> bool:
    """True iff every edge is shared by exactly two faces."""
    _, counts = mesh.topology.edge_counts
    return bool(counts.size) and bool((counts == 2).all())


def farthest_points(points: np.ndarray, start: int, count: int) -> list[int]:
    """Rows of ``count`` of the (P, D) ``points`` in the order a farthest-point
    walk from row ``start`` takes them, ties broken by lowest index.

    Only the order of distances matters, so the walk compares squared
    distances, summing the columns left to right as ``np.linalg.norm`` does:
    einsum's order rounds near-ties differently and changes the hand's kept
    vertices.
    """
    cols = points.T.copy()

    def dist_sq(i):
        d = cols[0] - cols[0, i]
        total = d * d
        for col in cols[1:]:
            d = col - col[i]
            total += d * d
        return total

    taken = [start]
    d2 = dist_sq(start)
    for _ in range(count - 1):
        taken.append(int(np.argmax(d2)))
        np.minimum(d2, dist_sq(taken[-1]), out=d2)
    return taken


def subsample_to_count(mesh: TriMesh, n_keep: int, seed: int) -> np.ndarray:
    """Strictly increasing int32 indices of the ``n_keep`` vertices that
    ``farthest_points`` keeps from vertex ``seed mod V``."""
    n = mesh.n_vertices
    if not 1 <= n_keep <= n:
        raise ArgumentError(f"n_keep must be in [1, {n}], got {n_keep}")
    return np.array(sorted(farthest_points(mesh.positions, seed % n, n_keep)), dtype=np.int32)
