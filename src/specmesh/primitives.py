"""Procedural mesh generators used for templates, fixtures, and scenes.

The hand template is a stylized hand-plus-forearm surface built as an
elliptic tube capped by an L-shaped quad grid at the fingertip end and open
at the wrist. The construction is exact-count: a 47-vertex cap and k >= 1
tube rings of 28 make 47 + 28k vertices and 32 + 28k quads, with one 28-edge
wrist boundary; the full size has k = 142, 4023 vertices. Icospheres and
cubes provide closed fixtures for the collision and volume tests.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError
from .meshes import TriMesh, split_quads

_HAND_SEGMENTS = 28  # ring resolution; equals the wrist boundary edge count
_CAP_GRID_W = 10
_CAP_GRID_H = 4
_CAP_NOTCH = 8  # cells removed from the top row to make the L-shape


def _check_size(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ArgumentError(f"{name} must be finite and > 0, got {value}")


def icosphere(subdivisions: int = 2, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Subdivided icosahedron projected to a sphere (watertight).

    Vertex count is 10 * 4**subdivisions + 2 (162 at two subdivisions).

    Raises:
        ArgumentError: ``subdivisions`` is negative, or ``radius`` is not
            finite and > 0 (a negative radius would turn the sphere inside out).
    """
    if subdivisions < 0:
        raise ArgumentError("subdivisions must be >= 0")
    _check_size("radius", radius)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in cache:
                p = np.array(verts[i]) + np.array(verts[j])
                p /= np.linalg.norm(p)
                cache[key] = len(verts)
                verts.append(tuple(p))
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    positions = np.array(verts, dtype=np.float64) * radius + np.asarray(center, dtype=np.float64)
    return TriMesh(positions=positions, faces=np.array(faces, dtype=np.int32))


def cube(side: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Axis-aligned closed cube of 8 vertices and 12 outward-wound triangles.

    Raises:
        ArgumentError: ``side`` is not finite and > 0.
    """
    _check_size("side", side)
    h = side / 2.0
    corners = np.array(
        [(sx, sy, sz) for sx in (-h, h) for sy in (-h, h) for sz in (-h, h)],
        dtype=np.float64,
    ) + np.asarray(center, dtype=np.float64)
    quads = [
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    ]
    return TriMesh(positions=corners, faces=split_quads(quads))


def _cap_grid():
    """Combinatorics of the L-shaped fingertip cap: vertex grid and quads."""
    vid: dict[tuple[int, int], int] = {}
    removed_cells = {(x, _CAP_GRID_H - 1) for x in range(_CAP_NOTCH)}
    cells = [
        (x, y)
        for y in range(_CAP_GRID_H)
        for x in range(_CAP_GRID_W)
        if (x, y) not in removed_cells
    ]
    quads = []
    for x, y in cells:
        ids = []
        for gx, gy in ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)):
            if (gx, gy) not in vid:
                vid[(gx, gy)] = len(vid)
            ids.append(vid[(gx, gy)])
        quads.append(tuple(ids))
    return vid, quads


def _boundary_cycle(n_verts: int, quads) -> list[int]:
    """Ordered boundary loop of a quad patch (edges used exactly once)."""
    from collections import defaultdict

    count: dict[tuple[int, int], int] = defaultdict(int)
    directed = {}
    for q in quads:
        for i in range(4):
            a, b = q[i], q[(i + 1) % 4]
            count[(min(a, b), max(a, b))] += 1
            directed[(a, b)] = True
    succ = {}
    for (a, b) in directed:
        if count[(min(a, b), max(a, b))] == 1:
            succ[b] = a  # boundary traversed opposite to interior winding
    start = min(succ)
    cycle = [start]
    cur = succ[start]
    while cur != start:
        cycle.append(cur)
        cur = succ[cur]
    return cycle


def _hand_radius_profile(s: float) -> tuple[float, float]:
    """Elliptic cross-section half-axes at arc parameter s (0 wrist, 1 tip)."""
    base = 0.028 + 0.014 * math.exp(-(((s - 0.62) / 0.16) ** 2))  # palm bulge
    taper = 0.25 + 0.75 * math.sqrt(max(1.0 - s**8, 0.0))  # rounded tip
    a = base * taper
    b = 0.55 * a  # hands are flat
    return a, b


def hand_template(n_vertices: int = 4023) -> TriMesh:
    """Stylized hand-with-forearm template mesh of ``n_vertices`` vertices.

    Open at the wrist (28-edge boundary), closed everywhere else; quads are
    split into triangle pairs by ``split_quads``, as the OBJ loader splits them.

    Raises:
        ArgumentError: ``n_vertices`` is not 47 + 28k for k >= 1 tube rings.
    """
    vid, cap_quads = _cap_grid()
    n_cap = len(vid)
    rings, rest = divmod(n_vertices - n_cap, _HAND_SEGMENTS)
    if rings < 1 or rest:
        below = n_cap + _HAND_SEGMENTS * max(rings, 0)
        nearest = ", ".join(str(n) for n in (below, below + _HAND_SEGMENTS) if n > n_cap)
        raise ArgumentError(f"hand template needs {n_cap} + {_HAND_SEGMENTS}k vertices with "
                            f"k >= 1, got {n_vertices}; nearest valid: {nearest}")
    cycle = _boundary_cycle(n_cap, cap_quads)
    if len(cycle) != _HAND_SEGMENTS:
        raise AssertionError(f"cap boundary has {len(cycle)} edges, expected {_HAND_SEGMENTS}")

    length = 0.40  # wrist to fingertip, meters
    z_tip = length
    dz = length / (rings + 1)

    verts = np.zeros((n_vertices, 3), dtype=np.float64)

    # Tube rings: ring 0 is the cap boundary; rings 1.. are fresh vertices.
    ring_ids = [list(cycle)]
    next_id = n_cap
    for k in range(1, rings + 1):
        ring_ids.append(list(range(next_id, next_id + _HAND_SEGMENTS)))
        next_id += _HAND_SEGMENTS
    thetas = 2.0 * math.pi * np.arange(_HAND_SEGMENTS) / _HAND_SEGMENTS
    for k, ids in enumerate(ring_ids):
        z = z_tip - k * dz
        s = 1.0 - k / (rings + 1)
        a, b = _hand_radius_profile(s)
        for i, v in enumerate(ids):
            verts[v] = (a * math.cos(thetas[i]), b * math.sin(thetas[i]), z)

    # Cap interior: harmonic (Tutte) interpolation of the boundary ring in
    # the xy-plane, lifted into a shallow dome.
    interior = [v for v in range(n_cap) if v not in set(cycle)]
    if interior:
        neigh: dict[int, set[int]] = {v: set() for v in range(n_cap)}
        for q in cap_quads:
            for i in range(4):
                a_, b_ = q[i], q[(i + 1) % 4]
                neigh[a_].add(b_)
                neigh[b_].add(a_)
        index = {v: i for i, v in enumerate(interior)}
        lap = np.zeros((len(interior), len(interior)))
        rhs = np.zeros((len(interior), 2))
        for v in interior:
            r = index[v]
            lap[r, r] = len(neigh[v])
            for u in neigh[v]:
                if u in index:
                    lap[r, index[u]] -= 1.0
                else:
                    rhs[r] += verts[u, :2]
        xy = np.linalg.solve(lap, rhs)
        a_tip, _ = _hand_radius_profile(1.0)
        for v in interior:
            x, y = xy[index[v]]
            rho = min(math.hypot(x / max(a_tip, 1e-9), y / max(a_tip, 1e-9)), 1.0)
            verts[v] = (x, y, z_tip + 0.006 * (1.0 - rho * rho))

    # The ring runs against the grid's winding, and so do the tube quads'
    # upper edges: the grid is reversed so that the cap faces out and each
    # seam edge runs opposite ways in its two faces. (c, b, a, d) splits into
    # the grid's two triangles, in the same places, each reversed.
    quads = [(c, b, a, d) for a, b, c, d in cap_quads]
    for k in range(rings):
        upper, lower = ring_ids[k], ring_ids[k + 1]
        for i in range(_HAND_SEGMENTS):
            j = (i + 1) % _HAND_SEGMENTS
            quads.append((upper[i], lower[i], lower[j], upper[j]))
    return TriMesh(positions=verts, faces=split_quads(quads))


def mirror_x(mesh: TriMesh) -> TriMesh:
    """Mirror across the yz-plane, flipping winding to preserve orientation."""
    positions = mesh.positions.copy()
    positions[:, 0] *= -1.0
    faces = mesh.faces[:, [0, 2, 1]].copy()
    return TriMesh(positions=positions, faces=faces)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rotation about ``axis`` by ``angle`` radians (Rodrigues)."""
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ArgumentError("rotation axis must be nonzero")
    x, y, z = axis / norm
    k = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def apply_rigid(mesh: TriMesh, rotation: np.ndarray, translation) -> TriMesh:
    """Rigidly transform a mesh: R @ p + t per vertex."""
    t = np.asarray(translation, dtype=np.float64)
    return mesh.with_positions(mesh.positions @ np.asarray(rotation).T + t)
