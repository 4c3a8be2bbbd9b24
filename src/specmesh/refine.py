"""Inference-time mesh refinement and plausibility metrics.

Interior vertices are found by ray-parity tests (seeded directions, grazing
hits retried; a point beyond the target's bounding box is exterior without a
ray, which spares most of the source's vertices), flagged in a plain (V,)
bool array (``points_interior``, ``collision_mask``), and pulled toward their
nearest opposing-normal vertex on the other surface, while an
as-rigid-as-possible energy keeps the source locally rigid. Refinement
alternates ARAP's local step with a global step, and both are closed form.
Both run on one ``_Arap``, built once per source topology around a single
(V, E) edge incidence. The local step takes each cell's rotation from
Horn's quaternion (the top eigenvector of a symmetric 4x4 matrix). The
global step is one banded Cholesky solve, with the L1 pull as reweighted
least squares, on a bandwidth-reducing order fixed per topology.
Refinement stops when no penetrating vertex has a pair, and its result
says why it stopped. It has one exit: when the best iterate is the input,
the input comes back as is, and its report before is its report after.
Plausibility is reported as maximum penetration depth (mm) and voxelized
intersection volume (cm^3). The volume reads the centers of a voxel grid by
scanline parity (Nooruddin & Turk, TVCG 2003): one ray per grid column,
along the grid's longest axis, and a center is inside when an odd number of
the ray's crossings lie past it. Only the centers of a column whose ray
grazes, or that lie within ``_EPS_T`` of a crossing, cast rays of their own.

Every check is between two distinct meshes, as for the two hands: passing
one mesh object as both source and target is rejected, because a vertex
measured against its own surface always reads zero depth.

Meshes are in meters; each must have finite positions, be watertight and
have every vertex on a face (its nearest vertex bounds a depth from above).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from .errors import ArgumentError
from .graphs import adjacency_matrix, laplacian
from .kernels import (FaceClusters, _EPS_T, nearest_vertex, point_triangle_dists, ray_crossings,
                      ray_hits)
from .meshes import TriMesh, edge_set, is_watertight

_LOGGER = logging.getLogger(__name__)

MAX_RAY_RETRIES = 8
CONVERGENCE_TOL = 1e-7  # refinement stops once its objective changes by less
VOXEL_CM = 0.5  # voxel edge of the intersection volume, in centimeters
_MAX_VOXELS = 4_000_000
_DIST_FLOOR = 1e-9  # meters; caps a pair's collision weight 1 / d in the solve
_BOX_SLACK = 1e-9  # relative growth of the target's box before a point counts as beyond it


@dataclass(frozen=True)
class RefineConfig:
    max_iters: int = 200

    def __post_init__(self):
        if self.max_iters < 1:
            raise ArgumentError("max_iters must be >= 1")


@dataclass(frozen=True)
class PlausibilityReport:
    max_penetration_mm: float
    intersection_volume_cm3: float  # in voxels of edge VOXEL_CM


@dataclass
class RefineResult:
    """What ``refine_mesh`` returned and why its loop stopped.

    ``stop_reason`` is one of:

    - ``"no_interior"``: no source vertex is inside the target;
    - ``"no_gated_pair"``: vertices are inside, but none passes the
      opposing-normal gate, so nothing pulls them out;
    - ``"converged"``: the objective changed by less than ``CONVERGENCE_TOL``;
    - ``"max_iters"``: the loop ran ``max_iters`` iterations;
    - ``"diverged"``: the objective rose 10 iterations in a row.

    ``unpaired_interior`` counts the interior vertices without a gated pair
    at the returned iterate ``mesh``; they are the ones refinement cannot move.
    When the best iterate is the input, ``mesh`` is the input object and
    ``after`` is ``before``.
    """
    mesh: TriMesh
    before: PlausibilityReport
    after: PlausibilityReport
    iterations: int
    stop_reason: str
    unpaired_interior: int

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"


def _random_directions(n: int, rng: np.random.Generator) -> np.ndarray:
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def points_interior(points: np.ndarray, faces: FaceClusters, seed: int):
    """Ray-parity interior test for a batch of points against a surface.

    ``faces`` is the surface's ``FaceClusters``; every round reuses it. Each
    round draws one seeded direction per point still unresolved, and a
    point takes the parity of its first ray that does not graze. Points
    still grazing after MAX_RAY_RETRIES rounds are reported exterior and
    counted in the second return value. A point on the surface, such as a
    vertex that coincides with a vertex of the other mesh to rounding, never
    resolves: every ray from it grazes the surface at its origin. The
    surface is the boundary of the interior, so exterior is the right answer
    there too.

    A watertight surface's interior lies inside its box (``faces.lo``,
    ``faces.hi``), so a point beyond the box on any axis by more than
    ``_BOX_SLACK * (1 + |lo| + |hi|)`` is exterior and casts no ray; a point
    on the box, such as the surface's extreme vertex, casts rays as any
    other. The first round draws directions for every point and then drops
    those beyond the box, so each point that casts gets the direction it
    would get with no cull, and so does every retry unless a ray from beyond
    the box would have grazed.

    The retries are cast in as few ``ray_crossings`` calls as the rounds
    allow. A Generator fills rows in order, so one draw of
    ``MAX_RAY_RETRIES - 1`` rows per point grazing after round 1 holds every
    later round's directions, each round's rows after the last's. A call
    casts every round left for the points still grazing, reading the draw's
    next rows as if none resolves. At the first round where one does, the
    call's later rounds read rows that belong to other points: they are
    dropped, and the points still grazing are cast again from where that
    round's rows end. A ray's result does not depend on the other rays of
    its call (``kernels``), so flags, failures and warnings equal one call
    per round.
    """
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    interior = np.zeros(n, dtype=bool)
    slack = _BOX_SLACK * (1.0 + np.abs(faces.lo) + np.abs(faces.hi))
    with np.errstate(invalid="ignore"):  # an empty soup's box gives inf - inf: no point is in
        in_box = np.all((points >= faces.lo - slack) & (points <= faces.hi + slack), axis=1)
    active = np.flatnonzero(in_box)
    dirs = _random_directions(n, rng)[in_box]
    rounds, left = 1, MAX_RAY_RETRIES
    while active.size and left:
        counts, grazing = ray_crossings(np.tile(points[active], (rounds, 1)),
                                        dirs[:rounds * active.size], faces)
        ok = (grazing == 0).reshape(rounds, active.size)
        # the first round that resolves a point ends what this call can read
        last = int(np.argmax(ok.any(axis=1))) if ok.any() else rounds - 1
        done = ok[last]
        interior[active[done]] = counts.reshape(rounds, -1)[last, done] % 2 == 1
        active = active[~done]
        left -= last + 1
        if rounds == 1:  # round 1's draw is spent: one draw holds every later round's rows
            dirs = _random_directions(left * active.size, rng)
        else:  # on from the end of round last's rows
            dirs = dirs[(last + 1) * done.size:]
        rounds = left
    failures = int(active.size)
    if failures:
        _LOGGER.warning("ray parity unresolved for %d points; treated exterior", failures)
    return interior, failures


def _reject_self(source: TriMesh, target: TriMesh, what: str) -> None:
    if source is target:
        raise ArgumentError(f"{what} needs two distinct meshes; got one mesh twice")


def _check_mesh(mesh: TriMesh, name: str, what: str) -> None:
    """Raise ``ArgumentError`` naming the mesh unless its positions are finite,
    it is watertight and every vertex lies on a face."""
    if not np.isfinite(mesh.positions).all():
        raise ArgumentError(f"{what}: mesh {name!r} has a NaN or infinite position")
    if not is_watertight(mesh):
        raise ArgumentError(f"{what} requires a watertight {name!r} mesh")
    if not np.bincount(mesh.faces.ravel(), minlength=mesh.n_vertices).all():
        raise ArgumentError(f"{what}: mesh {name!r} has a vertex on no face")


def collision_mask(source: TriMesh, target: TriMesh) -> np.ndarray:
    """(V,) bool interior flags of source vertices against the target surface.

    Raises:
        ArgumentError: source and target are one mesh, or target is not
            watertight, has a non-finite position or has a vertex on no face.
    """
    _reject_self(source, target, "collision mask")
    _check_mesh(target, "target", "collision mask")
    return points_interior(source.positions, target.face_clusters, seed=0)[0]


def _gated_pairs(source: TriMesh, interior: np.ndarray, target: TriMesh):
    """(source idx, target idx) pairs of the ``interior`` source vertices
    that pass the opposing-normal gate."""
    masked = np.flatnonzero(interior)
    if masked.size == 0:
        return masked, masked
    nn_idx, _ = nearest_vertex(source.positions[masked], target.positions, target.vertex_tree)
    dots = np.einsum("ij,ij->i", source.normals[masked], target.normals[nn_idx])
    keep = dots < 0.0
    return masked[keep], nn_idx[keep]


_MAX_NEWTON = 64  # Newton converges at least linearly (rate 1/2, at a double root)
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))  # column pairs of ``_minors``


def _minors(a: np.ndarray):
    """2x2 minors of rows 0-1 (``u``) and of rows 2-3 (``l``) of each matrix
    in a (4, 4, V) stack, one per column pair of ``_PAIRS``."""
    return ([a[0, i] * a[1, j] - a[0, j] * a[1, i] for i, j in _PAIRS],
            [a[2, i] * a[3, j] - a[2, j] * a[3, i] for i, j in _PAIRS])


def _det(a: np.ndarray) -> np.ndarray:
    """Determinant of each matrix in a (4, 4, V) stack (Laplace expansion
    over rows 0-1)."""
    (u01, u02, u03, u12, u13, u23), (l01, l02, l03, l12, l13, l23) = _minors(a)
    return u01 * l23 - u02 * l13 + u03 * l12 + u12 * l03 - u13 * l02 + u23 * l01


def _adjugate(a: np.ndarray) -> np.ndarray:
    """Adjugate of each matrix in a (4, 4, V) stack, from its ``_minors``."""
    (u01, u02, u03, u12, u13, u23), (l01, l02, l03, l12, l13, l23) = _minors(a)
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    return np.array([
        [a11 * l23 - a12 * l13 + a13 * l12, -a01 * l23 + a02 * l13 - a03 * l12,
         a31 * u23 - a32 * u13 + a33 * u12, -a21 * u23 + a22 * u13 - a23 * u12],
        [-a10 * l23 + a12 * l03 - a13 * l02, a00 * l23 - a02 * l03 + a03 * l02,
         -a30 * u23 + a32 * u03 - a33 * u02, a20 * u23 - a22 * u03 + a23 * u02],
        [a10 * l13 - a11 * l03 + a13 * l01, -a00 * l13 + a01 * l03 - a03 * l01,
         a30 * u13 - a31 * u03 + a33 * u01, -a20 * u13 + a21 * u03 - a23 * u01],
        [-a10 * l12 + a11 * l02 - a12 * l01, a00 * l12 - a01 * l02 + a02 * l01,
         -a30 * u12 + a31 * u02 - a32 * u01, a20 * u12 - a21 * u02 + a22 * u01]])


def _best_rotations(s: np.ndarray) -> np.ndarray:
    """(V, 3, 3) proper rotations R that maximize tr(R s) for each (3, 3)
    covariance s: orthogonal Procrustes with det +1, in closed form.

    Horn's quaternion (JOSA A 1987): the best R is the rotation of the unit
    eigenvector of a symmetric, traceless 4x4 matrix N(s) that belongs to
    its largest eigenvalue. That eigenvalue is found by Newton's method on
    the characteristic quartic ``l^4 - 2|s|^2 l^2 - 8 det(s) l + det(N)``,
    as in Theobald's QCP (Acta Cryst. A 2005), from the upper bound
    ``sqrt(3) |s|``. From above the largest root, Newton falls monotonically,
    so a cell stops once its step is no longer positive and shrinking. The
    eigenvector is the largest column of adj(N - l I), which is
    (N - l I)^-1 up to scale, polished by two products:
    - one more with the adjugate, a step of inverse iteration. It squares
      the share of the nearest other eigenvector, so the rotation's error
      grows with 1 / gap, as the SVD's does, and not with 1 / gap^2, as
      from l alone;
    - one with N + l I, a power step. It damps every other eigenvector
      (|l_k + l| <= 2 l) and removes the adjugate's rounding at a double
      root, where the optimum is not unique (a cell collapsed onto a line).
    """
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = \
        np.ascontiguousarray(s.reshape(-1, 9).T).reshape(3, 3, -1)
    n = np.array([[sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
                  [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
                  [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
                  [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz]])
    norm2 = np.einsum("vij,vij->v", s, s)
    c2 = -2.0 * norm2
    c1 = -8.0 * (sxx * (syy * szz - syz * szy) - sxy * (syx * szz - syz * szx)
                 + sxz * (syx * szy - syy * szx))
    c0 = _det(n)
    lam = np.sqrt(3.0 * norm2)
    step = np.full_like(lam, np.inf)
    for _ in range(_MAX_NEWTON):
        lam2 = lam * lam
        with np.errstate(divide="ignore", invalid="ignore"):  # dp = 0 only at a multiple root
            newton = (((lam2 + c2) * lam + c1) * lam + c0) / ((4.0 * lam2 + 2.0 * c2) * lam + c1)
        take = (newton > 0) & (newton < step)
        if not take.any():
            break
        lam = np.where(take, lam - newton, lam)
        step = np.where(take, newton, 0.0)
    adj = _adjugate(n - lam * np.eye(4)[:, :, None])
    cells = np.arange(s.shape[0])
    norms = np.einsum("ijv,ijv->jv", adj, adj)
    best = np.argmax(norms, axis=0)
    q = adj[:, best, cells] / np.sqrt(norms[best, cells])
    q = np.einsum("ijv,jv->iv", adj, q)
    q = np.einsum("ijv,jv->iv", n, q) + lam * q
    w, x, y, z = q / np.sqrt(np.einsum("iv,iv->v", q, q))
    r = np.array([[w * w + x * x - y * y - z * z, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
                  [2.0 * (x * y + w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z - w * x)],
                  [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), w * w - x * x - y * y + z * z]])
    return np.moveaxis(r, -1, 0)


class _ArapTopology:
    """What ``_Arap`` needs of a topology: the incidences ``owner`` and
    ``inc`` over the edge ``ends``, the reverse Cuthill-McKee ``order`` of
    4 L with each vertex's ``slot`` in it, each ordered vertex's
    ``component``, and 4 L's upper ``band`` in that order. Built once per
    topology (``_arap``)."""

    def __init__(self, edges: np.ndarray, n: int):
        m = edges.shape[0]
        self.ends = np.ascontiguousarray(edges.T)  # (2, E): first endpoints, then second
        ends = self.ends.ravel()
        order = np.argsort(ends, kind="stable")
        cols = np.tile(np.arange(m), 2)[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
        self.owner = sp.csr_matrix((np.ones(2 * m), cols, indptr), shape=(n, m))
        self.inc = sp.csr_matrix((np.repeat([1.0, -1.0], m)[order], cols, indptr), shape=(n, m))
        four_lap = 4.0 * laplacian(adjacency_matrix(edges, n))
        _, component = connected_components(four_lap, directed=False)
        self.order = reverse_cuthill_mckee(four_lap, symmetric_mode=True)
        self.slot = np.argsort(self.order)  # each vertex's place in the order
        self.component = component[self.order]
        # upper band storage for solveh_banded: band[bw + r - c, c] = A[r, c], r <= c
        lap = four_lap[self.order][:, self.order].tocoo()
        upper = lap.row <= lap.col
        row, col = lap.row[upper], lap.col[upper]
        bw = int(np.max(col - row, initial=0))
        self.band = np.zeros((bw + 1, n))
        self.band[bw + row - col, col] = lap.data[upper]


def _arap(mesh: TriMesh) -> _Arap:
    """The ``_Arap`` of the mesh at its positions as rest, on the
    ``_ArapTopology`` its ``topology`` keeps."""
    n = mesh.n_vertices
    topology = mesh.topology.derived(("arap", n), lambda: _ArapTopology(edge_set(mesh), n))
    return _Arap(mesh.positions, topology)


class _Arap:
    """ARAP's local and global steps on one source topology.

    Both read one (V, E) edge incidence: row v lists v's edges as first
    endpoint, then as second endpoint, each in edge order, so its columns
    are unsorted. scipy's COO constructor, ``abs()`` and sparse products
    sort a CSR's indices in place, so ``_owner`` (ones) and ``_inc`` (+1 at
    the first endpoint, -1 at the second) are built from their CSR arrays
    and only multiply dense arrays.

    Local step: a cell's covariance sums ``e_rest e_def^T`` over its
    vertex's edges, each seen from that vertex. Seen from either end, an
    edge's outer product has the same bits, so ``_owner`` sums one per edge
    into both cells, in the order of ``np.add.at`` over the directed edges.

    Global step: with the rotations R held, the rigidity energy is the
    quadratic ``4 (x^T L x / 2 - b^T x) + const``, with L the uniform edge
    Laplacian and ``b = _inc h``, ``h_e = (R_i + R_j) (r_i - r_j) / 2``. Each
    pair's ``|x_s - y_t|`` is majorized by ``|x_s - y_t|^2 / (2 d_s) + d_s / 2``,
    d_s its current length (at least ``_DIST_FLOOR``). Both bounds touch the
    objective at the current iterate, so their minimizer, one SPD solve,
    does not raise it while the pairs hold.

    That system is ``4 L`` plus the pairs' weights on its diagonal. Its
    pattern is fixed per topology, so a reverse Cuthill-McKee order of L and
    L's upper band in that order are computed once per topology, with the
    incidences, as an ``_ArapTopology``; each solve adds the weights to the
    band's diagonal and runs a banded Cholesky (LAPACK ``pbsv``) in
    O(n bw^2) for bandwidth bw (41 on ``icosphere(3)``, 42 on
    ``hand_template(4023)``).
    """

    def __init__(self, rest: np.ndarray, topology: _ArapTopology):
        self._t = topology
        self._e_rest = rest[topology.ends[0]] - rest[topology.ends[1]]

    def covariances(self, x: np.ndarray) -> np.ndarray:
        """(V, 3, 3) sums of e_rest e_def^T over each cell's edges at x."""
        return self._cell_sums(x[self._t.ends[0]] - x[self._t.ends[1]])

    def _cell_sums(self, e_def: np.ndarray) -> np.ndarray:
        outer = (self._e_rest[:, :, None] * e_def[:, None, :]).reshape(-1, 9)
        return (self._t.owner @ outer).reshape(-1, 3, 3)

    def local(self, x: np.ndarray):
        """(energy, per-cell rotations) at x: ``_best_rotations`` of the
        covariances, with the identity for degenerate and unmoved cells, and
        the energy summed over both directions of every edge."""
        e_def = x[self._t.ends[0]] - x[self._t.ends[1]]
        s = self._cell_sums(e_def)
        degenerate = np.linalg.norm(s, axis=(1, 2)) < 1e-30
        if degenerate.any():
            _LOGGER.warning("%d degenerate cells skipped in rigidity energy",
                            int(degenerate.sum()))
            s[degenerate] = np.eye(3)
        r = _best_rotations(s)
        # an unmoved cell keeps the identity exactly, whatever its eigenvector rounds to
        moved = np.any(e_def != self._e_rest, axis=1)
        r[self._t.owner @ moved == 0] = np.eye(3)
        # seen from j, edge (i, j)'s residual is the negation of this one: same squares
        residual = e_def - np.einsum("kvab,vb->kva", r[self._t.ends], self._e_rest)
        return float(np.sum(residual**2)), r

    def solve(self, x: np.ndarray, rot: np.ndarray, src_idx: np.ndarray,
              y: np.ndarray) -> np.ndarray:
        """Minimizer of both majorizers at x; src_idx holds at least one pair."""
        ends = self._t.ends
        h = 0.5 * np.einsum("eab,eb->ea", rot[ends[0]] + rot[ends[1]], self._e_rest)
        rhs = 4.0 * (self._t.inc @ h)
        pull = 1.0 / np.maximum(np.linalg.norm(x[src_idx] - y, axis=1), _DIST_FLOOR)
        rhs[src_idx] += pull[:, None] * y
        rhs = rhs[self._t.order]
        band = self._t.band.copy()
        band[-1, self._t.slot[src_idx]] += pull
        # a component without a pair is free to translate in L, so its solve
        # is arbitrary: it stays where it is, bit for bit. Components share no
        # edge, so clearing its band columns leaves every other row as it was
        dead = ~np.isin(self._t.component, self._t.component[self._t.slot[src_idx]])
        if dead.any():
            band[:, dead] = 0.0
            band[-1, dead] = 1.0
            rhs[dead] = x[self._t.order[dead]]
        out = np.empty_like(x)
        out[self._t.order] = solveh_banded(band, rhs, overwrite_ab=True, overwrite_b=True,
                                           check_finite=False)
        return out


def refine_mesh(source: TriMesh, target: TriMesh, config: RefineConfig) -> RefineResult:
    """Push interior vertices out of the target while keeping the source
    shape locally rigid.

    Minimizes ``collision + rigidity`` by local-global steps
    (ARAP's scheme, with the L1 collision term as iteratively reweighted
    least squares), both on one ``_Arap`` built for the source's topology.
    Each iteration finds the interior vertices and their gated pairs at the
    current positions and stops once none remains; the local step fits the
    per-cell rotations (``_Arap.local``) and the global step is one banded
    solve (``_Arap.solve``). It also stops when the objective changes by
    less than ``CONVERGENCE_TOL`` or after ``max_iters`` iterations, and
    reports divergence after 10 consecutive rises. Returns the best iterate
    (never worse than the input) with before/after plausibility reports and
    the reason the loop stopped (see ``RefineResult``); topology is
    untouched. When the best iterate is the input, as for an input with no
    pair, the input object is returned with ``after`` equal to ``before``,
    and no second report is computed. Each mesh is checked once. The meshes
    keep what is built from them (``TriMesh``): the target's faces and vertex
    tree serve the loop and both reports, and the source's topology its
    ARAP. The first iteration's interior flags are the report before's pass
    over the source (the same positions, faces and seed), and the report
    after's pass is the flags of the best iterate.

    Raises:
        ArgumentError: source and target are one mesh, or either is not
            watertight, has a non-finite position or has a vertex on no face.
    """
    _reject_self(source, target, "refinement")
    _check_mesh(target, "target", "refinement")
    _check_mesh(source, "source", "refinement")
    target_faces = target.face_clusters
    interior, _ = points_interior(source.positions, target_faces, seed=0)
    before = _plausibility(source, target, interior)
    arap = _arap(source)
    x = best_x = source.positions
    best_interior = interior
    best_loss = prev_loss = np.inf
    best_unpaired = 0
    rises = 0
    stop = "max_iters"
    for iterations in range(1, config.max_iters + 1):
        if iterations > 1:  # the first iterate is the source, whose flags are above
            interior, _ = points_interior(x, target_faces, seed=0)
        src_idx, tgt_idx = _gated_pairs(source.with_positions(x), interior, target)
        unpaired = int(np.count_nonzero(interior)) - src_idx.size
        y = target.positions[tgt_idx]
        energy, rot = arap.local(x)
        loss = float(np.linalg.norm(x[src_idx] - y, axis=1).sum()) + energy
        if loss < best_loss:
            best_loss, best_x, best_unpaired, best_interior = loss, x, unpaired, interior
        if src_idx.size == 0:
            stop = "no_gated_pair" if unpaired else "no_interior"
            break
        if abs(prev_loss - loss) < CONVERGENCE_TOL:
            stop = "converged"
            break
        if loss > prev_loss:
            rises += 1
            if rises >= 10:
                stop = "diverged"
                break
        else:
            rises = 0
        prev_loss = loss
        x = arap.solve(x, rot, src_idx, y)
    mesh, after = source, before
    if best_x is not source.positions:
        mesh = source.with_positions(best_x)  # the source's topology: watertight
        after = _plausibility(mesh, target, best_interior)
    return RefineResult(mesh=mesh, before=before, after=after, iterations=iterations,
                        stop_reason=stop, unpaired_interior=best_unpaired)


def _voxel_axes(a: TriMesh, b: TriMesh, h: float):
    """Voxel center coordinates per axis, edge ``h``, over the overlap of the
    two meshes' vertex boxes; None when the boxes do not overlap.

    Raises:
        ArgumentError: the grid would exceed ``_MAX_VOXELS`` cells.
    """
    lo = np.maximum(a.positions.min(axis=0), b.positions.min(axis=0))
    hi = np.minimum(a.positions.max(axis=0), b.positions.max(axis=0))
    if not np.all(hi > lo):
        return None
    steps = np.maximum(np.ceil((hi - lo) / h).astype(np.int64), 1)
    if int(np.prod(steps)) > _MAX_VOXELS:
        raise ArgumentError(
            f"voxel grid {steps.tolist()} of {VOXEL_CM} cm voxels exceeds {_MAX_VOXELS} "
            "cells; are the meshes in meters?")
    return [lo[c] + h * (np.arange(steps[c]) + 0.5) for c in range(3)]


def _voxels_interior(axes, h: float, cells: np.ndarray, faces: FaceClusters,
                     seed: int) -> np.ndarray:
    """Flags of the grid centers in ``cells`` that lie inside the surface.

    ``axes`` holds the centers' coordinates per axis and ``cells`` is a bool
    grid of their shape. Each column along the axis with the most centers
    that holds a cell casts one ray along that axis, from a distance ``h``
    before both the surface's box (``faces.lo``) and the first center. A
    center is inside when an odd number of the ray's crossings lie past it,
    which for a closed surface is the parity of any ray from it. A center
    whose column ray grazes, or that lies within ``_EPS_T`` of a crossing,
    goes to ``points_interior`` with ``seed`` instead.
    """
    along = int(np.argmax([x.size for x in axes]))
    across = [c for c in range(3) if c != along]
    shape = [axes[c].size for c in across] + [axes[along].size]
    n = shape[-1]
    cells = np.moveaxis(cells, along, -1).reshape(-1, n)

    def centers(col, k):
        out = np.empty((col.size, 3))
        for c, i in zip(across, np.unravel_index(col, shape[:2])):
            out[:, c] = axes[c][i]
        out[:, along] = axes[along][k]
        return out

    cols = np.flatnonzero(cells.any(axis=1))
    start = min(faces.lo[along], axes[along][0]) - h
    origins = centers(cols, 0)
    origins[:, along] = start
    dirs = np.zeros((cols.size, 3))
    dirs[:, along] = 1.0
    ray, t, grazing = ray_hits(origins, dirs, faces)
    t_center = axes[along] - start
    # slot s: the crossing lies past centers 0..s-1 and not past the others
    slot = np.searchsorted(t_center, t)
    in_slot = np.bincount(ray * (n + 1) + slot, minlength=cols.size * (n + 1))
    past = np.cumsum(in_slot.reshape(cols.size, n + 1)[:, :0:-1], axis=1)[:, ::-1]
    inside = np.zeros_like(cells)
    inside[cols] = past % 2 == 1
    unsure = np.zeros_like(cells)
    unsure[cols[grazing == 1]] = True
    for k in (np.maximum(slot - 1, 0), np.minimum(slot, n - 1)):  # the centers either side
        near = np.abs(t - t_center[k]) <= _EPS_T
        unsure[cols[ray[near]], k[near]] = True
    unsure &= cells
    inside[unsure], _ = points_interior(centers(*np.nonzero(unsure)), faces, seed)
    inside &= cells
    return np.moveaxis(inside.reshape(shape), -1, along)


def plausibility_metrics(a: TriMesh, b: TriMesh) -> PlausibilityReport:
    """Maximum penetration depth and voxelized intersection volume.

    Penetration is the largest distance from an interior vertex of either
    mesh to the other surface, in millimeters. Volume counts voxel centers
    (edge ``VOXEL_CM``) interior to both meshes, over the overlap of the two
    vertex boxes: first the centers interior to a, then those of them
    interior to b, each pass by ``_voxels_interior``, one parity ray per
    grid column (seeds 1 and 2 for its fallback).

    Raises:
        ArgumentError: a and b are one mesh, a mesh is not watertight, has
            a non-finite position or has a vertex on no face, or the voxel
            grid would exceed the supported size.
    """
    _reject_self(a, b, "plausibility metrics")
    _check_mesh(a, "a", "plausibility metrics")
    _check_mesh(b, "b", "plausibility metrics")
    return _plausibility(a, b, points_interior(a.positions, b.face_clusters, seed=0)[0])


def _plausibility(a: TriMesh, b: TriMesh, a_in_b: np.ndarray) -> PlausibilityReport:
    """``plausibility_metrics`` of two checked meshes, given the flags of a's
    vertices inside b (``points_interior`` with seed 0)."""
    faces_a, faces_b = a.face_clusters, b.face_clusters
    b_in_a, _ = points_interior(b.positions, faces_a, seed=0)
    pen = 0.0
    for src, dst, interior in ((a, b, a_in_b), (b, a, b_in_a)):
        pts = src.positions[interior]
        if pts.size:
            pen = max(pen, float(point_triangle_dists(pts, dst.face_clusters,
                                                      dst.vertex_tree).max()))
    h = VOXEL_CM / 100.0  # meters
    axes = _voxel_axes(a, b, h)
    volume = 0.0
    if axes is not None:
        in_a = _voxels_interior(axes, h, np.ones([x.size for x in axes], dtype=bool),
                                faces_a, seed=1)
        in_both = _voxels_interior(axes, h, in_a, faces_b, seed=2)
        volume = float(in_both.sum()) * VOXEL_CM**3
    return PlausibilityReport(max_penetration_mm=1000.0 * pen, intersection_volume_cm3=volume)
