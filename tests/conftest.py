import functools
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from specmesh import autodiff as ad
from specmesh.graphs import adjacency_matrix
from specmesh.meshes import TriMesh, edge_set
from specmesh.primitives import hand_template, icosphere, mirror_x
from specmesh.pyramid import build_pyramid


def mesh_adjacency(mesh):
    """The CSR adjacency of a mesh's unique edges, as ``build_assets`` builds it."""
    return adjacency_matrix(edge_set(mesh), mesh.n_vertices)


def random_mesh_graph(n: int, seed: int, extra_edges: int = 0):
    """Adjacency of a connected random graph: a path plus random chords (used
    as a stand-in for small mesh connectivity in spectral tests)."""
    rng = np.random.default_rng(seed)
    rng.normal(size=(n, 3))  # 3n draws ahead of the chords fix which graph a seed gives
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(extra_edges if extra_edges else 2 * n):
        u, v = rng.integers(n, size=2)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return adjacency_matrix(edges, n)


def capped_hand():
    """``hand_template()`` closed at its 28-edge wrist by a fan of 26 triangles
    from the wrist ring's first vertex: no new vertex, each triangle wound
    opposite to the boundary, so the mesh is watertight and faces out (8042
    faces, 659 cm^3)."""
    hand = hand_template()
    ring = np.arange(hand.n_vertices - 28, hand.n_vertices)  # the last tube ring
    fan = np.stack([np.full(26, ring[0]), ring[2:], ring[1:-1]], axis=1).astype(np.int32)
    return TriMesh(positions=hand.positions, faces=np.concatenate([hand.faces, fan]))


def _box_center(mesh):
    return 0.5 * (mesh.positions.min(axis=0) + mesh.positions.max(axis=0))


def pushed_left(right, push):
    """The mirror of ``right``, its box centre 180 mm from right's along -x,
    moved ``push`` meters along +x."""
    left = mirror_x(right)
    shift = _box_center(right) - _box_center(left) + np.array([push - 0.180, 0.0, 0.0])
    return left.with_positions(left.positions + shift)


@pytest.fixture(scope="session")
def hand_mesh():
    return hand_template()


@pytest.fixture(scope="session")
def hand_graph(hand_mesh):
    return mesh_adjacency(hand_mesh)


@pytest.fixture(scope="session")
def hand_levels(hand_graph):
    """The full config's decoder level adjacencies, coarsest first; the coarse
    ones are large enough for the spectral solvers' ARPACK path."""
    return build_pyramid(hand_graph, (617, 1234, 2468, 4023), seed=0)[0]


@pytest.fixture(scope="session")
def ico162():
    return icosphere(2)


class LockstepPool(ad.Pool):
    """A width-2 ``autodiff.Pool`` whose pooled runs always use both threads.

    The first two pieces of each run above the floor wait for each other at
    a barrier, so the caller and the worker each run one of them, whatever
    the scheduling. Records the pooled runs, the threads that ran pieces,
    and the type and thread of each exception a piece raised.
    """

    def __init__(self):
        super().__init__(2)
        self.pooled_runs = 0
        self.threads = set()
        self.raised = []

    def run(self, pieces, work):
        if work < ad.POOL_FLOOR or len(pieces) < 2:
            return super().run(pieces, work)
        self.pooled_runs += 1
        barrier = threading.Barrier(2, timeout=60)

        def piece(i):
            self.threads.add(threading.current_thread())
            if i < 2:
                barrier.wait()
            try:
                return pieces[i]()
            except BaseException as exc:
                self.raised.append((type(exc), threading.current_thread()))
                raise

        return super().run([functools.partial(piece, i) for i in range(len(pieces))], work)


@pytest.fixture
def pool_of_width(monkeypatch):
    """Makes ``autodiff.POOL`` a pool of width 1 or a ``LockstepPool``; returns it."""
    made = []

    def install(width: int) -> ad.Pool:
        made.append(ad.Pool(1) if width == 1 else LockstepPool())
        monkeypatch.setattr(ad, "POOL", made[-1])
        return made[-1]

    yield install
    for pool in made:
        pool.close()
