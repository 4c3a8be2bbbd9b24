import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from specmesh.graphs import build_mesh_graph
from specmesh.primitives import hand_template, icosphere
from specmesh.pyramid import build_pyramid


def random_mesh_graph(n: int, seed: int, extra_edges: int = 0):
    """Connected random graph: a path plus random chords (used as a stand-in
    for small mesh connectivity in spectral tests)."""
    rng = np.random.default_rng(seed)
    positions = rng.normal(size=(n, 3))
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(extra_edges if extra_edges else 2 * n):
        u, v = rng.integers(n, size=2)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    from specmesh.graphs import graph_from_edges

    return graph_from_edges(positions, np.array(edges))


@pytest.fixture(scope="session")
def hand_mesh():
    return hand_template()


@pytest.fixture(scope="session")
def hand_graph(hand_mesh):
    return build_mesh_graph(hand_mesh.positions, hand_mesh.faces)


@pytest.fixture(scope="session")
def hand_pyramid(hand_graph):
    """The full config's decoder levels; the coarse ones are large enough for
    the spectral solvers' ARPACK path."""
    return build_pyramid(hand_graph, (617, 1234, 2468, 4023), seed=0)


@pytest.fixture(scope="session")
def ico162():
    return icosphere(2)
