import dataclasses

import numpy as np
import pytest

from oracles import farthest_point_dense, union_find_components
from specmesh import meshes
from specmesh.errors import ArgumentError, ParseError
from specmesh.graphs import adjacency_matrix
from specmesh.meshes import (
    TriMesh,
    edge_set,
    farthest_points,
    is_watertight,
    load_obj,
    save_obj,
    subsample_to_count,
)
from specmesh.primitives import cube, hand_template, icosphere

QUAD_OBJ = """# a single quad
v 0.0 0.0 0.0
v 1.0 0.0 0.0
v 1.0 1.0 0.0
v 0.0 1.0 0.0
f 1 2 3 4
"""


class TestLoadObj:
    def test_quad_splits_into_two_triangles(self):
        mesh = load_obj(QUAD_OBJ)
        assert mesh.n_vertices == 4
        assert mesh.n_faces == 2
        assert np.array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_triangles_and_quads_keep_file_order(self):
        text = QUAD_OBJ + "v 2 0 0\nf 2 5 3\nf 3 4 1 5\n"
        assert load_obj(text).faces.tolist() == [[0, 1, 2], [0, 2, 3], [1, 4, 2], [2, 3, 0],
                                                 [2, 0, 4]]

    def test_bad_face_index_names_line(self):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n"
        with pytest.raises(ParseError, match="line 4"):
            load_obj(text)

    def test_malformed_vertex_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_obj("v 0 0 0\nv 1 zzz 0\n")

    def test_comments_and_unknown_records_ignored(self):
        text = "# header\nvn 0 0 1\n" + QUAD_OBJ
        assert load_obj(text).n_faces == 2

    def test_roundtrip_is_fixed_point(self):
        rng = np.random.default_rng(0)
        mesh = icosphere(1, radius=0.07)
        mesh = mesh.with_positions(mesh.positions + rng.normal(scale=1e-3, size=mesh.positions.shape))
        once = load_obj(save_obj(mesh))
        twice = load_obj(save_obj(once))
        assert np.array_equal(once.positions, mesh.positions)
        assert np.array_equal(once.faces, mesh.faces)
        assert np.array_equal(twice.positions, once.positions)
        assert np.array_equal(twice.faces, once.faces)

    def test_normals_unit_length(self):
        mesh = load_obj(save_obj(hand_template()))
        assert np.max(np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0)) < 1e-6


class TestSubsample:
    def test_factor_one_is_identity(self, ico162):
        # keeping every vertex is a subsampling factor n_vertices / n_keep of one
        kept = subsample_to_count(ico162, 162, seed=0)
        assert kept.dtype == np.int32
        assert np.array_equal(kept, np.arange(162))

    def test_hand_counts(self, hand_mesh):
        kept = subsample_to_count(hand_mesh, 402, seed=0)
        assert kept.size == 402  # 804 tokens over the two hands

    def test_deterministic(self, ico162):
        a = subsample_to_count(ico162, 81, seed=5)
        b = subsample_to_count(ico162, 81, seed=5)
        assert np.array_equal(a, b)

    def test_kept_indices_strictly_increasing(self, ico162):
        kept = subsample_to_count(ico162, 54, seed=2)
        assert kept.dtype == np.int32
        assert np.all(np.diff(kept) > 0)

    def test_spread_beats_random_baseline(self, ico162):
        kept = subsample_to_count(ico162, 81, seed=0)
        assert kept.size == 81

        def min_pairwise(points):
            d = np.linalg.norm(points[:, None] - points[None, :], axis=2)
            return d[np.triu_indices(len(points), 1)].min()

        fps_min = min_pairwise(ico162.positions[kept])
        baseline = np.mean([
            min_pairwise(ico162.positions[np.random.default_rng(s).choice(162, 81, replace=False)])
            for s in range(100)
        ])
        assert fps_min >= 0.5 * baseline

    @pytest.mark.parametrize("n_vertices, n_keep", [(159, 17), (4023, 402)])
    def test_matches_euclidean_walk(self, n_vertices, n_keep):
        # the toy and full token layouts; squared distances must pick the
        # same vertex at every step, near-ties included
        hand = hand_template(n_vertices)
        for seed in range(10):
            kept = subsample_to_count(hand, n_keep, seed=seed)
            assert kept.tolist() == farthest_point_dense(hand.positions, n_keep, seed)

    @pytest.mark.parametrize("columns", [1, 3, 7])
    def test_walk_of_any_point_set(self, columns):
        # the k-means seeding walks a spectral embedding of up to 7 columns
        points = np.random.default_rng(columns).normal(size=(300, columns))
        walk = farthest_points(points, 17, 40)
        assert walk[0] == 17 and len(set(walk)) == 40
        assert sorted(walk) == farthest_point_dense(points, 40, 17)

    def test_factor_errors(self, ico162):
        # the factor n_vertices / n_keep must be finite and at least one
        with pytest.raises(ArgumentError):
            subsample_to_count(ico162, 0, seed=0)
        with pytest.raises(ArgumentError):
            subsample_to_count(ico162, 163, seed=0)


def _face_sides(faces):
    """Every face's three sides, (3F, 2), shared sides once per face."""
    f = np.asarray(faces, dtype=np.int64)
    return np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])


def _lengths(mesh, edges):
    return np.linalg.norm(mesh.positions[edges[:, 0]] - mesh.positions[edges[:, 1]], axis=1)


class TestEdgeSet:
    def test_equilateral_triangle(self):
        pos = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
        mesh = TriMesh(positions=pos, faces=np.array([[0, 1, 2]], dtype=np.int32))
        edges = edge_set(mesh)
        assert edges.dtype == np.int64
        assert edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert np.allclose(_lengths(mesh, edges), 1.0)

    def test_unit_cube_enumeration(self):
        mesh = cube(1.0)
        edges = edge_set(mesh)
        assert edges.shape == (18, 2)
        lengths = np.sort(_lengths(mesh, edges))
        # oracle: 12 cube sides of length 1 plus 6 face diagonals of sqrt(2)
        assert np.allclose(lengths[:12], 1.0)
        assert np.allclose(lengths[12:], np.sqrt(2.0))

    def test_zero_length_edge_included(self):
        pos = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=float)
        mesh = TriMesh(positions=pos, faces=np.array([[0, 1, 2]], dtype=np.int32))
        edges = edge_set(mesh)
        assert edges.shape == (3, 2)
        assert np.min(_lengths(mesh, edges)) == 0.0

    def test_lengths_match_positions(self, ico162):
        # the unique edges' lengths are the lengths of the face sides
        sides = np.sort(_face_sides(ico162.faces), axis=1)
        by_side = dict(zip(map(tuple, sides.tolist()), _lengths(ico162, sides)))
        edges = edge_set(ico162)
        assert sorted(by_side) == list(map(tuple, edges.tolist()))
        assert np.array_equal(_lengths(ico162, edges),
                              [by_side[e] for e in map(tuple, edges.tolist())])

    def test_no_duplicate_pairs(self, ico162):
        edges = edge_set(ico162)
        assert np.all(edges[:, 0] < edges[:, 1])
        assert len({(int(i), int(j)) for i, j in edges}) == edges.shape[0]

    def test_handshake_against_adjacency(self, ico162):
        edges = edge_set(ico162)
        # degrees from every face side, shared sides twice, not from the edge set
        every = adjacency_matrix(_face_sides(ico162.faces), ico162.n_vertices)
        degrees = np.asarray(every.sum(axis=1)).ravel()
        degree_sum = sum(int(degrees[i] + degrees[j]) for i, j in edges)
        # each endpoint's degree counted once per incident edge: sum equals
        # sum over vertices of degree^2; cross-check total edge count instead
        assert edges.shape[0] == int(degrees.sum()) // 2
        assert degree_sum == int(np.sum(degrees**2))


class TestWatertight:
    def test_icosphere_closed(self, ico162):
        assert is_watertight(ico162)

    @pytest.mark.parametrize("text", [
        "v 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n",
        # three triangles on one edge: load_obj accepts it, is_watertight does not
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 0 -1 0\nf 1 2 3\nf 1 2 4\nf 1 2 5\n",
    ], ids=["single_triangle", "non_manifold"])
    def test_edge_without_two_faces_open(self, text):
        assert not is_watertight(load_obj(text))

    def test_cube_missing_face_open(self):
        c = cube(1.0)
        holed = TriMesh(positions=c.positions, faces=c.faces[:-1])
        assert not is_watertight(holed)
        # oracle check: removing one triangle leaves exactly 3 boundary edges
        from specmesh.meshes import _edge_counts

        _, counts = _edge_counts(holed.faces)
        assert int(np.sum(counts == 1)) == 3

    def test_hand_template_open_at_wrist(self, hand_mesh):
        assert not is_watertight(hand_mesh)
        assert union_find_components(hand_mesh.n_vertices,
                                     edge_set(hand_mesh)) == 1


class TestCaches:
    """A mesh computes each derived structure once; ``with_positions``
    shares what the faces alone determine and nothing else."""

    def test_with_positions_shares_the_topology_only(self, monkeypatch):
        counted = []
        edge_counts = meshes._edge_counts
        monkeypatch.setattr(meshes, "_edge_counts",
                            lambda faces: counted.append(faces) or edge_counts(faces))
        mesh = icosphere(2)
        built = (mesh.normals, mesh.face_clusters, mesh.vertex_tree, edge_set(mesh))
        assert (mesh.normals, mesh.face_clusters, mesh.vertex_tree, edge_set(mesh)) == built
        moved = mesh.with_positions(2.0 * mesh.positions)
        assert moved.topology is mesh.topology and moved.faces is mesh.faces
        assert edge_set(moved) is edge_set(mesh) and is_watertight(moved)
        assert len(counted) == 1
        assert not edge_set(mesh).flags.writeable
        # every position-derived structure is the moved mesh's own
        assert moved.face_clusters is not mesh.face_clusters
        assert np.array_equal(moved.face_clusters.hi, 2.0 * mesh.face_clusters.hi)
        assert moved.vertex_tree is not mesh.vertex_tree
        assert np.array_equal(moved.vertex_tree.data, moved.positions)
        assert moved.normals is not mesh.normals
        assert np.allclose(moved.normals, mesh.normals, rtol=0, atol=1e-15)

    def test_constructor_takes_the_arrays_and_the_shared_topology_only(self):
        # the caches are cached properties, which no caller can pass in
        assert [f.name for f in dataclasses.fields(TriMesh)] == ["positions", "faces", "_topology"]
        mesh = icosphere(1)
        assert set(vars(mesh)) == {"positions", "faces", "_topology"}
        mesh.normals, mesh.face_clusters, mesh.vertex_tree, edge_set(mesh)
        assert set(vars(mesh)) == {"positions", "faces", "_topology", "normals",
                                   "face_clusters", "vertex_tree"}
        assert set(vars(mesh.topology)) == {"faces", "_derived", "edge_counts"}

    def test_meshes_compare_by_identity(self):
        # comparing the arrays field by field would raise on their truth value
        mesh, twin = icosphere(1), icosphere(1)
        assert np.array_equal(mesh.positions, twin.positions)
        assert (mesh == twin) is False and (mesh != twin) is True
        assert mesh == mesh and mesh.with_positions(mesh.positions) != mesh

    def test_a_new_mesh_on_the_same_faces_has_its_own_topology(self):
        mesh = icosphere(1)
        other = TriMesh(positions=mesh.positions, faces=mesh.faces[:-1])
        assert other.topology is not mesh.topology
        assert is_watertight(mesh) and not is_watertight(other)


class TestPrimitiveSizes:
    # a negative radius point-reflects the sphere: watertight, but inside out
    @pytest.mark.parametrize("radius", [0.0, -0.05, np.nan, np.inf, -np.inf])
    def test_icosphere_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ArgumentError, match="radius must be finite and > 0"):
            icosphere(1, radius=radius)

    @pytest.mark.parametrize("side", [0.0, -1.0, np.nan, np.inf])
    def test_cube_side_must_be_finite_and_positive(self, side):
        with pytest.raises(ArgumentError, match="side must be finite and > 0"):
            cube(side)

    def test_small_sizes_accepted(self):
        assert icosphere(0, radius=1e-6).n_vertices == 12
        assert cube(1e-6).n_faces == 12


class TestHandTemplateSize:
    @pytest.mark.parametrize("rings", [1, 4])
    def test_cap_plus_rings(self, rings):
        from specmesh.meshes import _edge_counts

        mesh = hand_template(47 + 28 * rings)
        assert mesh.n_vertices == 47 + 28 * rings
        assert mesh.n_faces == 2 * (32 + 28 * rings)
        _, counts = _edge_counts(mesh.faces)
        assert int(np.sum(counts == 1)) == 28  # the wrist
        assert union_find_components(mesh.n_vertices, edge_set(mesh)) == 1

    @pytest.mark.parametrize("rings", [1, 4, 142])
    def test_consistently_wound(self, rings):
        # each interior edge runs once each way; only the wrist's run once
        n_vertices = 47 + 28 * rings
        mesh = hand_template(n_vertices)
        f = mesh.faces.astype(np.int64)
        directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        uses = set(map(tuple, directed.tolist()))
        assert len(uses) == len(directed)
        once = [e for e in uses if e[::-1] not in uses]
        assert len(once) == 28
        assert set(np.ravel(once)) == set(range(n_vertices - 28, n_vertices))
        # and outward: the fingertip cap, the first 32 quads, faces +z
        tri = mesh.positions[f[:64]]
        assert np.all(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])[:, 2] > 0)

    @pytest.mark.parametrize("n_vertices, nearest",
                             [(160, "159, 187"), (100, "75, 103"), (47, "75"), (0, "75")])
    def test_other_counts_name_the_nearest(self, n_vertices, nearest):
        with pytest.raises(ArgumentError, match=f"got {n_vertices}; nearest valid: {nearest}$"):
            hand_template(n_vertices)
