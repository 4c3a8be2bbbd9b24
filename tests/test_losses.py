import numpy as np
import pytest

from oracles import chamfer_loop, edge_loss_direct, l1_mesh_loop, mpve_loop, mse_loop
from specmesh import model as M
from specmesh.meshes import EdgeSet
from specmesh.scenes import SceneSpec, build_scene

ALL_TERMS = {"mesh": 1.0, "reproj2d": 1.0, "edge": 1.0, "mse": 1.0, "chamfer": 1.0}


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.fixture(scope="module")
def toy_losses():
    """Tape loss terms of one toy forward with every term on, and its inputs."""
    config = M.toy_config(loss_weights=dict(ALL_TERMS))
    assets = M.build_assets(config)
    params = M.init_parameters(config, assets)
    scene = build_scene(SceneSpec(seed=3, noise=0.002), assets, config)
    output = M.forward(scene.features, params, assets, config, {}, train=True)
    terms = {name: float(t.data) for name, t in
             M.compute_losses(output, scene, assets, config).items()}
    pred = output.pred_vertices.data
    cams = [M.CameraParams(scale=row[0], translation=row[1:3]) for row in output.cameras.data]
    e = assets.mesh_edges
    edges = EdgeSet(edges=e, lengths=np.linalg.norm(pred[e[:, 0]] - pred[e[:, 1]], axis=1))
    return terms, pred, scene, cams, edges


def test_every_term_on(toy_losses):
    terms = toy_losses[0]
    assert sorted(terms) == sorted([*ALL_TERMS, "total"])
    assert _close(terms["total"], sum(terms[name] for name in ALL_TERMS))


def test_tape_terms_equal_numpy_losses(toy_losses):
    terms, pred, scene, cams, edges = toy_losses
    gt = scene.gt_vertices
    assert _close(terms["mesh"], M.loss_l1_mesh(pred, gt))
    assert _close(terms["reproj2d"], M.loss_reproject_2d(pred, scene.gt2d, cams))
    assert _close(terms["edge"], M.loss_edge(edges))
    assert _close(terms["mse"], M.loss_mse(pred, gt))
    assert _close(terms["chamfer"], M.loss_chamfer(pred, gt))


def test_numpy_losses_equal_loop_oracles(toy_losses):
    _, pred, scene, _, edges = toy_losses
    gt = scene.gt_vertices
    assert _close(M.loss_l1_mesh(pred, gt), l1_mesh_loop(pred, gt))
    assert _close(M.loss_mse(pred, gt), mse_loop(pred, gt))
    assert _close(M.loss_chamfer(pred, gt), chamfer_loop(pred, gt))
    assert _close(M.loss_edge(edges), edge_loss_direct(edges.lengths))
    assert _close(M.mpve(pred, gt), mpve_loop(pred, gt))
    assert M.mpve(pred, gt) > 0
