"""Synthetic scene generation for desk-scale training runs.

A scene is a rigid-posed pair of template hands, paired with
weak-perspective 2D projections and deterministic pseudo-random backbone
features. Because the 2D ground truth comes from the same camera
family the model predicts, a consistent optimum always exists for the
overfit check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CameraParams, ModelConfig, TemplateAssets, synth_backbone_features
from .primitives import apply_rigid, rotation_matrix

POSE_ANGLE = 0.25  # radians, max random rotation per hand
POSE_SHIFT = 0.04  # meters, max random translation per hand


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene."""

    seed: int = 0


@dataclass
class Scene:
    features: np.ndarray  # (N, BACKBONE_GRID, BACKBONE_GRID, Bc)
    gt_vertices: np.ndarray  # (2V, 3)
    gt2d: np.ndarray  # (N, 2V, 2)
    gt_cameras: list  # CameraParams per view


def build_scene(spec: SceneSpec, assets: TemplateAssets, config: ModelConfig) -> Scene:
    """Deterministic scene from a spec: posed hands, and one camera and
    projection per view of ``config``."""
    rng = np.random.default_rng(spec.seed)
    posed = []
    for hand in assets.hands:
        axis = rng.normal(size=3)
        angle = rng.uniform(-POSE_ANGLE, POSE_ANGLE)
        shift = rng.uniform(-POSE_SHIFT, POSE_SHIFT, size=3)
        center = hand.positions.mean(axis=0)
        rot = rotation_matrix(axis, angle)
        moved = apply_rigid(hand.with_positions(hand.positions - center), rot,
                            center + shift)
        posed.append(moved.positions)
    gt = np.concatenate(posed)
    cams = []
    gt2d = np.zeros((config.n_views, gt.shape[0], 2))
    for n in range(config.n_views):
        cam = CameraParams(scale=float(1.0 + rng.uniform(-0.1, 0.1)),
                           translation=rng.uniform(-0.05, 0.05, size=2))
        gt2d[n] = cam.scale * gt[:, :2] + cam.translation
        cams.append(cam)
    features = synth_backbone_features(spec.seed, config)
    return Scene(features=features, gt_vertices=gt, gt2d=gt2d, gt_cameras=cams)
