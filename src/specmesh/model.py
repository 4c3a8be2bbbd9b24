"""The learnable reconstruction pipeline.

Multi-view backbone features are fused into region-specific features by a
soft-attention mask, broadcast onto a subsampled two-hand template as
transformer tokens, encoded with progressive width halving down to 3D, and
decoded per hand by alternating learned vertex upsampling with Chebyshev
spectral filtering on a precomputed graph pyramid. Training minimizes a
weighted sum of mesh L1, weak-perspective 2D reprojection, and edge-length
regularity losses (squared-distance and Chamfer terms are available but off
by default).

Everything runs on the in-package autodiff tape in float64, so every
differentiable piece is checkable against central finite differences.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ArgumentError, NumericalError
from .filters import init_theta
from .graphs import Laplacian, build_mesh_graph, lambda_max, laplacian, scaled_laplacian
from .meshes import EdgeSet, TriMesh, edge_set, subsample_to_count
from .primitives import hand_template, icosphere, mirror_x
from .pyramid import GraphPyramid, build_pyramid
from .segmentation import segment
from .tensorfile import load_tensor, save_tensor

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


@dataclass
class ModelConfig:
    """Hyperparameters of the pipeline; defaults match the full-size setup."""

    n_views: int = 2  # multi-view image count
    n_clusters: int = 7  # mesh segmentation clusters
    feature_width: int = 256  # region feature channels
    n_tokens: int = 804  # transformer tokens (both hands combined)
    n_blocks: int = 3  # encoder blocks with width halving between them
    n_heads: int = 3
    sublayers: int = 4  # transformer layers inside each block
    decoder_sizes: tuple = (617, 1234, 2468, 4023)  # per-hand vertex counts
    cheb_order: int = 3
    backbone_channels: int = 2048
    backbone_grid: int = 7
    ffn_factor: int = 2
    template: str = "hand"  # "hand" or "icosphere" (toy)
    loss_weights: dict = field(default_factory=lambda: {
        "mesh": 1.0, "reproj2d": 1.0, "edge": 1.0, "mse": 0.0, "chamfer": 0.0})
    learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        self.decoder_sizes = tuple(int(s) for s in self.decoder_sizes)
        if any(b <= a for a, b in zip(self.decoder_sizes, self.decoder_sizes[1:])):
            raise ArgumentError("decoder_sizes must be strictly ascending")
        if self.n_tokens % 2 != 0:
            raise ArgumentError("n_tokens must be even (two hands)")
        if self.n_views < 1 or self.n_blocks < 1 or self.n_heads < 1:
            raise ArgumentError("n_views, n_blocks, n_heads must be >= 1")

    def encoder_widths(self) -> list[int]:
        """Token widths entering each block: C+3 halved (ceiling) per block."""
        widths = [self.feature_width + 3]
        for _ in range(self.n_blocks - 1):
            widths.append(math.ceil(widths[-1] / 2))
        return widths

    @property
    def output_width(self) -> int:
        return 3  # final projection always lands at 3D coordinates

    @property
    def tokens_per_hand(self) -> int:
        return self.n_tokens // 2

    def to_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items()}
        d["decoder_sizes"] = list(self.decoder_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def toy_config(**overrides) -> ModelConfig:
    """Small icosphere-hands setup used by the desk-scale training check."""
    defaults = dict(
        n_views=2, n_clusters=7, feature_width=32, n_tokens=34, n_blocks=2,
        decoder_sizes=(41, 81, 162), backbone_channels=64, template="icosphere",
        learning_rate=1e-3,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


@dataclass
class CameraParams:
    """Weak-perspective camera: u = scale * (x, y) + translation."""

    scale: float
    translation: np.ndarray  # (2,)

    def __post_init__(self):
        if not self.scale > 0:
            raise ArgumentError(f"camera scale must be positive, got {self.scale}")
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(2)


@dataclass
class TemplateAssets:
    """Template-derived constants shared by every forward pass."""

    hands: tuple  # (right, left) TriMesh at rest pose
    token_positions: np.ndarray  # (V', 3)
    token_labels: np.ndarray  # (V',) cluster ids
    pyramids: tuple  # per hand GraphPyramid over decoder_sizes
    scaled_ops: tuple  # per hand, scaled Laplacians for all but the finest level
    mesh_edges: np.ndarray  # (E, 2) edges of the combined two-hand mesh

    @property
    def n_hand_vertices(self) -> int:
        return self.hands[0].n_vertices

    def combined_rest_positions(self) -> np.ndarray:
        return np.concatenate([self.hands[0].positions, self.hands[1].positions])

    def combined_faces(self) -> np.ndarray:
        offset = self.hands[0].n_vertices
        return np.concatenate([self.hands[0].faces, self.hands[1].faces + offset])


def build_assets(config: ModelConfig) -> TemplateAssets:
    """Template meshes, segmentation, token layout, and decoder pyramids."""
    if config.template == "hand":
        right = hand_template()
        right = right.with_positions(right.positions + np.array([0.09, 0.0, 0.0]))
    elif config.template == "icosphere":
        right = icosphere(2, radius=0.08, center=(0.12, 0.0, 0.0))
    else:
        raise ArgumentError(f"unknown template kind {config.template!r}")
    if right.n_vertices != config.decoder_sizes[-1]:
        raise ArgumentError(
            f"decoder finest size {config.decoder_sizes[-1]} != template "
            f"vertex count {right.n_vertices}")
    left = mirror_x(right)
    graph_r = build_mesh_graph(right.positions, right.faces)
    labels_hand = segment(graph_r, config.n_clusters, seed=config.seed).labels
    smap = subsample_to_count(right, config.tokens_per_hand, seed=config.seed)
    kept = smap.kept_indices
    token_positions = np.concatenate([right.positions[kept], left.positions[kept]])
    token_labels = np.concatenate([labels_hand[kept], labels_hand[kept]])
    # mirrored hand shares topology, so one pyramid seed serves both shapes
    pyramids = []
    scaled_ops = []
    for mesh in (right, left):
        g = build_mesh_graph(mesh.positions, mesh.faces)
        pyr = build_pyramid(g, list(config.decoder_sizes), seed=config.seed)
        ops = []
        for level in range(pyr.n_levels - 1):
            lap = laplacian(pyr.levels[level])
            ops.append(scaled_laplacian(lap, lambda_max(lap)))
        pyramids.append(pyr)
        scaled_ops.append(tuple(ops))
    offset = right.n_vertices
    combined_faces = np.concatenate([right.faces, left.faces + offset])
    combined = TriMesh(positions=np.concatenate([right.positions, left.positions]),
                       faces=combined_faces)
    return TemplateAssets(
        hands=(right, left),
        token_positions=token_positions,
        token_labels=token_labels,
        pyramids=tuple(pyramids),
        scaled_ops=tuple(scaled_ops),
        mesh_edges=edge_set(combined).edges.astype(np.int64),
    )


# --------------------------------------------------------------------------
# parameter initialization


def _uniform(rng, fan_in, shape):
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def init_parameters(config: ModelConfig, assets: TemplateAssets) -> dict:
    """Seeded initialization of every learnable tensor, keyed by name."""
    rng = np.random.default_rng(config.seed)
    p: dict[str, ad.Tensor] = {}

    def par(name, value):
        p[name] = ad.parameter(value, name=name)

    c, bc, k = config.feature_width, config.backbone_channels, config.n_clusters
    for branch, cin1 in (("fuse_a", bc), ("fuse_b", bc)):
        par(f"{branch}_conv1_w", _uniform(rng, 9 * cin1, (3, 3, cin1, c)))
        par(f"{branch}_conv1_b", np.zeros(c))
        par(f"{branch}_bn1_gain", np.ones(c))
        par(f"{branch}_bn1_bias", np.zeros(c))
        par(f"{branch}_conv2_w", _uniform(rng, 9 * c, (3, 3, c, c)))
        par(f"{branch}_conv2_b", np.zeros(c))
        par(f"{branch}_bn2_gain", np.ones(c))
        par(f"{branch}_bn2_bias", np.zeros(c))
    par("mask_conv_w", _uniform(rng, c, (c, k)))
    par("mask_conv_b", np.zeros(k))
    par("camera_w", np.zeros((c, config.n_views * 3)))  # start at scale 1, shift 0
    par("camera_b", np.zeros(config.n_views * 3))

    widths = config.encoder_widths()
    for b, w in enumerate(widths):
        dk = math.ceil(w / config.n_heads)
        inner = config.n_heads * dk
        hidden = config.ffn_factor * w
        for l in range(config.sublayers):
            prefix = f"enc{b}_{l}"
            par(f"{prefix}_ln1_gain", np.ones(w))
            par(f"{prefix}_ln1_bias", np.zeros(w))
            for proj in ("q", "k", "v"):
                par(f"{prefix}_{proj}_w", _uniform(rng, w, (w, inner)))
                par(f"{prefix}_{proj}_b", np.zeros(inner))
            par(f"{prefix}_o_w", _uniform(rng, inner, (inner, w)))
            par(f"{prefix}_o_b", np.zeros(w))
            par(f"{prefix}_ln2_gain", np.ones(w))
            par(f"{prefix}_ln2_bias", np.zeros(w))
            par(f"{prefix}_ffn1_w", _uniform(rng, w, (w, hidden)))
            par(f"{prefix}_ffn1_b", np.zeros(hidden))
            par(f"{prefix}_ffn2_w", _uniform(rng, hidden, (hidden, w)))
            par(f"{prefix}_ffn2_b", np.zeros(w))
        if b + 1 < len(widths):
            par(f"reduce{b}_w", _uniform(rng, w, (w, widths[b + 1])))
            par(f"reduce{b}_b", np.zeros(widths[b + 1]))
    par("project_w", _uniform(rng, widths[-1], (widths[-1], 3)))
    par("project_b", np.zeros(3))

    sizes = config.decoder_sizes
    for h in range(2):
        prev = config.tokens_per_hand
        for i, size in enumerate(sizes):
            par(f"dec{h}_up{i}_w", _uniform(rng, prev, (size, prev)))
            par(f"dec{h}_up{i}_b", np.zeros((size, 3)))
            if i + 1 < len(sizes):
                par(f"dec{h}_cheb{i}", init_theta(config.cheb_order, 3, 3, rng))
            prev = size
    return p


# --------------------------------------------------------------------------
# forward pieces


def _interp_matrix(out_size: int, in_size: int) -> np.ndarray:
    """Half-pixel bilinear interpolation matrix (out_size, in_size)."""
    m = np.zeros((out_size, in_size))
    for o in range(out_size):
        x = (o + 0.5) * in_size / out_size - 0.5
        lo = int(np.floor(x))
        w = x - lo
        lo_c = min(max(lo, 0), in_size - 1)
        hi_c = min(max(lo + 1, 0), in_size - 1)
        m[o, lo_c] += 1.0 - w
        m[o, hi_c] += w
    return m


def _bilinear_up2(x: ad.Tensor) -> ad.Tensor:
    n, h, w, _ = x.shape
    mh = _interp_matrix(2 * h, h)
    mw = _interp_matrix(2 * w, w)
    return ad.axis_matrix(ad.axis_matrix(x, mh, axis=1), mw, axis=2)


_CONV_IDX_CACHE: dict = {}


def _conv3x3_valid(x: ad.Tensor, weight: ad.Tensor, bias: ad.Tensor) -> ad.Tensor:
    """3x3 valid convolution on (N, H, W, C) via gather + matmul."""
    n, h, w, cin = x.shape
    ho, wo = h - 2, w - 2
    key = (h, w)
    if key not in _CONV_IDX_CACHE:
        rows = np.arange(ho)[:, None, None, None]
        cols = np.arange(wo)[None, :, None, None]
        dy = np.arange(3)[None, None, :, None]
        dx = np.arange(3)[None, None, None, :]
        _CONV_IDX_CACHE[key] = ((rows + dy) * w + (cols + dx)).reshape(-1)
    idx = _CONV_IDX_CACHE[key]
    flat = ad.reshape(x, (n, h * w, cin))
    patches = ad.take(flat, idx, axis=1)  # (N, ho*wo*9, cin)
    patches = ad.reshape(patches, (n, ho * wo, 9 * cin))
    kernel = ad.reshape(weight, (9 * cin, weight.shape[3]))
    out = ad.add(ad.matmul(patches, kernel), bias)
    return ad.reshape(out, (n, ho, wo, weight.shape[3]))


def _batch_norm(x: ad.Tensor, gain: ad.Tensor, bias: ad.Tensor, name: str,
                bn_state: dict, train: bool) -> ad.Tensor:
    """Per-channel normalization over (view, spatial) axes.

    Training uses batch statistics and refreshes the running ones; eval uses
    the stored running statistics, so single samples normalize stably.
    """
    axes = tuple(range(x.ndim - 1))
    if train:
        mu = ad.reduce_mean(x, axis=axes, keepdims=True)
        centered = x - mu
        var = ad.reduce_mean(ad.mul(centered, centered), axis=axes, keepdims=True)
        mean_data = mu.data.reshape(-1)
        var_data = var.data.reshape(-1)
        if name not in bn_state:
            bn_state[name] = {"mean": mean_data.copy(), "var": var_data.copy()}
        else:
            s = bn_state[name]
            s["mean"] = BN_MOMENTUM * s["mean"] + (1 - BN_MOMENTUM) * mean_data
            s["var"] = BN_MOMENTUM * s["var"] + (1 - BN_MOMENTUM) * var_data
        inv = ad.div(ad.constant(1.0), ad.sqrt(var + ad.constant(BN_EPS)))
        return centered * inv * gain + bias
    stats = bn_state.get(name)
    if stats is None:
        raise NumericalError(f"batch-norm {name} has no running statistics for eval mode")
    mu = ad.constant(stats["mean"])
    inv = ad.constant(1.0 / np.sqrt(stats["var"] + BN_EPS))
    return (x - mu) * inv * gain + bias


def _fusion_branch(x: ad.Tensor, params: dict, prefix: str, bn_state: dict,
                   train: bool) -> ad.Tensor:
    for stage in ("1", "2"):
        x = _bilinear_up2(x)
        x = _conv3x3_valid(x, params[f"{prefix}_conv{stage}_w"], params[f"{prefix}_conv{stage}_b"])
        x = _batch_norm(x, params[f"{prefix}_bn{stage}_gain"], params[f"{prefix}_bn{stage}_bias"],
                        f"{prefix}_bn{stage}", bn_state, train)
        x = ad.relu(x)
    return x


def fusion_forward(features, params: dict, config: ModelConfig, bn_state: dict,
                   train: bool = True):
    """Backbone features -> (finer per-view features, soft-attention mask).

    Returns tensors of shape (N, H*W, C) and (N, H*W, K); every mask channel
    is a distribution over spatial positions.
    """
    x = features if isinstance(features, ad.Tensor) else ad.constant(features)
    n, g, g2, bc = x.shape
    if (g, g2, bc) != (config.backbone_grid, config.backbone_grid, config.backbone_channels):
        raise ArgumentError(
            f"features must be (N, {config.backbone_grid}, {config.backbone_grid}, "
            f"{config.backbone_channels}), got {x.shape}")
    fa = _fusion_branch(x, params, "fuse_a", bn_state, train)
    fb = _fusion_branch(x, params, "fuse_b", bn_state, train)
    hw = fa.shape[1] * fa.shape[2]
    f_prime = ad.reshape(fa, (n, hw, config.feature_width))
    logits = ad.add(ad.matmul(ad.reshape(fb, (n, hw, config.feature_width)),
                              params["mask_conv_w"]), params["mask_conv_b"])
    mask = ad.softmax(logits, axis=1)  # distribution over spatial positions
    if not np.all(np.isfinite(f_prime.data)) or not np.all(np.isfinite(mask.data)):
        raise NumericalError("non-finite values in fusion forward")
    return f_prime, mask


def fuse_views(f_prime: ad.Tensor, mask: ad.Tensor) -> ad.Tensor:
    """Attention-weighted pooling per view, then max over views: (K, C)."""
    per_view = ad.matmul(ad.transpose(mask, (0, 2, 1)), f_prime)  # (N, K, C)
    return ad.reduce_max(per_view, axis=0)


def camera_head(f_r: ad.Tensor, params: dict, config: ModelConfig) -> ad.Tensor:
    """Per-view weak-perspective camera (scale, tx, ty) from pooled features.

    Row n is (scale_n, tx_n, ty_n) with scale = exp(raw) kept positive.
    """
    pooled = ad.reduce_mean(f_r, axis=0, keepdims=True)  # (1, C)
    raw = ad.reshape(ad.add(ad.matmul(pooled, params["camera_w"]), params["camera_b"]),
                     (config.n_views, 3))
    scale = ad.exp(raw[:, 0:1])
    return ad.concat([scale, raw[:, 1:3]], axis=1)


def _attention(x: ad.Tensor, params: dict, prefix: str, heads: int) -> ad.Tensor:
    tokens, width = x.shape
    dk = math.ceil(width / heads)

    def split(t):  # (tokens, heads*dk) -> (heads, tokens, dk)
        return ad.transpose(ad.reshape(t, (tokens, heads, dk)), (1, 0, 2))

    q = split(ad.linear(x, params[f"{prefix}_q_w"], params[f"{prefix}_q_b"]))
    k = split(ad.linear(x, params[f"{prefix}_k_w"], params[f"{prefix}_k_b"]))
    v = split(ad.linear(x, params[f"{prefix}_v_w"], params[f"{prefix}_v_b"]))
    scores = ad.matmul(q, ad.transpose(k, (0, 2, 1))) * ad.constant(1.0 / math.sqrt(dk))
    attn = ad.softmax(scores, axis=-1)
    ctx = ad.matmul(attn, v)  # (heads, tokens, dk)
    merged = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (tokens, heads * dk))
    return ad.linear(merged, params[f"{prefix}_o_w"], params[f"{prefix}_o_b"])


def _encoder_layer(x: ad.Tensor, params: dict, prefix: str, heads: int) -> ad.Tensor:
    # pre-norm residual wiring
    attn_in = ad.layer_norm(x, params[f"{prefix}_ln1_gain"], params[f"{prefix}_ln1_bias"])
    x = x + _attention(attn_in, params, prefix, heads)
    ffn_in = ad.layer_norm(x, params[f"{prefix}_ln2_gain"], params[f"{prefix}_ln2_bias"])
    hidden = ad.relu(ad.linear(ffn_in, params[f"{prefix}_ffn1_w"], params[f"{prefix}_ffn1_b"]))
    return x + ad.linear(hidden, params[f"{prefix}_ffn2_w"], params[f"{prefix}_ffn2_b"])


def transformer_forward(tokens, params: dict, config: ModelConfig) -> ad.Tensor:
    """Encoder blocks with width halving between them; final projection to 3D."""
    x = tokens if isinstance(tokens, ad.Tensor) else ad.constant(tokens)
    widths = config.encoder_widths()
    if x.shape != (config.n_tokens, widths[0]):
        raise ArgumentError(
            f"tokens must be ({config.n_tokens}, {widths[0]}), got {x.shape}")
    for b in range(config.n_blocks):
        for l in range(config.sublayers):
            x = _encoder_layer(x, params, f"enc{b}_{l}", config.n_heads)
        if b + 1 < config.n_blocks:
            x = ad.linear(x, params[f"reduce{b}_w"], params[f"reduce{b}_b"])
    x = ad.linear(x, params["project_w"], params["project_b"])
    if not np.all(np.isfinite(x.data)):
        raise NumericalError("non-finite values in transformer forward")
    return x  # (V', 3)


def decoder_forward(f_c: ad.Tensor, assets: TemplateAssets, params: dict,
                    config: ModelConfig) -> ad.Tensor:
    """Per-hand upsampling through the pyramid levels; output (2V, 3).

    Each level applies a learned vertex-count map followed by Chebyshev
    filtering on that level's graph; the finest map has no filter after it.
    """
    t = config.tokens_per_hand
    outputs = []
    for h in range(2):
        x = f_c[h * t:(h + 1) * t]
        for i, size in enumerate(config.decoder_sizes):
            x = ad.add(ad.matmul(params[f"dec{h}_up{i}_w"], x), params[f"dec{h}_up{i}_b"])
            if i + 1 < len(config.decoder_sizes):
                x = ad.cheb_filter(assets.scaled_ops[h][i], params[f"dec{h}_cheb{i}"], x)
        outputs.append(x)
    return ad.concat(outputs, axis=0)


@dataclass
class ModelOutput:
    pred_vertices: ad.Tensor  # (2V, 3)
    cameras: ad.Tensor  # (N, 3): scale, tx, ty
    f_prime: ad.Tensor
    mask: ad.Tensor
    f_r: ad.Tensor
    tokens: ad.Tensor
    f_c: ad.Tensor


def forward(features, params: dict, assets: TemplateAssets, config: ModelConfig,
            bn_state: dict, train: bool = True) -> ModelOutput:
    """Full pipeline from backbone features to predicted two-hand vertices."""
    f_prime, mask = fusion_forward(features, params, config, bn_state, train)
    f_r = fuse_views(f_prime, mask)
    cams = camera_head(f_r, params, config)
    region = ad.take(f_r, assets.token_labels, axis=0)  # (V', C)
    tokens = ad.concat([region, ad.constant(assets.token_positions)], axis=1)
    f_c = transformer_forward(tokens, params, config)
    pred = decoder_forward(f_c, assets, params, config)
    return ModelOutput(pred_vertices=pred, cameras=cams, f_prime=f_prime,
                       mask=mask, f_r=f_r, tokens=tokens, f_c=f_c)


# --------------------------------------------------------------------------
# losses (public array ops plus tape-side counterparts)


def synth_backbone_features(scene_seed: int, config: ModelConfig) -> np.ndarray:
    """Deterministic stand-in for CNN backbone output, uniform in [-1, 1]."""
    rng = np.random.default_rng(scene_seed)
    shape = (config.n_views, config.backbone_grid, config.backbone_grid,
             config.backbone_channels)
    return rng.uniform(-1.0, 1.0, size=shape)


def loss_l1_mesh(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute deviation over all vertex coordinates."""
    pred, gt = np.asarray(pred, float), np.asarray(gt, float)
    if pred.shape != gt.shape:
        raise ArgumentError(f"shape mismatch {pred.shape} vs {gt.shape}")
    return float(np.mean(np.abs(pred - gt)))


def loss_mse(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean squared per-vertex Euclidean distance."""
    pred, gt = np.asarray(pred, float), np.asarray(gt, float)
    if pred.shape != gt.shape:
        raise ArgumentError(f"shape mismatch {pred.shape} vs {gt.shape}")
    return float(np.mean(np.sum((pred - gt) ** 2, axis=1)))


def mpve(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean per-vertex Euclidean error in millimeters (inputs in meters)."""
    pred, gt = np.asarray(pred, float), np.asarray(gt, float)
    if pred.shape != gt.shape:
        raise ArgumentError(f"shape mismatch {pred.shape} vs {gt.shape}")
    return float(1000.0 * np.mean(np.linalg.norm(pred - gt, axis=1)))


def loss_edge(edges: EdgeSet) -> float:
    """Edge regularity: mean |l^2 - mean(l^2)| over the edge set."""
    if edges.n_edges == 0:
        raise ArgumentError("edge loss needs at least one edge")
    sq = edges.lengths**2
    return float(np.mean(np.abs(sq - sq.mean())))


def loss_chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean of nearest-neighbor squared distances."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.size == 0 or b.size == 0:
        raise ArgumentError("chamfer needs non-empty point sets")
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return float(0.5 * (d2.min(axis=1).mean() + d2.min(axis=0).mean()))


def loss_reproject_2d(pred: np.ndarray, gt2d: np.ndarray, cams) -> float:
    """Weak-perspective reprojection L1 averaged over views/vertices/coords."""
    pred = np.asarray(pred, float)
    gt2d = np.asarray(gt2d, float)
    if gt2d.ndim != 3 or gt2d.shape[1] != pred.shape[0] or gt2d.shape[2] != 2:
        raise ArgumentError(f"gt2d must be (N, {pred.shape[0]}, 2), got {gt2d.shape}")
    if len(cams) != gt2d.shape[0]:
        raise ArgumentError("one camera per view required")
    total = 0.0
    for n, cam in enumerate(cams):
        if not cam.scale > 0:
            raise ArgumentError(f"camera {n} scale must be positive")
        proj = cam.scale * pred[:, :2] + cam.translation
        total += float(np.mean(np.abs(proj - gt2d[n])))
    return total / len(cams)


def _ad_l1(pred: ad.Tensor, gt: np.ndarray) -> ad.Tensor:
    return ad.reduce_mean(ad.absolute(pred - ad.constant(gt)))


def _ad_mse(pred: ad.Tensor, gt: np.ndarray) -> ad.Tensor:
    diff = pred - ad.constant(gt)
    return ad.reduce_mean(ad.reduce_sum(ad.mul(diff, diff), axis=1))


def _ad_edge(pred: ad.Tensor, edges: np.ndarray) -> ad.Tensor:
    d = ad.take(pred, edges[:, 0], axis=0) - ad.take(pred, edges[:, 1], axis=0)
    sq = ad.reduce_sum(ad.mul(d, d), axis=1)  # squared lengths
    return ad.reduce_mean(ad.absolute(sq - ad.reduce_mean(sq)))


def _ad_reproject(pred: ad.Tensor, cams: ad.Tensor, gt2d: np.ndarray) -> ad.Tensor:
    n_views = gt2d.shape[0]
    xy = ad.reshape(pred[:, 0:2], (1, pred.shape[0], 2))
    scale = ad.reshape(cams[:, 0:1], (n_views, 1, 1))
    shift = ad.reshape(cams[:, 1:3], (n_views, 1, 2))
    proj = xy * scale + shift
    return ad.reduce_mean(ad.absolute(proj - ad.constant(gt2d)))


def _ad_chamfer(pred: ad.Tensor, target: np.ndarray) -> ad.Tensor:
    # nearest assignments held fixed during the step (locally exact a.e.)
    d2 = np.sum((pred.data[:, None, :] - target[None, :, :]) ** 2, axis=2)
    nn_ab = np.argmin(d2, axis=1)
    nn_ba = np.argmin(d2, axis=0)
    fwd = pred - ad.constant(target[nn_ab])
    bwd = ad.take(pred, nn_ba, axis=0) - ad.constant(target)
    return ad.constant(0.5) * (ad.reduce_mean(ad.reduce_sum(ad.mul(fwd, fwd), axis=1))
                               + ad.reduce_mean(ad.reduce_sum(ad.mul(bwd, bwd), axis=1)))


def compute_losses(output: ModelOutput, batch, assets: TemplateAssets,
                   config: ModelConfig) -> dict:
    """Enabled loss terms plus their weighted total, all on the tape."""
    terms: dict[str, ad.Tensor] = {}
    w = config.loss_weights
    pred = output.pred_vertices
    if w.get("mesh", 0.0) > 0:
        terms["mesh"] = _ad_l1(pred, batch.gt_vertices)
    if w.get("reproj2d", 0.0) > 0:
        terms["reproj2d"] = _ad_reproject(pred, output.cameras, batch.gt2d)
    if w.get("edge", 0.0) > 0:
        terms["edge"] = _ad_edge(pred, assets.mesh_edges)
    if w.get("mse", 0.0) > 0:
        terms["mse"] = _ad_mse(pred, batch.gt_vertices)
    if w.get("chamfer", 0.0) > 0:
        terms["chamfer"] = _ad_chamfer(pred, batch.gt_vertices)
    total = None
    for name, term in terms.items():
        weighted = term * ad.constant(w[name])
        total = weighted if total is None else total + weighted
    if total is None:
        raise ArgumentError("no loss enabled in loss_weights")
    terms["total"] = total
    return terms


def _first_nonfinite(params: dict) -> str | None:
    for name in sorted(params):
        if not np.all(np.isfinite(params[name].data)):
            return name
    return None


def train_step(params: dict, opt: ad.Adam, batch, assets: TemplateAssets,
               config: ModelConfig, bn_state: dict) -> dict:
    """One optimizer step on the weighted loss; returns scalar loss values.

    Raises:
        NumericalError: a loss or parameter went non-finite, naming the
            first offending tensor.
    """
    bad = _first_nonfinite(params)
    if bad is not None:
        raise NumericalError(f"non-finite parameter tensor {bad!r} before step")
    output = forward(batch.features, params, assets, config, bn_state, train=True)
    losses = compute_losses(output, batch, assets, config)
    for name, term in losses.items():
        if not np.isfinite(term.data):
            raise NumericalError(f"non-finite loss tensor {name!r}")
    opt.zero_grad(params)
    losses["total"].backward()
    opt.step(params)
    bad = _first_nonfinite(params)
    if bad is not None:
        raise NumericalError(f"non-finite parameter tensor {bad!r} after step")
    return {name: float(t.data) for name, t in losses.items()}


# --------------------------------------------------------------------------
# checkpointing


def save_checkpoint(directory: str | Path, params: dict, config: ModelConfig,
                    bn_state: dict) -> None:
    """Binary tensors (float64 SGTF) plus a JSON manifest with config hash."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensor_dir = directory / "tensors"
    tensor_dir.mkdir(exist_ok=True)
    names = {}
    for i, name in enumerate(sorted(params)):
        fname = f"t{i:04d}.sgtf"
        save_tensor(tensor_dir / fname, params[name].data, version=2)
        names[name] = fname
    bn_payload = {}
    for key, stats in sorted(bn_state.items()):
        for stat in ("mean", "var"):
            fname = f"bn_{key}_{stat}.sgtf"
            save_tensor(tensor_dir / fname, stats[stat], version=2)
            bn_payload.setdefault(key, {})[stat] = fname
    manifest = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "tensors": names,
        "bn_state": bn_payload,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def load_checkpoint(directory: str | Path):
    """Returns (params, config, bn_state); tensors round-trip bit-exactly."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    config = ModelConfig.from_dict(manifest["config"])
    if config.config_hash() != manifest["config_hash"]:
        raise ArgumentError("checkpoint manifest hash mismatch")
    params = {}
    for name, fname in manifest["tensors"].items():
        params[name] = ad.parameter(load_tensor(directory / "tensors" / fname), name=name)
    bn_state = {}
    for key, stats in manifest.get("bn_state", {}).items():
        bn_state[key] = {stat: load_tensor(directory / "tensors" / fname)
                         for stat, fname in stats.items()}
    return params, config, bn_state
