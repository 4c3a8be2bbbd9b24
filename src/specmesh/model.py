"""The learnable reconstruction pipeline.

Multi-view backbone features are fused into region-specific features by a
soft-attention mask, broadcast onto a subsampled two-hand template as
transformer tokens, encoded with progressive width halving down to 3D, and
decoded per hand by alternating learned vertex upsampling with Chebyshev
spectral filtering on a precomputed graph pyramid. Training minimizes the
plain sum of three losses: mesh L1, weak-perspective 2D reprojection, and
edge-length regularity.

Everything runs on the in-package autodiff tape in float64, so every
differentiable piece is checkable against central finite differences.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import zipfile
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ArgumentError, NumericalError, ParseError
from .graphs import adjacency_matrix, lambda_max, laplacian, scaled_laplacian
from .meshes import edge_set, subsample_to_count
from .primitives import hand_template, mirror_x
from .pyramid import build_pyramid
from .segmentation import segment

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
# the batch-norm layers, one per fusion branch and stage, whose running statistics bn_state keeps
BN_LAYERS = ("fuse_a_bn1", "fuse_a_bn2", "fuse_b_bn1", "fuse_b_bn2")
# Fixed properties of the architecture, as in Mesh Graphormer
N_CLUSTERS = 7  # mesh segmentation clusters, one region feature each
N_HEADS = 3  # attention heads per transformer layer
SUBLAYERS = 4  # transformer layers inside each encoder block
BACKBONE_GRID = 7  # backbone feature maps are BACKBONE_GRID x BACKBONE_GRID
FFN_FACTOR = 2  # feed-forward hidden width over token width


@dataclass
class ModelConfig:
    """Hyperparameters of the pipeline; defaults match the full-size setup."""

    n_views: int = 2  # multi-view image count
    feature_width: int = 256  # region feature channels
    n_tokens: int = 804  # transformer tokens (both hands combined)
    n_blocks: int = 3  # encoder blocks with width halving between them
    decoder_sizes: tuple = (617, 1234, 2468, 4023)  # per-hand vertex counts; last = template
    cheb_order: int = 3
    backbone_channels: int = 2048
    learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        self.decoder_sizes = tuple(int(s) for s in self.decoder_sizes)
        if not self.decoder_sizes:
            raise ArgumentError("decoder_sizes must not be empty")
        if any(b <= a for a, b in zip(self.decoder_sizes, self.decoder_sizes[1:])):
            raise ArgumentError("decoder_sizes must be strictly ascending")
        if self.n_tokens % 2 != 0:
            raise ArgumentError("n_tokens must be even (two hands)")
        for name in ("n_views", "n_tokens", "n_blocks", "cheb_order", "feature_width",
                     "backbone_channels"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_tokens > 2 * self.decoder_sizes[-1]:
            raise ArgumentError(f"n_tokens must be at most twice decoder_sizes[-1] = "
                                f"{self.decoder_sizes[-1]}, got {self.n_tokens}")
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ArgumentError(f"learning_rate must be finite and > 0, got {self.learning_rate}")

    def encoder_widths(self) -> list[int]:
        """Token widths entering each block: C+3 halved (ceiling) per block."""
        widths = [self.feature_width + 3]
        for _ in range(self.n_blocks - 1):
            widths.append(math.ceil(widths[-1] / 2))
        return widths

    @property
    def tokens_per_hand(self) -> int:
        return self.n_tokens // 2

    def to_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items()}
        d["decoder_sizes"] = list(self.decoder_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Raises ParseError naming any key that is not a config field, or
        whose value is not of the field's type: an int field takes an int
        (not a bool), ``learning_rate`` an int or a float, ``decoder_sizes``
        a list of ints."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ParseError(f"unknown config keys {unknown}")
        for f in fields(cls):
            if f.name in d and _wrong_type(d[f.name], f.type):
                raise ParseError(f"config key {f.name!r} must be {_TYPE_NAMES[f.type]}, "
                                 f"got {d[f.name]!r}")
        return cls(**d)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


_TYPE_NAMES = {"int": "an int", "float": "a number", "tuple": "a list of ints"}


def _wrong_type(value, annotation: str) -> bool:
    """Whether a config value from JSON does not fit a field annotated
    ``int``, ``float`` or ``tuple`` (of ints)."""
    if annotation == "tuple":
        return not isinstance(value, (list, tuple)) or any(_wrong_type(v, "int") for v in value)
    allowed = (int, float) if annotation == "float" else int
    return isinstance(value, bool) or not isinstance(value, allowed)


def toy_config(**overrides) -> ModelConfig:
    """Small setup, 159-vertex (4-ring) hands, used by the desk-scale training check."""
    defaults = dict(
        n_views=2, feature_width=32, n_tokens=34, n_blocks=2,
        decoder_sizes=(40, 80, 159), backbone_channels=64, learning_rate=1e-3,
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
    token_positions: np.ndarray  # (2 V', 3): the right hand's kept vertices, then the left's
    token_labels: np.ndarray  # (2 V',) cluster ids
    scaled_ops: tuple  # CSR scaled Laplacians of all but the finest level, both hands
    mesh_edges: np.ndarray  # (2 E, 2) int64 edges of the two hands, left offset by V

    @property
    def n_hand_vertices(self) -> int:
        return self.hands[0].n_vertices


def build_assets(config: ModelConfig) -> TemplateAssets:
    """Template meshes, segmentation, token layout, and the scaled Laplacians
    of the decoder pyramid's coarse levels."""
    right = hand_template(config.decoder_sizes[-1])
    right = right.with_positions(right.positions + np.array([0.09, 0.0, 0.0]))
    left = mirror_x(right)
    edges = edge_set(right)
    adjacency = adjacency_matrix(edges, right.n_vertices)
    labels_hand = segment(adjacency, N_CLUSTERS)
    kept = subsample_to_count(right, config.tokens_per_hand, seed=config.seed)
    token_positions = np.concatenate([right.positions[kept], left.positions[kept]])
    token_labels = np.concatenate([labels_hand[kept], labels_hand[kept]])
    # Mirroring only reverses face winding, so the left hand has the same
    # edges, hence the same adjacency, pyramid levels and operators. The
    # right hand's unique edges serve both hands: they are the edge-loss
    # edges, and build_pyramid coarsens their adjacency by P^T A P into the
    # levels whose scaled Laplacians the decoder filters on.
    levels, _ = build_pyramid(adjacency, list(config.decoder_sizes), seed=config.seed)
    ops = []
    for level in levels[:-1]:
        lap = laplacian(level)
        ops.append(scaled_laplacian(lap, lambda_max(lap)))
    return TemplateAssets(
        hands=(right, left),
        token_positions=token_positions,
        token_labels=token_labels,
        scaled_ops=tuple(ops),
        mesh_edges=np.concatenate([edges, edges + right.n_vertices]),
    )


# --------------------------------------------------------------------------
# parameter initialization


def parameter_layout(config: ModelConfig) -> dict[str, tuple[tuple, int | None]]:
    """Every learnable tensor of ``config``, in the order
    :func:`init_parameters` draws them: name -> (shape, fan-in).

    A tensor with a fan-in starts uniform in +-1/sqrt(fan-in); one without
    starts at one if its name ends in ``_gain``, else at zero.
    """
    # the fusion convs, the mask conv and the key projections have no bias:
    # the forward would remove its effect (see where each is applied)
    c, bc, k = config.feature_width, config.backbone_channels, N_CLUSTERS
    layout = {}
    for branch in ("fuse_a", "fuse_b"):
        for stage, cin in (("1", bc), ("2", c)):
            layout[f"{branch}_conv{stage}_w"] = ((3, 3, cin, c), 9 * cin)
            layout[f"{branch}_bn{stage}_gain"] = ((c,), None)
            layout[f"{branch}_bn{stage}_bias"] = ((c,), None)
    layout["mask_conv_w"] = ((c, k), c)
    layout["camera_w"] = ((c, config.n_views * 3), None)  # start at scale 1, shift 0
    layout["camera_b"] = ((config.n_views * 3,), None)

    widths = config.encoder_widths()
    for b, w in enumerate(widths):
        inner = N_HEADS * math.ceil(w / N_HEADS)
        hidden = FFN_FACTOR * w
        for l in range(SUBLAYERS):
            prefix = f"enc{b}_{l}"
            layout[f"{prefix}_ln1_gain"] = layout[f"{prefix}_ln1_bias"] = ((w,), None)
            for proj in ("q", "k", "v"):
                layout[f"{prefix}_{proj}_w"] = ((w, inner), w)
                if proj != "k":
                    layout[f"{prefix}_{proj}_b"] = ((inner,), None)
            layout[f"{prefix}_o_w"] = ((inner, w), inner)
            layout[f"{prefix}_o_b"] = ((w,), None)
            layout[f"{prefix}_ln2_gain"] = layout[f"{prefix}_ln2_bias"] = ((w,), None)
            layout[f"{prefix}_ffn1_w"] = ((w, hidden), w)
            layout[f"{prefix}_ffn1_b"] = ((hidden,), None)
            layout[f"{prefix}_ffn2_w"] = ((hidden, w), hidden)
            layout[f"{prefix}_ffn2_b"] = ((w,), None)
        if b + 1 < len(widths):
            layout[f"reduce{b}_w"] = ((w, widths[b + 1]), w)
            layout[f"reduce{b}_b"] = ((widths[b + 1],), None)
    layout["project_w"] = ((widths[-1], 3), widths[-1])
    layout["project_b"] = ((3,), None)

    for h in range(2):
        prev = config.tokens_per_hand
        for i, size in enumerate(config.decoder_sizes):
            layout[f"dec{h}_up{i}_w"] = ((size, prev), prev)
            layout[f"dec{h}_up{i}_b"] = ((size, 3), None)
            if i + 1 < len(config.decoder_sizes):
                layout[f"dec{h}_cheb{i}"] = ((config.cheb_order, 3, 3), 3 * config.cheb_order)
            prev = size
    return layout


def init_parameters(config: ModelConfig, assets: TemplateAssets) -> dict:
    """Seeded initialization of every learnable tensor, keyed by name."""
    rng = np.random.default_rng(config.seed)
    p: dict[str, ad.Tensor] = {}
    for name, (shape, fan_in) in parameter_layout(config).items():
        if fan_in is not None:
            bound = 1.0 / math.sqrt(max(fan_in, 1))
            value = rng.uniform(-bound, bound, size=shape)
        else:
            value = (np.ones if name.endswith("_gain") else np.zeros)(shape)
        # every value is a fresh C-order float64 array, so it becomes the
        # tensor's data as it is, without ad.parameter's defensive copy
        p[name] = ad.Tensor(value, requires_grad=True, name=name)
    return p


# --------------------------------------------------------------------------
# forward pieces


def _interp_matrix(out_size: int, in_size: int) -> np.ndarray:
    """Half-pixel bilinear interpolation matrix (out_size, in_size).

    Row o holds the weights of output sample o on the input samples, with
    the border samples repeated past the edges; ``_upconv_taps`` builds
    the x2 upsampling of both grid axes from it.
    """
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


@functools.lru_cache(maxsize=16)
def _upconv_taps(h: int, w: int) -> sp.csr_matrix:
    """The fixed half of ``ad.upconv3x3`` on an (h, w) grid, built once per size.

    Tap (dy, dx) of a valid 3x3 convolution after bilinear x2 upsampling
    reads upsampled rows dy..dy+2h-3 and columns dx..dx+2w-3, so its block
    of columns is the Kronecker product of those rows of the two axes'
    interpolation matrices. Returned as ((2h-2)(2w-2), 9 h w) CSR, 36
    entries per row; the caller must not modify it.
    """
    mh, mw = _interp_matrix(2 * h, h), _interp_matrix(2 * w, w)
    ho, wo = 2 * h - 2, 2 * w - 2
    return sp.hstack([sp.kron(mh[dy:dy + ho], mw[dx:dx + wo])
                      for dy in range(3) for dx in range(3)], format="csr")


def _batch_norm(x: ad.Tensor, gain: ad.Tensor, bias: ad.Tensor, name: str,
                bn_state: dict, train: bool, staged: dict) -> ad.Tensor:
    """Per-channel normalization over (view, spatial) axes.

    Training uses batch statistics and puts the refreshed running ones in
    ``staged`` under ``name``, for the caller to commit into ``bn_state``;
    eval uses the stored running statistics, so single samples normalize
    stably.
    """
    axes = tuple(range(x.ndim - 1))
    if train:
        mu = ad.reduce_mean(x, axis=axes, keepdims=True)
        centered = x - mu
        var = ad.reduce_mean(ad.mul(centered, centered), axis=axes, keepdims=True)
        mean_data = mu.data.reshape(-1)
        var_data = var.data.reshape(-1)
        if _nonfinite(mean_data) or _nonfinite(var_data):
            raise NumericalError(f"non-finite batch statistics in batch-norm {name}")
        if name not in bn_state:
            staged[name] = {"mean": mean_data.copy(), "var": var_data.copy()}
        else:
            s = bn_state[name]
            staged[name] = {"mean": BN_MOMENTUM * s["mean"] + (1 - BN_MOMENTUM) * mean_data,
                            "var": BN_MOMENTUM * s["var"] + (1 - BN_MOMENTUM) * var_data}
        inv = ad.div(ad.constant(1.0), ad.sqrt(var + ad.constant(BN_EPS)))
        return centered * inv * gain + bias
    stats = bn_state.get(name)
    if stats is None:
        raise ArgumentError(f"batch-norm {name} has no running statistics for eval mode")
    mu = ad.constant(stats["mean"])
    inv = ad.constant(1.0 / np.sqrt(stats["var"] + BN_EPS))
    return (x - mu) * inv * gain + bias


def _fusion_branch(x: ad.Tensor, params: dict, prefix: str, bn_state: dict,
                   train: bool, staged: dict) -> ad.Tensor:
    # each stage upsamples bilinearly x2 and convolves 3x3 (valid) in one
    # node, which mixes channels on the coarse grid before resampling; no
    # conv bias: train-mode batch norm subtracts the channel mean next
    for stage in ("1", "2"):
        x = ad.upconv3x3(x, params[f"{prefix}_conv{stage}_w"],
                         _upconv_taps(x.shape[1], x.shape[2]))
        x = _batch_norm(x, params[f"{prefix}_bn{stage}_gain"], params[f"{prefix}_bn{stage}_bias"],
                        f"{prefix}_bn{stage}", bn_state, train, staged)
        x = ad.relu(x)
    return x


def fusion_forward(features, params: dict, config: ModelConfig, bn_state: dict,
                   train: bool = True, *, staged: dict):
    """Backbone features -> (finer per-view features, soft-attention mask).

    Returns tensors of shape (N, H*W, C) and (N, H*W, K); every mask channel
    is a distribution over spatial positions. In train mode, the refreshed
    running statistics of the four batch-norm layers go into ``staged``
    (layer -> {"mean", "var"}), for the caller to commit into ``bn_state``;
    ``bn_state`` itself is only read.
    """
    x = ad.as_tensor(features)
    n, g, g2, bc = x.shape
    if (n, g, g2, bc) != (config.n_views, BACKBONE_GRID, BACKBONE_GRID,
                          config.backbone_channels):
        raise ArgumentError(
            f"features must be ({config.n_views}, {BACKBONE_GRID}, {BACKBONE_GRID}, "
            f"{config.backbone_channels}), got {x.shape}")
    fa = _fusion_branch(x, params, "fuse_a", bn_state, train, staged)
    fb = _fusion_branch(x, params, "fuse_b", bn_state, train, staged)
    hw = fa.shape[1] * fa.shape[2]
    f_prime = ad.reshape(fa, (n, hw, config.feature_width))
    # no bias: it would be constant along the spatial axis the softmax runs over
    logits = ad.linear(ad.reshape(fb, (n, hw, config.feature_width)), params["mask_conv_w"])
    mask = ad.softmax(logits, axis=1)  # distribution over spatial positions
    if _nonfinite(f_prime.data) or _nonfinite(mask.data):
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
    raw = ad.reshape(ad.linear(pooled, params["camera_w"], params["camera_b"]),
                     (config.n_views, 3))
    scale = ad.exp(raw[:, 0:1])
    return ad.concat([scale, raw[:, 1:3]], axis=1)


def _attention(x: ad.Tensor, params: dict, prefix: str) -> ad.Tensor:
    # Projections to (tokens, heads * dk); the per-head scaled dot-product
    # attention, softmax included, is the single tape node ad.attention. The
    # key has no bias: it would shift each score row by a constant, which
    # the softmax removes.
    q, v = (ad.linear(x, params[f"{prefix}_{p}_w"], params[f"{prefix}_{p}_b"])
            for p in ("q", "v"))
    k = ad.linear(x, params[f"{prefix}_k_w"])
    return ad.linear(ad.attention(q, k, v, N_HEADS), params[f"{prefix}_o_w"],
                     params[f"{prefix}_o_b"])


def _encoder_layer(x: ad.Tensor, params: dict, prefix: str) -> ad.Tensor:
    # pre-norm residual wiring
    attn_in = ad.layer_norm(x, params[f"{prefix}_ln1_gain"], params[f"{prefix}_ln1_bias"])
    x = x + _attention(attn_in, params, prefix)
    ffn_in = ad.layer_norm(x, params[f"{prefix}_ln2_gain"], params[f"{prefix}_ln2_bias"])
    hidden = ad.relu(ad.linear(ffn_in, params[f"{prefix}_ffn1_w"], params[f"{prefix}_ffn1_b"]))
    return x + ad.linear(hidden, params[f"{prefix}_ffn2_w"], params[f"{prefix}_ffn2_b"])


def transformer_forward(tokens, params: dict, config: ModelConfig) -> ad.Tensor:
    """Encoder blocks with width halving between them; final projection to 3D."""
    x = ad.as_tensor(tokens)
    widths = config.encoder_widths()
    if x.shape != (config.n_tokens, widths[0]):
        raise ArgumentError(
            f"tokens must be ({config.n_tokens}, {widths[0]}), got {x.shape}")
    for b in range(config.n_blocks):
        for l in range(SUBLAYERS):
            x = _encoder_layer(x, params, f"enc{b}_{l}")
        if b + 1 < config.n_blocks:
            x = ad.linear(x, params[f"reduce{b}_w"], params[f"reduce{b}_b"])
    x = ad.linear(x, params["project_w"], params["project_b"])
    if _nonfinite(x.data):
        raise NumericalError("non-finite values in transformer forward")
    return x  # (V', 3)


def decoder_forward(f_c: ad.Tensor, assets: TemplateAssets, params: dict,
                    config: ModelConfig) -> ad.Tensor:
    """Per-hand upsampling through the pyramid levels; output (2V, 3).

    Each level applies a learned vertex-count map followed by Chebyshev
    filtering on that level's graph; the finest map has no filter after it.
    Both hands filter with the same operators and their own weights.
    """
    t = config.tokens_per_hand
    outputs = []
    for h in range(2):
        x = f_c[h * t:(h + 1) * t]
        for i, size in enumerate(config.decoder_sizes):
            x = ad.add(ad.matmul(params[f"dec{h}_up{i}_w"], x), params[f"dec{h}_up{i}_b"])
            if i + 1 < len(config.decoder_sizes):
                x = ad.cheb_filter(assets.scaled_ops[i], params[f"dec{h}_cheb{i}"], x)
        outputs.append(x)
    return ad.concat(outputs, axis=0)


@dataclass
class ModelOutput:
    pred_vertices: ad.Tensor  # (2V, 3)
    cameras: ad.Tensor  # (N, 3): scale, tx, ty
    f_r: ad.Tensor
    tokens: ad.Tensor


def forward(features, params: dict, assets: TemplateAssets, config: ModelConfig,
            bn_state: dict, train: bool = True, staged: dict | None = None) -> ModelOutput:
    """Full pipeline from backbone features to predicted two-hand vertices.

    Eval mode (``train=False``) needs running statistics in ``bn_state``
    (``ArgumentError`` without them) and runs on constant views of the
    parameters, so it builds no tape. Train mode refreshes the running
    statistics: into ``staged`` if it is given (see :func:`fusion_forward`),
    else into ``bn_state`` at the end, so a forward that raises leaves
    ``bn_state`` as it was.
    """
    if not train:
        params = {name: ad.constant(p.data) for name, p in params.items()}
    updates = {} if staged is None else staged
    f_prime, mask = fusion_forward(features, params, config, bn_state, train, staged=updates)
    f_r = fuse_views(f_prime, mask)
    cams = camera_head(f_r, params, config)
    region = ad.take(f_r, assets.token_labels, axis=0)  # (V', C)
    tokens = ad.concat([region, ad.constant(assets.token_positions)], axis=1)
    f_c = transformer_forward(tokens, params, config)
    pred = decoder_forward(f_c, assets, params, config)
    if staged is None:
        bn_state.update(updates)
    return ModelOutput(pred_vertices=pred, cameras=cams, f_r=f_r, tokens=tokens)


# --------------------------------------------------------------------------
# losses


def synth_backbone_features(scene_seed: int, config: ModelConfig) -> np.ndarray:
    """Deterministic stand-in for CNN backbone output, uniform in [-1, 1]."""
    rng = np.random.default_rng(scene_seed)
    shape = (config.n_views, BACKBONE_GRID, BACKBONE_GRID, config.backbone_channels)
    return rng.uniform(-1.0, 1.0, size=shape)


def mpve(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean per-vertex Euclidean error in millimeters (inputs in meters)."""
    pred, gt = np.asarray(pred, float), np.asarray(gt, float)
    if pred.shape != gt.shape:
        raise ArgumentError(f"shape mismatch {pred.shape} vs {gt.shape}")
    return float(1000.0 * np.mean(np.linalg.norm(pred - gt, axis=1)))


def _ad_l1(pred: ad.Tensor, gt: np.ndarray) -> ad.Tensor:
    return ad.reduce_mean(ad.absolute(pred - ad.constant(gt)))


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


def compute_losses(output: ModelOutput, batch, assets: TemplateAssets) -> dict:
    """The three loss terms and their sum, all on the tape."""
    pred = output.pred_vertices
    terms = {
        "mesh": _ad_l1(pred, batch.gt_vertices),
        "reproj2d": _ad_reproject(pred, output.cameras, batch.gt2d),
        "edge": _ad_edge(pred, assets.mesh_edges),
    }
    terms["total"] = terms["mesh"] + terms["reproj2d"] + terms["edge"]
    return terms


def _nonfinite(data: np.ndarray, total=None) -> bool:
    """Whether an array holds a NaN or an inf; ``total`` is its sum, if taken."""
    # a sum is finite only if every term is, so one read without a
    # temporary clears an array; the element test settles an overflow
    if total is None:
        with np.errstate(over="ignore", invalid="ignore"):
            total = data.sum()
    return not np.isfinite(total) and not np.all(np.isfinite(data))


def _first_nonfinite(params: dict) -> str | None:
    """Name of the first tensor, in name order, holding a NaN or an inf.

    The sums that clear the tensors run on the autodiff pool, one piece each.
    """
    names = sorted(params)
    arrays = [params[name].data for name in names]
    with np.errstate(over="ignore", invalid="ignore"):  # pieces run in this context
        # an element of a sum takes about as long as 16 multiply-adds
        totals = ad.POOL.run([a.sum for a in arrays], 16 * sum(a.size for a in arrays))
    return next((name for name, a, total in zip(names, arrays, totals)
                 if _nonfinite(a, total)), None)


def train_step(params: dict, opt: ad.Adam, batch, assets: TemplateAssets,
               config: ModelConfig, bn_state: dict) -> dict:
    """One optimizer step on the summed loss; returns scalar loss values.

    Adam steps inside the backward walk: each parameter is updated as soon
    as its gradient is final, and its gradient is dropped right after, so
    the gradients of the whole model are never resident at once (the
    optimizer-in-backward design of LOMO, Lv et al., 2023). During the walk
    the step holds only the loss terms, not the model output, so an
    activation lives only while a backward closure still to be walked reads
    it, and the walk frees each one as soon as none does (see the
    :mod:`autodiff` module docstring). The decoder's largest vertex maps
    get their gradients late, after the walk has released the tape, and
    step then, largest first. Parameters the loss does not
    reach step afterwards with a zero gradient. The result is the same bits
    as ``backward()`` followed by one ``opt.step(params)``, and every
    parameter's ``grad`` is ``None`` on return. Each parameter is checked
    for finiteness by the sum that ``Adam.step`` takes of each chunk as it
    writes it; only a sum that is not finite makes the check read the
    parameter again.

    The step's batch-norm statistics are committed to ``bn_state`` only
    once its losses are finite, so a step that raises before its walk
    leaves ``bn_state`` as it was. An exception raised during the walk
    leaves a partial step: the statistics are committed, the parameters
    stepped before it are updated, and the others are not.

    Raises:
        NumericalError: a loss or parameter went non-finite, naming the
            first offending tensor.
    """
    bad = _first_nonfinite(params)
    if bad is not None:
        raise NumericalError(f"non-finite parameter tensor {bad!r} before step")
    staged = {}  # the batch-norm statistics of this step, committed once its losses are finite
    losses = compute_losses(forward(batch.features, params, assets, config, bn_state,
                                    train=True, staged=staged), batch, assets)
    for name, term in losses.items():
        if not np.isfinite(term.data):
            raise NumericalError(f"non-finite loss tensor {name!r}")
    bn_state.update(staged)
    names = {id(p): name for name, p in params.items()}
    idle = dict(params)  # parameters the walk has not reported yet
    bad = []  # parameters the step made non-finite

    def step_final(leaf):
        name = names[id(leaf)]
        totals = opt.step({name: leaf}) or {}  # a wrapper of the step may return nothing
        leaf.grad = None
        del idle[name]
        if _nonfinite(leaf.data, totals.get(name)):
            bad.append(name)

    losses["total"].backward(step_final)
    for p in idle.values():
        p.grad = None  # a gradient left from outside this step must not be applied
    if idle:
        totals = opt.step(idle) or {}
        bad += [name for name, p in idle.items() if _nonfinite(p.data, totals.get(name))]
    if bad:
        raise NumericalError(f"non-finite parameter tensor {min(bad)!r} after step")
    return {name: float(t.data) for name, t in losses.items()}


# --------------------------------------------------------------------------
# checkpointing


def save_checkpoint(directory: str | Path, params: dict, config: ModelConfig,
                    bn_state: dict) -> None:
    """Write ``manifest.json`` (the config and its hash) and an uncompressed
    ``tensors.npz``: each parameter under its own name, each batch-norm
    statistic as ``bn/<layer>/<mean|var>``, all float64 and bit-exact.
    No optimizer state is saved: Adam's ``m``, ``v`` and ``t`` restart on resume.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = {name: params[name].data for name in sorted(params)}
    for key, stats in sorted(bn_state.items()):
        tensors.update({f"bn/{key}/{stat}": stats[stat] for stat in ("mean", "var")})
    np.savez(directory / "tensors.npz", **tensors)
    manifest = {"config": config.to_dict(), "config_hash": config.config_hash()}
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def load_checkpoint(directory: str | Path):
    """Returns (params, config, bn_state) as :func:`save_checkpoint` wrote them,
    bit-exactly. There is no optimizer state: a new ``Adam`` starts at step 0.

    The archive must hold exactly the tensors the config runs on: each
    parameter of :func:`parameter_layout` and a mean and a var for each of
    ``BN_LAYERS``, each of its shape.

    Raises:
        ParseError: ``manifest.json`` or ``tensors.npz`` is missing or
            malformed, naming the file; a tensor is missing, unknown to the
            config or of another shape than the config's, holds a NaN or an
            inf, or is a negative batch-norm variance, naming the file and
            the key.
        ArgumentError: the manifest's config does not match its hash.
    """
    path = Path(directory) / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
        config = ModelConfig.from_dict(manifest["config"])
        expected_hash = manifest["config_hash"]
    except (OSError, ValueError, KeyError, TypeError, ParseError) as exc:
        raise ParseError(f"{path}: malformed checkpoint manifest: {exc!r}") from exc
    if config.config_hash() != expected_hash:
        raise ArgumentError("checkpoint manifest hash mismatch")
    path = path.with_name("tensors.npz")
    shapes = {name: shape for name, (shape, _) in parameter_layout(config).items()}
    shapes.update({f"bn/{layer}/{stat}": (config.feature_width,)
                   for layer in BN_LAYERS for stat in ("mean", "var")})
    params, bn_state = {}, {}
    try:
        # np.load leaves a file it opened itself open when zipfile rejects it
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            for key in archive.files:
                array = archive[key]  # bytes for a member that is not a .npy file
                if not isinstance(array, np.ndarray) or array.dtype != np.float64:
                    raise ParseError(f"{path}: tensor {key!r} is not a float64 array")
                if key not in shapes:
                    raise ParseError(f"{path}: tensor {key!r} is not one of the config's")
                if array.shape != shapes[key]:
                    raise ParseError(f"{path}: tensor {key!r} has shape {array.shape}, "
                                     f"the config's is {shapes[key]}")
                if _nonfinite(array):
                    raise ParseError(f"{path}: tensor {key!r} holds a NaN or an inf")
                if key.startswith("bn/"):
                    layer, _, stat = key[len("bn/"):].partition("/")
                    if stat == "var" and (array < 0).any():
                        raise ParseError(f"{path}: batch-norm variance {key!r} is negative")
                    bn_state.setdefault(layer, {})[stat] = array
                else:
                    params[key] = ad.parameter(array, name=key)  # C order, as Adam needs
            missing = sorted(set(shapes) - set(archive.files))
            if missing:
                raise ParseError(f"{path}: tensor {missing[0]!r} is missing")
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise ParseError(f"{path}: unreadable tensor archive: {exc!r}") from exc
    return params, config, bn_state
