"""Frozen miniature vision transformer with adapter hook points.

The backbone is a standard pre-norm ViT: patch embedding (linear, no bias),
a classification token, fixed sinusoidal positional encodings, then N blocks
of multi-head self-attention and an MLP, each wrapped in residual
connections, and a final layer norm applied before the classification token
is read out.

All weights are drawn once at init and permanently frozen. Designated
attention projections (any subset of q, k, v) accept a low-rank weight
update added to the frozen weight, which is where low-rank adapters attach.

Each product with a frozen weight is one 2-D product over all batch × token
rows, reshaped back afterwards; numpy would run a ``(batch, tokens, width)``
stack as one small product per image. With the weight as a C-contiguous right
operand, a row's bits do not depend on the row count (two rows or more), so
the forward matches per-image products bit for bit. The backward's transposed
weights do not have that property, so a batch's gradients match the per-image
ones to the last bits only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

if TYPE_CHECKING:
    from .adapters import Attachment

PROJECTIONS = ("q", "k", "v")

# the adapter attached to each projection that carries one
DeltaMap = Mapping[str, "Attachment"]

MAX_FROZEN_SCALARS = 2**28  # the most init_backbone may draw; ViT-B/16 holds 86M


@dataclass(frozen=True)
class BackboneConfig:
    num_blocks: int = 4
    width: int = 64
    heads: int = 4
    mlp_ratio: float = 4.0
    image_side: int = 16
    patch_side: int = 8
    channels: int = 1
    attach_set: tuple[str, ...] = ("q", "v")

    def __post_init__(self):
        if self.num_blocks < 1 or self.width < 1 or self.heads < 1:
            raise ConfigError("num_blocks, width, and heads must be positive")
        # a finite ratio can still overflow: 1e308 * 64 is inf, which round() refuses
        if not (np.isfinite(self.mlp_ratio * self.width) and self.mlp_hidden >= 1):
            raise ConfigError(
                f"mlp_ratio {self.mlp_ratio} gives width {self.width} no finite MLP width >= 1"
            )
        if self.width % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide width ({self.width})")
        if self.image_side < 1 or self.patch_side < 1 or self.channels < 1:
            raise ConfigError("image dimensions must be positive")
        if self.image_side % self.patch_side != 0:
            raise ConfigError(
                f"patch_side ({self.patch_side}) must divide image_side ({self.image_side})"
            )
        # one patch would embed a lone image as a matrix-vector product, whose
        # bits differ from the same image's row in a batch
        if self.image_side == self.patch_side:
            raise ConfigError(f"patch_side ({self.patch_side}) must be below image_side")
        if self.frozen_scalars > MAX_FROZEN_SCALARS:
            raise ConfigError(f"the backbone would hold over {MAX_FROZEN_SCALARS} frozen scalars")
        attach = tuple(self.attach_set)
        if not attach:
            raise ConfigError("attach_set must not be empty")
        if len(set(attach)) != len(attach) or any(p not in PROJECTIONS for p in attach):
            raise ConfigError(f"attach_set must be a subset of {PROJECTIONS}, got {attach}")
        object.__setattr__(self, "attach_set", tuple(p for p in PROJECTIONS if p in attach))

    @property
    def num_patches(self) -> int:
        return (self.image_side // self.patch_side) ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_side * self.patch_side

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.width))

    @property
    def frozen_scalars(self) -> int:
        """The scalars :func:`init_backbone` draws, positional table included."""
        d, h = self.width, self.mlp_hidden
        per_block = 4 * d * d + 2 * d * h + h + 9 * d
        return self.patch_dim * d + 3 * d + self.num_blocks * per_block + self.num_tokens * d


@dataclass
class TokenState:
    """Token matrix flowing through the blocks.

    ``tokens`` is ``(batch, num_tokens, width)``, or ``(batch, 1, width)``
    after a readout-only block; row 0 along the token axis is the
    classification token. ``block_index`` is the number of blocks already
    applied.
    """

    tokens: ad.Tensor
    block_index: int


def sinusoidal_positions(num_tokens: int, width: int) -> np.ndarray:
    """Fixed sin/cos positional table, position 0 belonging to the CLS row."""
    pos = np.arange(num_tokens, dtype=np.float64)[:, None]
    i = np.arange(width, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / width)
    table = np.zeros((num_tokens, width))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


@dataclass
class Backbone:
    """The frozen weights by name, as plain C-contiguous float64 arrays (the
    module docstring's bit-exactness argument needs that), and the
    positional table."""

    cfg: BackboneConfig
    params: dict[str, np.ndarray]
    positions: np.ndarray

    def param_count(self) -> int:
        return sum(w.size for w in self.params.values())

    def byte_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].tobytes())
        return h.hexdigest()


def init_backbone(cfg: BackboneConfig, rng: np.random.Generator) -> Backbone:
    """Draw all backbone weights (scaled Gaussian, std 1/sqrt(fan_in)), which
    stay frozen.

    Layer norms start as identity (unit gain, zero bias) and the positional
    table is computed, not learned, so it is not a weight.
    """
    d = cfg.width
    params: dict[str, np.ndarray] = {}

    def gaussian(shape, fan_in):
        return rng.standard_normal(shape) / np.sqrt(fan_in)

    params["embed.W"] = gaussian((cfg.patch_dim, d), cfg.patch_dim)
    params["cls"] = gaussian((d,), d)
    for i in range(1, cfg.num_blocks + 1):
        params[f"block{i}.ln1.g"] = np.ones(d)
        params[f"block{i}.ln1.b"] = np.zeros(d)
        for p in PROJECTIONS:
            params[f"block{i}.W{p}"] = gaussian((d, d), d)
            params[f"block{i}.b{p}"] = np.zeros(d)
        params[f"block{i}.Wo"] = gaussian((d, d), d)
        params[f"block{i}.bo"] = np.zeros(d)
        params[f"block{i}.ln2.g"] = np.ones(d)
        params[f"block{i}.ln2.b"] = np.zeros(d)
        params[f"block{i}.W1"] = gaussian((d, cfg.mlp_hidden), d)
        params[f"block{i}.b1"] = np.zeros(cfg.mlp_hidden)
        params[f"block{i}.W2"] = gaussian((cfg.mlp_hidden, d), cfg.mlp_hidden)
        params[f"block{i}.b2"] = np.zeros(d)
    params["lnf.g"] = np.ones(d)
    params["lnf.b"] = np.zeros(d)
    return Backbone(cfg, params, sinusoidal_positions(cfg.num_tokens, d))


def _extract_patches(image: np.ndarray, cfg: BackboneConfig) -> np.ndarray:
    """Cut (batch, c, H, W) into (batch, num_patches, patch_dim) row-major."""
    b = image.shape[0]
    s = cfg.patch_side
    n = cfg.image_side // s
    x = image.reshape(b, cfg.channels, n, s, n, s)
    x = x.transpose(0, 2, 4, 1, 3, 5)  # (b, n, n, c, s, s)
    return x.reshape(b, n * n, cfg.patch_dim)


def patch_embed(image: np.ndarray, backbone: Backbone) -> TokenState:
    """Project patches of a ``(batch, channels, H, W)`` batch, prepend the CLS
    token, and add positional encodings.

    Everything upstream of the first block is constant with respect to the
    trainable parameters, so the result enters the tape as a constant.
    """
    cfg = backbone.cfg
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 4:
        raise ShapeError(f"expected a (batch, channels, H, W) batch, got shape {image.shape}")
    expected = (cfg.channels, cfg.image_side, cfg.image_side)
    if image.shape[1:] != expected:
        raise ShapeError(f"expected image shape {expected}, got {image.shape[1:]}")
    patches = _extract_patches(image, cfg)
    tokens = patches.reshape(-1, cfg.patch_dim) @ backbone.params["embed.W"]
    tokens = tokens.reshape(image.shape[0], cfg.num_patches, cfg.width)
    cls = np.broadcast_to(backbone.params["cls"], (image.shape[0], 1, cfg.width))
    tokens = np.concatenate([cls, tokens], axis=1) + backbone.positions
    return TokenState(tokens=ad.Tensor(tokens), block_index=0)


# Scalars of the widest activation, images x tokens x MLP hidden, that one
# chunk of a tapeless forward holds: 32 images at the desk shape (5 tokens,
# hidden 256). Larger batches leave the cache; see batch_chunks.
CHUNK_BUDGET = 40_960


def batch_chunks(cfg: BackboneConfig, n: int) -> list[slice]:
    """Even, in-order slices of an ``n``-image batch, each of at most
    ``max(2, CHUNK_BUDGET // (num_tokens * mlp_hidden))`` images, for a
    forward that records no tape to run chunk by chunk.

    Every chunk holds two images or more, and a one-image batch is one chunk.
    A row's bits do not depend on its product's row count from two rows on, so
    the chunks' rows are bit for bit those of the whole batch.
    """
    size = max(2, CHUNK_BUDGET // (cfg.num_tokens * cfg.mlp_hidden))
    count = max(1, min(-(-n // size), n // 2))
    bounds = [n * j // count for j in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


_ATTENTION_WEIGHTS = ("ln1.g", "ln1.b", "Wq", "bq", "Wk", "bk", "Wv", "bv", "Wo", "bo")
_MLP_WEIGHTS = ("ln2.g", "ln2.b", "W1", "b1", "W2", "b2")
# GELU's tanh form, m * (1 + tanh(m * (c + c3 * m * m))) / 2 with c = sqrt(2/pi);
# the cube is written as products because ``m ** 3`` goes through np.power,
# which is tens of times slower than two products on these arrays
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_C3 = _GELU_C * 0.044715


def _weights(backbone: Backbone, i: int, names) -> dict[str, np.ndarray]:
    return {n: backbone.params[f"block{i}.{n}"] for n in names}


def attention_sublayer(backbone: Backbone, i: int, x: ad.Tensor, deltas: DeltaMap) -> ad.Tensor:
    """``x + attention(LN1(x)) @ Wo + bo`` of block ``i``, as one tape node.

    Each projection is one product ``LN1(x) @ W_p``, where ``W_p`` is the
    frozen weight, or its sum with the update of the adapter ``deltas`` names
    for it (see :meth:`~adapters.Attachment.merged`). The node's parents are
    ``x`` and the adapter tensors that take a gradient; the backbone weights
    are read as plain arrays. When no parent takes a gradient, ``ad.node``
    keeps nothing for a backward pass.
    """
    d, nh = backbone.cfg.width, backbone.cfg.heads
    dh = d // nh
    w = _weights(backbone, i, _ATTENTION_WEIGHTS)
    tensors: list[ad.Tensor] = []
    for att in deltas.values():
        tensors.extend(t for t in att.tensors if t.requires_grad and t not in tensors)
    need_h = x.requires_grad

    h, xhat, inv = ad.layer_norm_values(x.value, w["ln1.g"], w["ln1.b"])
    rows = h.reshape(-1, d)
    weight, proj, need = {}, {}, {}
    for p in PROJECTIONS:
        att = deltas.get(p)
        weight[p] = w[f"W{p}"] if att is None else att.merged(w[f"W{p}"])
        proj[p] = (rows @ weight[p]).reshape(h.shape) + w[f"b{p}"]
        need[p] = need_h or (att is not None and any(t.requires_grad for t in att.tensors))

    def split(a):  # (..., tokens, d) -> (..., heads, tokens, dh)
        return a.reshape(a.shape[:-1] + (nh, dh)).swapaxes(-2, -3)

    q, k, v = split(proj["q"]), split(proj["k"]), split(proj["v"])
    c = float(1.0 / np.sqrt(dh))
    scores = (q @ k.swapaxes(-1, -2)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att_w = e / e.sum(axis=-1, keepdims=True)
    mixed = (att_w @ v).swapaxes(-3, -2)  # (..., tokens, heads, dh)
    heads_shape = mixed.shape
    out = x.value + ((mixed.reshape(-1, d) @ w["Wo"]).reshape(h.shape) + w["bo"])

    def merge(a):  # (..., heads, tokens, dh) -> (..., tokens, d)
        return a.swapaxes(-3, -2).reshape(h.shape)

    def bwd(g, needs):
        g_av = (g.reshape(-1, d) @ w["Wo"].T).reshape(heads_shape).swapaxes(-2, -3)
        g_proj = {}
        if need["v"]:
            g_proj["v"] = merge(att_w.swapaxes(-1, -2) @ g_av)
        if need["q"] or need["k"]:
            g_att = g_av @ v.swapaxes(-1, -2)
            g_scores = att_w * (g_att - (g_att * att_w).sum(axis=-1, keepdims=True)) * c
            if need["q"]:
                g_proj["q"] = merge(g_scores @ k)
            if need["k"]:
                g_proj["k"] = merge((q.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2))
        # float addition is not associative, so h's gradient sums its terms
        # in one fixed order: q, k, v
        g_h = None
        grads = {id(t): None for t in tensors}
        for p in PROJECTIONS:
            if p not in g_proj:
                continue
            gp = g_proj[p].reshape(-1, d)
            if need_h:
                term = (gp @ weight[p].T).reshape(h.shape)
                g_h = term if g_h is None else g_h + term
            att = deltas.get(p)
            if att is None:
                continue
            for t, gt in zip(att.tensors, att.gradients(rows, gp)):
                if gt is not None:
                    prev = grads[id(t)]
                    grads[id(t)] = gt if prev is None else prev + gt
        g_x = g + ad.layer_norm_input_grad(g_h, w["ln1.g"], xhat, inv) if need_h else None
        return (g_x, *(grads[id(t)] for t in tensors))

    return ad.node(out, (x, *tensors), bwd)


def mlp_sublayer(backbone: Backbone, i: int, x: ad.Tensor) -> ad.Tensor:
    """``x + GELU(LN2(x) @ W1 + b1) @ W2 + b2`` of block ``i``, as one tape
    node whose only parent is ``x``; GELU is the tanh form
    ``m * (1 + tanh(sqrt(2/pi) * (m + 0.044715 m^3))) / 2`` (Hendrycks &
    Gimpel, 2016), and the backward uses its exact derivative.

    Nothing but the CLS readout follows block N, so there a batch of two or
    more runs on its CLS rows alone, as 2-D products, and yields
    ``(batch, 1, d)``. A batch of one keeps every token."""
    d = backbone.cfg.width
    w = _weights(backbone, i, _MLP_WEIGHTS)
    readout = i == backbone.cfg.num_blocks and x.value.shape[0] > 1
    v = x.value[:, 0, :] if readout else x.value
    h, xhat, inv = ad.layer_norm_values(v, w["ln2.g"], w["ln2.b"])
    m = h.reshape(-1, d) @ w["W1"] + w["b1"]  # (rows, hidden)
    m2 = m * m
    t = np.tanh(m * (_GELU_C + _GELU_C3 * m2))
    phi = 0.5 * (1.0 + t)
    out = v + ((m * phi) @ w["W2"] + w["b2"]).reshape(v.shape)
    if readout:
        out = out[:, None, :]
    slope = None  # GELU's derivative, worked out by the first backward pass that needs it

    def bwd(g, needs):
        nonlocal slope
        if slope is None:
            slope = phi + (0.5 * m) * (1.0 - t * t) * (_GELU_C + 3.0 * _GELU_C3 * m2)
        g = g.reshape(v.shape)
        g_h = ((g.reshape(-1, d) @ w["W2"].T) * slope) @ w["W1"].T
        g_v = g + ad.layer_norm_input_grad(g_h.reshape(v.shape), w["ln2.g"], xhat, inv)
        if not readout:
            return (g_v,)
        g_x = np.zeros_like(x.value)
        g_x[:, 0] = g_v
        return (g_x,)

    return ad.node(out, (x,), bwd)


def block_forward(
    backbone: Backbone, state: TokenState, i: int, deltas: DeltaMap | None = None
) -> TokenState:
    """Apply block ``i`` (1-based) to the token state.

    Each projection named in the config's attach set may carry an adapter
    (see :func:`attention_sublayer`). With no deltas supplied this is the pure
    frozen block. Block N runs readout-only (see :func:`mlp_sublayer`).
    """
    if i < 1 or i > backbone.cfg.num_blocks:
        raise ShapeError(f"block index {i} out of range 1..{backbone.cfg.num_blocks}")
    if state.block_index != i - 1:
        raise ShapeError(
            f"state is after block {state.block_index}, cannot apply block {i}"
        )
    if state.tokens.value.ndim != 3:
        raise ShapeError(f"token state must be (batch, tokens, width), got {state.tokens.shape}")
    deltas = deltas or {}
    unknown = set(deltas) - set(backbone.cfg.attach_set)
    if unknown:
        raise ShapeError(f"deltas supplied for unattached projections: {sorted(unknown)}")
    x = attention_sublayer(backbone, i, state.tokens, deltas)
    x = mlp_sublayer(backbone, i, x)
    return TokenState(tokens=x, block_index=i)


def extract_cls(backbone: Backbone, state: TokenState) -> ad.Tensor:
    """Final layer norm of the CLS rows alone, as one node: ``(batch, d)``."""
    x = state.tokens
    gain = backbone.params["lnf.g"]
    out, xhat, inv = ad.layer_norm_values(x.value[:, 0, :], gain, backbone.params["lnf.b"])

    def bwd(g, needs):
        # the other rows read nothing; with the frozen positive gain, a layer
        # norm of every token gave them exactly +0.0 as well
        g_x = np.zeros_like(x.value)
        g_x[:, 0, :] = ad.layer_norm_input_grad(g, gain, xhat, inv)
        return (g_x,)

    return ad.node(out, (x,), bwd)
