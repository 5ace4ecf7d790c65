"""Frozen miniature vision transformer with adapter hook points.

The backbone is a standard pre-norm ViT: patch embedding (linear, no bias),
a classification token, fixed sinusoidal positional encodings, then N blocks
of multi-head self-attention and an MLP, each wrapped in residual
connections, and a final layer norm applied before the classification token
is read out.

All weights are drawn once at init and permanently frozen. Designated
attention projections (any subset of q, k, v) accept an additive delta
computed from the same normalized input the projection consumes, which is
where low-rank adapters attach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np
from scipy.special import erf

from . import autodiff as ad
from .errors import ConfigError, ShapeError

if TYPE_CHECKING:
    from .adapters import Attachment

PROJECTIONS = ("q", "k", "v")

# the adapter attached to each projection that carries one
DeltaMap = Mapping[str, "Attachment"]


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
        if self.width % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide width ({self.width})")
        if self.image_side < 1 or self.patch_side < 1 or self.channels < 1:
            raise ConfigError("image dimensions must be positive")
        if self.image_side % self.patch_side != 0:
            raise ConfigError(
                f"patch_side ({self.patch_side}) must divide image_side ({self.image_side})"
            )
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
    cfg: BackboneConfig
    params: dict[str, ad.Parameter] = field(default_factory=dict)
    positions: np.ndarray | None = None

    def param(self, name: str) -> ad.Parameter:
        return self.params[name]

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def byte_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].value.tobytes())
        return h.hexdigest()


def init_backbone(cfg: BackboneConfig, rng: np.random.Generator) -> Backbone:
    """Draw all backbone weights (scaled Gaussian, std 1/sqrt(fan_in)) and freeze them.

    Layer norms start as identity (unit gain, zero bias) and the positional
    table is computed, not learned, so it is not a parameter.
    """
    d = cfg.width
    bb = Backbone(cfg=cfg)

    def frozen(name: str, value: np.ndarray) -> None:
        bb.params[name] = ad.Parameter(name, value, trainable=False, tag="backbone")

    def gaussian(shape, fan_in):
        return rng.standard_normal(shape) / np.sqrt(fan_in)

    frozen("embed.W", gaussian((cfg.patch_dim, d), cfg.patch_dim))
    frozen("cls", gaussian((d,), d))
    for i in range(1, cfg.num_blocks + 1):
        frozen(f"block{i}.ln1.g", np.ones(d))
        frozen(f"block{i}.ln1.b", np.zeros(d))
        for p in PROJECTIONS:
            frozen(f"block{i}.W{p}", gaussian((d, d), d))
            frozen(f"block{i}.b{p}", np.zeros(d))
        frozen(f"block{i}.Wo", gaussian((d, d), d))
        frozen(f"block{i}.bo", np.zeros(d))
        frozen(f"block{i}.ln2.g", np.ones(d))
        frozen(f"block{i}.ln2.b", np.zeros(d))
        frozen(f"block{i}.W1", gaussian((d, cfg.mlp_hidden), d))
        frozen(f"block{i}.b1", np.zeros(cfg.mlp_hidden))
        frozen(f"block{i}.W2", gaussian((cfg.mlp_hidden, d), cfg.mlp_hidden))
        frozen(f"block{i}.b2", np.zeros(d))
    frozen("lnf.g", np.ones(d))
    frozen("lnf.b", np.zeros(d))
    bb.positions = sinusoidal_positions(cfg.num_tokens, d)
    return bb


def _extract_patches(image: np.ndarray, cfg: BackboneConfig) -> np.ndarray:
    """Cut (batch, c, H, W) into (batch, num_patches, patch_dim) row-major."""
    b = image.shape[0]
    s = cfg.patch_side
    n = cfg.image_side // s
    x = image.reshape(b, cfg.channels, n, s, n, s)
    x = x.transpose(0, 2, 4, 1, 3, 5)  # (b, n, n, c, s, s)
    return x.reshape(b, n * n, cfg.patch_dim)


def patch_embed(image: np.ndarray, backbone: Backbone) -> TokenState:
    """Project patches, prepend the CLS token, and add positional encodings.

    Accepts a batch ``(batch, channels, H, W)`` or a single image
    ``(channels, H, W)``, which becomes a batch of one. Everything upstream
    of the first block is constant with respect to the trainable parameters,
    so the result enters the tape as a constant.
    """
    cfg = backbone.cfg
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3:
        image = image[None]
    expected = (cfg.channels, cfg.image_side, cfg.image_side)
    if image.ndim != 4 or image.shape[1:] != expected:
        got = image.shape[1:] if image.ndim == 4 else image.shape  # per image when batched
        raise ShapeError(f"expected image shape {expected}, got {got}")
    patches = _extract_patches(image, cfg)
    tokens = patches @ backbone.param("embed.W").value
    cls = np.broadcast_to(backbone.param("cls").value, (image.shape[0], 1, cfg.width))
    tokens = np.concatenate([cls, tokens], axis=1) + backbone.positions
    return TokenState(tokens=ad.constant(tokens), block_index=0)


_ATTENTION_WEIGHTS = ("ln1.g", "ln1.b", "Wq", "bq", "Wk", "bk", "Wv", "bv", "Wo", "bo")
_MLP_WEIGHTS = ("ln2.g", "ln2.b", "W1", "b1", "W2", "b2")


def _weights(backbone: Backbone, i: int, names) -> dict[str, np.ndarray]:
    return {n: backbone.params[f"block{i}.{n}"].value for n in names}


def attention_sublayer(backbone: Backbone, i: int, x: ad.Tensor, deltas: DeltaMap) -> ad.Tensor:
    """``x + attention(LN1(x)) @ Wo + bo`` of block ``i``, as one tape node.

    Each projection named in ``deltas`` adds its adapter's delta, computed from
    the same normalized tokens the frozen projection reads. The node's parents
    are ``x`` and the adapter tensors that take a gradient; the backbone
    weights are read as plain arrays. When no parent takes a gradient nothing
    is kept for a backward pass.
    """
    d, nh = backbone.cfg.width, backbone.cfg.heads
    dh = d // nh
    w = _weights(backbone, i, _ATTENTION_WEIGHTS)
    tensors: list[ad.Tensor] = []
    for att in deltas.values():
        tensors.extend(t for t in att.tensors if t.requires_grad and t not in tensors)
    need_h = x.requires_grad

    h, xhat, inv = ad.layer_norm_values(x.value, w["ln1.g"], w["ln1.b"])
    proj, saved, need = {}, {}, {}
    for p in PROJECTIONS:
        out = h @ w[f"W{p}"] + w[f"b{p}"]
        att = deltas.get(p)
        if att is not None:
            delta, saved[p] = att.forward(h)
            if delta.shape != out.shape:
                raise ShapeError(
                    f"adapter delta for {p!r} has shape {delta.shape}, expected {out.shape}"
                )
            out = out + delta
        proj[p] = out
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
    mixed = mixed.reshape(heads_shape[:-2] + (d,))
    out = x.value + (mixed @ w["Wo"] + w["bo"])
    if not (need_h or tensors):
        return ad.constant(out)

    def merge(a):  # (..., heads, tokens, dh) -> (..., tokens, d)
        return a.swapaxes(-3, -2).reshape(h.shape)

    def bwd(g, needs):
        g_av = (g @ w["Wo"].T).reshape(heads_shape).swapaxes(-2, -3)
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
        # Float addition is not associative, so the terms of h's gradient are
        # summed in one fixed order: q, k, v, each frozen projection before
        # its adapter. It is the order of the op-by-op tape this node
        # replaced, which kept every run's losses bit for bit.
        g_h = None
        grads = {id(t): None for t in tensors}
        for p in PROJECTIONS:
            if p not in g_proj:
                continue
            gp = g_proj[p]
            if need_h:
                term = gp @ w[f"W{p}"].T
                g_h = term if g_h is None else g_h + term
            att = deltas.get(p)
            if att is None:
                continue
            g_hd, t_grads = att.backward(gp, h, saved[p], need_h)
            if need_h:
                g_h = g_h + g_hd
            for t, gt in zip(att.tensors, t_grads):
                if gt is not None:
                    prev = grads[id(t)]
                    grads[id(t)] = gt if prev is None else prev + gt
        g_x = g + ad.layer_norm_input_grad(g_h, w["ln1.g"], xhat, inv) if need_h else None
        return (g_x, *(grads[id(t)] for t in tensors))

    return ad.node(out, (x, *tensors), bwd)


def mlp_sublayer(backbone: Backbone, i: int, x: ad.Tensor, cls_only: bool = False) -> ad.Tensor:
    """``x + GELU(LN2(x) @ W1 + b1) @ W2 + b2`` of block ``i``, as one tape
    node whose only parent is ``x``; GELU is the exact ``m * Phi(m)``. With
    ``cls_only`` a batch of two or more runs on its CLS rows alone, as 2-D
    products, and yields ``(batch, 1, d)``."""
    w = _weights(backbone, i, _MLP_WEIGHTS)
    readout = cls_only and x.value.shape[0] > 1
    v = x.value[:, 0, :] if readout else x.value
    h, xhat, inv = ad.layer_norm_values(v, w["ln2.g"], w["ln2.b"])
    m = h @ w["W1"] + w["b1"]
    phi = 0.5 * (1.0 + erf(m / np.sqrt(2.0)))
    out = v + ((m * phi) @ w["W2"] + w["b2"])
    if readout:
        out = out[:, None, :]
    if not x.requires_grad:
        return ad.constant(out)
    slope = None  # GELU's derivative, worked out by the first backward pass that needs it

    def bwd(g, needs):
        nonlocal slope
        if slope is None:
            slope = phi + m * (np.exp(-0.5 * m * m) / np.sqrt(2.0 * np.pi))
        if not readout:
            g_h = ((g @ w["W2"].T) * slope) @ w["W1"].T
            return (g + ad.layer_norm_input_grad(g_h, w["ln2.g"], xhat, inv),)
        # the rows of a product with a transposed operand depend on the row
        # count, so these keep the full-token shapes to match that path bitwise
        g_x = np.zeros_like(x.value)
        g_x[:, 0] = g[:, 0]
        s = np.zeros(x.value.shape[:2] + slope.shape[-1:])
        s[:, 0] = slope
        g_h = (((g_x @ w["W2"].T) * s) @ w["W1"].T)[:, 0]
        g_x[:, 0] += ad.layer_norm_input_grad(g_h, w["ln2.g"], xhat, inv)
        return (g_x,)

    return ad.node(out, (x,), bwd)


def block_forward(
    backbone: Backbone, state: TokenState, i: int, deltas: DeltaMap | None = None, *, cls_only=False
) -> TokenState:
    """Apply block ``i`` (1-based) to the token state.

    Each projection named in the config's attach set may carry an adapter
    (see :func:`attention_sublayer`). With no deltas supplied this is the pure
    frozen block. Set ``cls_only`` when only the result's CLS row is read.
    """
    if i < 1 or i > backbone.cfg.num_blocks:
        raise ConfigError(f"block index {i} out of range 1..{backbone.cfg.num_blocks}")
    if state.block_index != i - 1:
        raise ShapeError(
            f"state is after block {state.block_index}, cannot apply block {i}"
        )
    if state.tokens.value.ndim != 3:
        raise ShapeError(f"token state must be (batch, tokens, width), got {state.tokens.shape}")
    if state.tokens.value.shape[1] == 1:
        raise ShapeError(f"block {state.block_index} ran readout-only; no block can follow it")
    deltas = deltas or {}
    unknown = set(deltas) - set(backbone.cfg.attach_set)
    if unknown:
        raise ConfigError(f"deltas supplied for unattached projections: {sorted(unknown)}")
    x = attention_sublayer(backbone, i, state.tokens, deltas)
    x = mlp_sublayer(backbone, i, x, cls_only)
    return TokenState(tokens=x, block_index=i)


def extract_cls(backbone: Backbone, state: TokenState) -> ad.Tensor:
    """Final layer norm of the CLS rows alone, as one node: ``(batch, d)``."""
    x = state.tokens
    gain = backbone.param("lnf.g").value
    out, xhat, inv = ad.layer_norm_values(x.value[:, 0, :], gain, backbone.param("lnf.b").value)

    def bwd(g, needs):
        # the other rows read nothing; with the frozen positive gain, a layer
        # norm of every token gave them exactly +0.0 as well
        g_x = np.zeros_like(x.value)
        g_x[:, 0, :] = ad.layer_norm_input_grad(g, gain, xhat, inv)
        return (g_x,)

    return ad.node(out, (x,), bwd)
