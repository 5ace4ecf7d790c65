import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualora import adapters as adp
from dualora import autodiff as ad
from dualora import backbone as bb
from dualora import numerics as nm
from dualora.errors import ConfigError, ShapeError

from conftest import project


def small_cfg(**kw):
    base = dict(num_blocks=2, width=16, heads=2, image_side=8, patch_side=4, channels=1)
    base.update(kw)
    return bb.BackboneConfig(**base)


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            small_cfg(width=16, heads=3)

    def test_patch_must_divide_image(self):
        with pytest.raises(ConfigError):
            small_cfg(image_side=16, patch_side=5)

    def test_attach_set_validated(self):
        with pytest.raises(ConfigError):
            small_cfg(attach_set=())
        with pytest.raises(ConfigError):
            small_cfg(attach_set=("q", "z"))
        assert small_cfg(attach_set=("v", "q")).attach_set == ("q", "v")

    @pytest.mark.parametrize("ratio", [0.0, -1.0, float("inf"), float("nan")])
    def test_mlp_needs_a_hidden_unit(self, ratio):
        with pytest.raises(ConfigError):
            small_cfg(mlp_ratio=ratio)

    def test_one_patch_per_image_refused(self):
        with pytest.raises(ConfigError, match="patch_side"):
            small_cfg(image_side=8, patch_side=8)

    @pytest.mark.parametrize(
        "sizes",
        [{"num_blocks": 10**200}, {"mlp_ratio": 1e200}, {"width": 2**40, "heads": 1},
         {"image_side": 2**20, "patch_side": 1}],
    )
    def test_frozen_scalars_bounded(self, sizes):
        with pytest.raises(ConfigError, match="frozen scalars"):
            small_cfg(**sizes)

    def test_token_arithmetic(self):
        cfg = small_cfg(image_side=16, patch_side=8)
        assert cfg.num_patches == 4
        assert cfg.num_tokens == 5


class TestInit:
    def test_same_seed_bit_identical(self):
        a = bb.init_backbone(small_cfg(), nm.make_rng(4))
        b = bb.init_backbone(small_cfg(), nm.make_rng(4))
        assert a.byte_hash() == b.byte_hash()

    def test_weights_are_contiguous_float64_arrays(self):
        # the batched products are bit-exact only with C-contiguous float64 weights
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        for w in backbone.params.values():
            assert type(w) is np.ndarray and w.dtype == np.float64 and w.flags.c_contiguous

    def test_vitb16_shape_closed_form_count(self):
        # oracle: enumerate every tensor of the standard 12-block/768-wide
        # layout and sum shape products independently of init_backbone
        cfg = bb.BackboneConfig(
            num_blocks=12, width=768, heads=12, mlp_ratio=4.0,
            image_side=224, patch_side=16, channels=3,
        )
        backbone = bb.init_backbone(cfg, nm.make_rng(1))
        d, h, patch_dim = 768, 3072, 16 * 16 * 3
        per_block = (
            2 * d            # first norm gain+bias
            + 3 * (d * d + d)  # q, k, v with bias
            + d * d + d      # output projection
            + 2 * d          # second norm
            + d * h + h      # mlp in
            + h * d + d      # mlp out
        )
        expected = patch_dim * d + d + 12 * per_block + 2 * d
        assert backbone.param_count() == expected
        assert cfg.frozen_scalars == expected + backbone.positions.size <= bb.MAX_FROZEN_SCALARS


class TestPatchEmbed:
    def test_token_count(self):
        cfg = bb.BackboneConfig(num_blocks=1, width=8, heads=1, image_side=16, patch_side=8)
        backbone = bb.init_backbone(cfg, nm.make_rng(0))
        state = bb.patch_embed(np.zeros((1, 1, 16, 16)), backbone)
        assert state.tokens.shape == (1, 5, 8)

    def test_zero_image_gives_positions_plus_cls(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        state = bb.patch_embed(np.zeros((1, 1, 8, 8)), backbone)
        expected = backbone.positions.copy()
        expected[0] += backbone.params["cls"]
        assert np.array_equal(state.tokens.value, expected[None])

    def test_shape_mismatch(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        with pytest.raises(ShapeError):
            bb.patch_embed(np.zeros((1, 1, 8, 9)), backbone)

    def test_batch_shape_mismatch_names_per_image_shape(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        with pytest.raises(ShapeError, match=r"expected image shape \(1, 8, 8\), got \(1, 8, 9\)$"):
            bb.patch_embed(np.zeros((16, 1, 8, 9)), backbone)

    def test_single_image_is_a_batch_of_one(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        img = nm.make_rng(1).uniform(0, 1, (1, 8, 8))
        single = bb.patch_embed(img[None], backbone).tokens.value
        assert single.shape == (1, 5, 16)
        # oracle: cut the four 4x4 patches by hand, row-major
        patches = [img[0, r : r + 4, c : c + 4].reshape(-1) for r in (0, 4) for c in (0, 4)]
        embedded = patches @ backbone.params["embed.W"]
        expected = np.vstack([backbone.params["cls"], embedded])
        assert np.allclose(single[0], expected + backbone.positions, atol=1e-15)

    @pytest.mark.parametrize("shape", [(1, 8, 8), (8, 8), (2, 1, 1, 8, 8)])
    def test_unbatched_image_rejected(self, shape):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        with pytest.raises(ShapeError, match=r"\(batch, channels, H, W\)"):
            bb.patch_embed(np.zeros(shape), backbone)

    def test_batch_matches_single(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        imgs = nm.make_rng(1).uniform(0, 1, (3, 1, 8, 8))
        batch = bb.patch_embed(imgs, backbone).tokens.value
        for i in range(3):
            single = bb.patch_embed(imgs[i : i + 1], backbone).tokens.value
            assert np.allclose(batch[i], single[0], atol=1e-15)


class TestBlockForward:
    def test_zero_delta_identity(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        img = nm.make_rng(1).uniform(0, 1, (1, 1, 8, 8))
        plain = bb.block_forward(backbone, bb.patch_embed(img, backbone), 1)
        shared = adp.init_shared((1,), ("q", "v"), 2, 16, nm.make_rng(3))  # up starts at zero
        zeros = {p: shared.pairs[(1, p)].attach() for p in ("q", "v")}
        with_delta = bb.block_forward(backbone, bb.patch_embed(img, backbone), 1, zeros)
        assert np.array_equal(plain.tokens.value, with_delta.tokens.value)

    def test_deterministic(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        img = nm.make_rng(2).uniform(0, 1, (1, 1, 8, 8))
        a = bb.block_forward(backbone, bb.patch_embed(img, backbone), 1).tokens.value
        b = bb.block_forward(backbone, bb.patch_embed(img, backbone), 1).tokens.value
        assert np.array_equal(a, b)

    def test_out_of_order_block_rejected(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        state = bb.patch_embed(np.zeros((1, 1, 8, 8)), backbone)
        with pytest.raises(ShapeError):
            bb.block_forward(backbone, state, 2)

    def test_token_shape_preserved_through_blocks(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        state = bb.patch_embed(nm.make_rng(3).uniform(0, 1, (1, 1, 8, 8)), backbone)
        for i in (1, 2):
            state = bb.block_forward(backbone, state, i)
            assert state.tokens.shape == (1, 5, 16)
            assert state.block_index == i

    def test_single_token_attention_closed_form(self):
        # oracle: with one token, attention weight is exactly 1, so the block
        # reduces to x + Wo(v(ln(x))) + mlp(ln2(...)), computable by hand
        cfg = bb.BackboneConfig(
            num_blocks=1, width=4, heads=1, mlp_ratio=2.0,
            image_side=2, patch_side=1, channels=1,
        )
        backbone = bb.init_backbone(cfg, nm.make_rng(5))
        x = nm.make_rng(6).standard_normal((1, 1, 4))  # one image of one token
        p = {k: backbone.params[f"block1.{k}"] for k in
             ("ln1.g", "ln1.b", "Wv", "bv", "Wo", "bo", "ln2.g", "ln2.b", "W1", "b1", "W2", "b2")}

        def ln(v, g, b, eps=1e-6):
            mu = v.mean(axis=-1, keepdims=True)
            var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
            return (v - mu) / np.sqrt(var + eps) * g + b

        h = ln(x, p["ln1.g"], p["ln1.b"])
        attn = (h @ p["Wv"] + p["bv"]) @ p["Wo"] + p["bo"]  # softmax over one key = 1
        y = x + attn
        h2 = ln(y, p["ln2.g"], p["ln2.b"])
        m = h2 @ p["W1"] + p["b1"]
        c = float(np.sqrt(2.0 / np.pi))  # GELU, tanh form
        m = m * (0.5 * (1.0 + np.tanh(m * (c + c * 0.044715 * (m * m)))))
        expected = y + m @ p["W2"] + p["b2"]

        out = bb.block_forward(backbone, bb.TokenState(ad.Tensor(x), 0), 1).tokens
        assert np.allclose(out.value, expected, atol=1e-12)

    @pytest.mark.parametrize("readout", [False, True])
    def test_unbatched_state_rejected(self, readout):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        i = backbone.cfg.num_blocks if readout else 1
        state = bb.TokenState(ad.Tensor(np.ones((5, 16))), i - 1)
        with pytest.raises(ShapeError, match=r"\(batch, tokens, width\)"):
            bb.block_forward(backbone, state, i)


class TestExtractCls:
    def test_returns_row_zero_of_normed_tokens(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        img = nm.make_rng(7).uniform(0, 1, (1, 1, 8, 8))
        state = bb.patch_embed(img, backbone)
        state = bb.block_forward(backbone, state, 1)
        cls = bb.extract_cls(backbone, state).value
        tokens = state.tokens.value
        mu = tokens.mean(axis=-1, keepdims=True)
        var = ((tokens - mu) ** 2).mean(axis=-1, keepdims=True)
        normed = (tokens - mu) / np.sqrt(var + 1e-6)
        assert np.allclose(cls, normed[:, 0], atol=1e-12)

    def test_unit_statistics_after_norm(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        img = nm.make_rng(8).uniform(0, 1, (1, 1, 8, 8))
        state = bb.block_forward(backbone, bb.patch_embed(img, backbone), 1)
        cls = bb.extract_cls(backbone, state).value
        assert abs(cls.mean()) <= 1e-9
        assert abs(cls.std() - 1.0) <= 1e-3  # eps in the norm shifts std slightly

    def test_cls_ignores_patch_permutation_when_attention_is_content_free(self):
        # oracle: force attention scores to zero by zeroing q/k projections;
        # softmax becomes uniform, and the CLS output must then be invariant
        # to permuting the patch rows
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(9))
        for i in (1, 2):
            backbone.params[f"block{i}.Wq"][:] = 0.0
            backbone.params[f"block{i}.bq"][:] = 0.0
            backbone.params[f"block{i}.Wk"][:] = 0.0
            backbone.params[f"block{i}.bk"][:] = 0.0
        img = nm.make_rng(10).uniform(0, 1, (1, 1, 8, 8))
        base = bb.patch_embed(img, backbone).tokens.value
        perm = base.copy()
        perm[:, 1:] = perm[:, 1:][:, ::-1]

        def run(tokens):
            state = bb.TokenState(tokens=ad.Tensor(tokens), block_index=0)
            for i in (1, 2):
                state = bb.block_forward(backbone, state, i)
            return bb.extract_cls(backbone, state).value

        assert np.allclose(run(base), run(perm), atol=1e-12)


# ---------------------------------------------------------------------------
# fused sublayers
# ---------------------------------------------------------------------------


def _reference_ln(v, g, b, eps=1e-6):
    mu = v.mean(axis=-1, keepdims=True)
    xc = v - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * (1.0 / np.sqrt(var + eps)) * g + b


def _reference_attention(backbone, i, x, deltas, *, merged=True):
    """Plain-numpy attention sublayer; ``deltas`` maps a projection to
    (down, up, scale or None). Each adapter is merged into its weight,
    ``W + s * down.T @ up.T``, or with ``merged`` off added as the low-rank
    output ``s * (h @ down.T) @ up.T``."""
    w = lambda name: backbone.params[f"block{i}.{name}"]
    d, nh = backbone.cfg.width, backbone.cfg.heads
    dh = d // nh
    h = _reference_ln(x, w("ln1.g"), w("ln1.b"))
    heads = []
    for p in ("q", "k", "v"):
        weight = w(f"W{p}")
        low_rank = 0.0
        if p in deltas:
            down, up, s = deltas[p]
            s = 1.0 if s is None else s
            if merged:
                weight = weight + s * (down.T @ up.T)
            else:
                low_rank = s * ((h @ down.T) @ up.T)
        out = h @ weight + w(f"b{p}") + low_rank
        heads.append(np.moveaxis(out.reshape(out.shape[:-1] + (nh, dh)), -2, -3))
    q, k, v = heads
    scores = (q @ np.swapaxes(k, -1, -2)) * float(1.0 / np.sqrt(dh))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    mixed = np.moveaxis((e / e.sum(axis=-1, keepdims=True)) @ v, -3, -2)
    mixed = mixed.reshape(mixed.shape[:-2] + (d,))
    return x + (mixed @ w("Wo") + w("bo"))


def _reference_mlp(backbone, i, x):
    w = lambda name: backbone.params[f"block{i}.{name}"]
    m = _reference_ln(x, w("ln2.g"), w("ln2.b")) @ w("W1") + w("b1")
    c = float(np.sqrt(2.0 / np.pi))  # GELU, tanh form
    gelu = m * (0.5 * (1.0 + np.tanh(m * (c + c * 0.044715 * (m * m)))))
    return x + (gelu @ w("W2") + w("b2"))


def _sublayer_setup(attach, block_weights, seed=0, width=12, heads=2, rank=2):
    """One block with non-trivial norms and biases and a non-zero task adapter.
    The default head width 6 makes the attention scale 1/sqrt(6) inexact."""
    rng = nm.make_rng(seed)
    cfg = bb.BackboneConfig(
        num_blocks=1, width=width, heads=heads, image_side=4, patch_side=2, attach_set=attach
    )
    backbone = bb.init_backbone(cfg, rng)
    for name, w in backbone.params.items():
        if name.startswith("block1.") and w.ndim == 1:
            w[:] = rng.uniform(0.5, 1.5, w.shape) if ".g" in name else (
                0.1 * rng.standard_normal(w.shape)
            )
    specific = adp.init_specific(
        1, (1,), cfg.attach_set, rank, width, rng, block_weights=block_weights
    )
    for pair in specific.pairs.values():
        pair.up.value[:] = 0.5 * rng.standard_normal(pair.up.value.shape)
    return backbone, specific


def _one_block_deeper(backbone):
    """``backbone``'s weights under a config with one more block: its block N
    is no longer the last one there, so it keeps every token."""
    cfg = dataclasses.replace(backbone.cfg, num_blocks=backbone.cfg.num_blocks + 1)
    return bb.Backbone(cfg=cfg, params=backbone.params, positions=backbone.positions)


def _attachments(specific):
    mu = specific.mu_tensor()
    return {p: pair.attach(mu, 0) for (_, p), pair in specific.pairs.items()}


def _plain_deltas(specific):
    """The adapter as ``_reference_attention`` reads it."""
    scale = None if specific.rho is None else specific.mu_tensor().value[0]
    return {p: (pair.down.value, pair.up.value, scale) for (_, p), pair in specific.pairs.items()}


TOKEN_SHAPES = {"batched": (3, 5, 12), "single": (5, 12)}


class TestFusedSublayers:
    @pytest.mark.parametrize("tokens", sorted(TOKEN_SHAPES))
    @pytest.mark.parametrize("attach", [("q", "v"), ("q", "k", "v")])
    @pytest.mark.parametrize("block_weights", [True, False])
    def test_attention_matches_finite_differences(self, tokens, attach, block_weights):
        backbone, specific = _sublayer_setup(attach, block_weights)
        rng = nm.make_rng(1)
        x = ad.Parameter("x", rng.standard_normal(TOKEN_SHAPES[tokens]), True, "head")
        c = rng.standard_normal(TOKEN_SHAPES[tokens])
        params = [x] + specific.parameters()

        def closure():
            out = bb.attention_sublayer(
                backbone, 1, ad.leaf(x), _attachments(specific)
            )
            return {"f": project(out, c)}

        rep = ad.finite_difference_check(closure, params, step=1e-5)["f"]
        assert list(rep) == [p.name for p in params]
        assert max(rep.values()) <= 1e-5, rep

    @pytest.mark.parametrize("tokens", sorted(TOKEN_SHAPES))
    def test_mlp_matches_finite_differences(self, tokens):
        backbone, _ = _sublayer_setup(("q", "v"), False)
        rng = nm.make_rng(2)
        x = ad.Parameter("x", rng.standard_normal(TOKEN_SHAPES[tokens]), True, "head")
        c = rng.standard_normal(TOKEN_SHAPES[tokens])

        inner = _one_block_deeper(backbone)

        def closure():
            return {"f": project(bb.mlp_sublayer(inner, 1, ad.leaf(x)), c)}

        rep = ad.finite_difference_check(closure, [x], step=1e-5)["f"]
        assert max(rep.values()) <= 1e-5, rep

    @pytest.mark.parametrize("tokens", sorted(TOKEN_SHAPES))
    @pytest.mark.parametrize("attach", [("q", "v"), ("q", "k", "v")])
    @pytest.mark.parametrize("block_weights", [True, False])
    def test_forward_bitwise_equals_plain_numpy(self, tokens, attach, block_weights):
        backbone, specific = _sublayer_setup(attach, block_weights)
        x = nm.make_rng(3).standard_normal(TOKEN_SHAPES[tokens])
        attn = bb.attention_sublayer(
            backbone, 1, ad.Tensor(x), _attachments(specific)
        ).value
        assert np.array_equal(attn, _reference_attention(backbone, 1, x, _plain_deltas(specific)))
        mlp = bb.mlp_sublayer(_one_block_deeper(backbone), 1, ad.Tensor(attn)).value
        assert np.array_equal(mlp, _reference_mlp(backbone, 1, attn))

    @pytest.mark.parametrize("tokens", sorted(TOKEN_SHAPES))
    @pytest.mark.parametrize("attach", [("q", "v"), ("q", "k", "v")])
    @pytest.mark.parametrize("block_weights", [True, False])
    def test_forward_within_1e12_of_low_rank_form(self, tokens, attach, block_weights):
        backbone, specific = _sublayer_setup(attach, block_weights)
        x = nm.make_rng(3).standard_normal(TOKEN_SHAPES[tokens])
        attn = bb.attention_sublayer(backbone, 1, ad.Tensor(x), _attachments(specific)).value
        low_rank = _reference_attention(backbone, 1, x, _plain_deltas(specific), merged=False)
        assert np.max(np.abs(attn - low_rank)) <= 1e-12 * np.max(np.abs(low_rank))

    @pytest.mark.parametrize("tokens", sorted(TOKEN_SHAPES))
    def test_fresh_adapter_with_block_weights_leaves_the_block_bare(self, tokens):
        backbone, _ = _sublayer_setup(("q", "k", "v"), True)
        fresh = adp.init_specific(1, (1,), ("q", "k", "v"), 2, 12, nm.make_rng(4))
        assert fresh.rho is not None  # the update is mu * down.T @ 0
        x = ad.Tensor(nm.make_rng(5).standard_normal(TOKEN_SHAPES[tokens]))
        bare = bb.attention_sublayer(backbone, 1, x, {}).value
        adapted = bb.attention_sublayer(backbone, 1, x, _attachments(fresh)).value
        assert np.array_equal(adapted, bare)

    def test_one_node_per_sublayer_with_adapter_parents_only(self):
        backbone, specific = _sublayer_setup(("q", "v"), True)
        specific.pairs[(1, "v")].down.trainable = False  # a frozen tensor is no parent
        x = ad.leaf(ad.Parameter("x", np.ones((1, 5, 12)), True, "head"))
        deltas = _attachments(specific)
        state = bb.block_forward(backbone, bb.TokenState(x, 0), 1, deltas)
        mlp = state.tokens
        (attn,) = mlp.parents
        expected = [x, deltas["q"].down, deltas["q"].up, deltas["q"].mu, deltas["v"].up]
        assert len(attn.parents) == len(expected)
        assert all(a is b for a, b in zip(attn.parents, expected))

    def test_frozen_pass_keeps_no_backward_context(self):
        backbone, specific = _sublayer_setup(("q", "v"), True)
        state = bb.TokenState(ad.Tensor(np.ones((2, 5, 12))), 0)
        out = bb.block_forward(backbone, state, 1, _attachments(specific.copy())).tokens
        assert out.parents == () and out.bwd is None and not out.requires_grad


READOUT_BATCHES = (2, 3, 4, 16, 19, 32, 100)


class TestReadoutOnlyBlock:
    """The one-block setup's block 1 is block N, so it runs readout-only; the
    same weights one block deeper give the full block to compare with."""

    @pytest.mark.parametrize("batch", READOUT_BATCHES)
    @pytest.mark.parametrize("attach", [("q", "v"), ("q", "k", "v")])
    def test_cls_row_bitwise_equals_full_block(self, batch, attach):
        backbone, specific = _sublayer_setup(attach, True)
        state = bb.TokenState(ad.Tensor(nm.make_rng(4).standard_normal((batch, 5, 12))), 0)
        deltas = _attachments(specific)
        full = bb.block_forward(_one_block_deeper(backbone), state, 1, deltas).tokens.value
        cls = bb.block_forward(backbone, state, 1, deltas).tokens.value
        assert cls.shape == (batch, 1, 12)
        assert np.array_equal(cls[:, 0], full[:, 0])

    @pytest.mark.parametrize("shape", [(1, 5, 12), (1, 2, 12)])
    def test_one_image_keeps_every_token(self, shape):
        backbone, specific = _sublayer_setup(("q", "v"), True)
        state = bb.TokenState(ad.Tensor(nm.make_rng(5).standard_normal(shape)), 0)
        deltas = _attachments(specific)
        full = bb.block_forward(_one_block_deeper(backbone), state, 1, deltas).tokens.value
        cls = bb.block_forward(backbone, state, 1, deltas).tokens.value
        assert cls.shape == shape
        assert np.array_equal(cls, full)

    def test_mlp_matches_finite_differences(self):
        backbone, _ = _sublayer_setup(("q", "v"), False)
        rng = nm.make_rng(6)
        x = ad.Parameter("x", rng.standard_normal((3, 5, 12)), True, "head")
        c = rng.standard_normal((3, 1, 12))

        def closure():
            return {"f": project(bb.mlp_sublayer(backbone, 1, ad.leaf(x)), c)}

        rep = ad.finite_difference_check(closure, [x], step=1e-5)["f"]
        assert list(rep) == ["x"]
        assert max(rep.values()) <= 1e-5, rep

    @pytest.mark.parametrize("batch", READOUT_BATCHES)
    def test_input_gradient_within_1e12_of_full_node(self, batch):
        # the CLS rows' values are bitwise; their input gradient comes from
        # 2-D products with a transposed operand, whose rows at the desk width
        # 64 depend on the row count, so it is within 1e-12 of the full node's
        cfg = bb.BackboneConfig(num_blocks=1, width=64, heads=4, image_side=4, patch_side=2)
        backbone = bb.init_backbone(cfg, nm.make_rng(0))
        rng = nm.make_rng(7)
        x = ad.leaf(ad.Parameter("x", rng.standard_normal((batch, 5, 64)), True, "head"))
        g_cls = rng.standard_normal((batch, 1, 64))
        g_full = np.zeros((batch, 5, 64))
        g_full[:, :1] = g_cls
        full = bb.mlp_sublayer(_one_block_deeper(backbone), 1, x)
        cls = bb.mlp_sublayer(backbone, 1, x)
        assert np.array_equal(cls.value[:, 0], full.value[:, 0])
        (want,) = full.bwd(g_full, (True,))
        (got,) = cls.bwd(g_cls, (True,))
        assert got.shape == want.shape
        assert np.array_equal(got[:, 1:], np.zeros((batch, 4, 64)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_only_block_n_runs_readout_only(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(8))
        img = nm.make_rng(9).uniform(0, 1, (2, 1, 8, 8))
        state = bb.block_forward(backbone, bb.patch_embed(img, backbone), 1)
        assert state.tokens.value.shape == (2, 5, 16)
        state = bb.block_forward(backbone, state, 2)
        assert state.tokens.value.shape == (2, 1, 16)

    def test_block_rejects_a_readout_only_state(self):
        # a readout-only state is after block N, and no block follows block N
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(8))
        img = nm.make_rng(9).uniform(0, 1, (2, 1, 8, 8))
        state = bb.patch_embed(img, backbone)
        for i in (1, 2):
            state = bb.block_forward(backbone, state, i)
        assert state.tokens.value.shape == (2, 1, 16)
        with pytest.raises(ShapeError, match="out of range"):  # a bug, not an InputError
            bb.block_forward(backbone, state, 3)

    def test_block_rejects_a_delta_for_an_unattached_projection(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(8))
        state = bb.patch_embed(nm.make_rng(9).uniform(0, 1, (2, 1, 8, 8)), backbone)
        adapter = adp.init_shared((1,), ("k",), 2, 16, nm.make_rng(10))
        with pytest.raises(ShapeError, match=r"unattached projections: \['k'\]"):
            bb.block_forward(backbone, state, 1, {"k": adapter.pairs[(1, "k")].attach()})


class TestMlpGradientProperty:
    @given(
        batch=st.integers(1, 4),
        tokens=st.integers(2, 6),
        width=st.integers(1, 24),
        last=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_input_gradient_matches_central_differences(self, batch, tokens, width, last, seed):
        # with ``last`` block 1 is block N, so a batch of two or more runs
        # readout-only
        rng = nm.make_rng(seed)
        cfg = bb.BackboneConfig(
            num_blocks=1 if last else 2, width=width, heads=1, image_side=2, patch_side=1
        )
        backbone = bb.init_backbone(cfg, rng)
        # a gain up to 2 spreads the pre-activations over GELU's curved range
        backbone.params["block1.ln2.g"][:] = rng.uniform(0.5, 2.0, width)
        for name in ("ln2.b", "b1", "b2"):
            w = backbone.params[f"block1.{name}"]
            w[:] = 0.5 * rng.standard_normal(w.shape)
        x = ad.Parameter("x", rng.standard_normal((batch, tokens, width)), True, "head")
        rows = 1 if last and batch > 1 else tokens
        c = rng.standard_normal((batch, rows, width))

        def closure():
            return {"f": project(bb.mlp_sublayer(backbone, 1, ad.leaf(x)), c)}

        rep = ad.finite_difference_check(closure, [x], step=1e-5)["f"]
        assert list(rep) == ["x"]
        assert max(rep.values()) <= 1e-5, rep


# every non-empty attach set, in PROJECTIONS order
ATTACH_SETS = [a for n in (1, 2, 3) for a in itertools.combinations(bb.PROJECTIONS, n)]


class TestAttentionGradientProperty:
    @given(
        batch=st.integers(1, 4),
        tokens=st.integers(2, 6),
        # at widths 1 and 2 a layer norm maps every token to one of at most two
        # rows, so keys can coincide; q's and k's gradients are then zero up to
        # rounding noise, which no relative error can tell from a fault
        width_heads=st.integers(3, 24).flatmap(
            lambda w: st.tuples(st.just(w), st.sampled_from([h for h in range(1, w + 1) if w % h == 0]))
        ),
        attach=st.sampled_from(ATTACH_SETS),
        block_weights=st.booleans(),
        input_grad=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradients_match_central_differences(
        self, batch, tokens, width_heads, attach, block_weights, input_grad, seed
    ):
        width, heads = width_heads
        backbone, specific = _sublayer_setup(attach, block_weights, seed, width, heads, rank=2)
        rng = nm.make_rng(seed + 1)
        x = ad.Parameter("x", rng.standard_normal((batch, tokens, width)), input_grad, "head")
        c = rng.standard_normal((batch, tokens, width))

        def loss():
            return project(bb.attention_sublayer(backbone, 1, ad.leaf(x), _attachments(specific)), c)

        checked = [p for p in [x] + specific.parameters() if p.trainable]
        assert sorted(ad.backward(loss())) == sorted(p.name for p in checked)
        # error relative to each parameter's largest entry: an entry near zero
        # carries the differences' rounding noise, about 1e-10 here
        rep = ad.finite_difference_check(lambda: {"f": loss()}, checked, step=1e-5)["f"]
        assert max(rep.values()) <= 1e-6, rep


PREMISE_BATCHES = (2, 16, 32, 100)


class TestBatchedProducts:
    """Each frozen weight multiplies all batch x token rows of a sublayer in
    one 2-D product. At the desk shape (width 64, heads 4, 5 tokens) a row of
    such a product with the weight as its right operand has the bits of the
    same row in the per-image products of the references; in the backward the
    weight enters transposed, and the rows move by a bounded amount."""

    @pytest.mark.parametrize("batch", PREMISE_BATCHES)
    @pytest.mark.parametrize("rank", [4, 2])
    def test_sublayer_forwards_bitwise_equal_per_image_products(self, batch, rank):
        backbone, specific = _sublayer_setup(("q", "k", "v"), True, width=64, heads=4, rank=rank)
        x = nm.make_rng(10).standard_normal((batch, 5, 64))
        attn = bb.attention_sublayer(backbone, 1, ad.Tensor(x), _attachments(specific)).value
        assert np.array_equal(attn, _reference_attention(backbone, 1, x, _plain_deltas(specific)))
        mlp = bb.mlp_sublayer(_one_block_deeper(backbone), 1, ad.Tensor(attn)).value
        assert np.array_equal(mlp, _reference_mlp(backbone, 1, attn))

    @pytest.mark.parametrize("batch", PREMISE_BATCHES)
    def test_patch_embed_bitwise_equals_per_image_products(self, batch):
        backbone = bb.init_backbone(bb.BackboneConfig(), nm.make_rng(0))
        images = nm.make_rng(11).uniform(0, 1, (batch, 1, 16, 16))
        patches = bb._extract_patches(images, backbone.cfg)  # (batch, 4, 64)
        cls = np.broadcast_to(backbone.params["cls"], (batch, 1, 64))
        embedded = patches @ backbone.params["embed.W"]
        want = np.concatenate([cls, embedded], axis=1) + backbone.positions
        assert np.array_equal(bb.patch_embed(images, backbone).tokens.value, want)

    @staticmethod
    def _assert_within_1e12(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def _batched_and_per_image(self, sublayer, x, g):
        """``sublayer``'s backward on the batch, and the per-image backwards
        stacked (input gradient) or summed (adapter tensors). A readout-only
        node reads the first token rows of ``g`` alone."""

        def grads(xs, gs):
            node = sublayer(ad.leaf(ad.Parameter("x", xs, True, "head")))
            needs = tuple(p.requires_grad for p in node.parents)
            return node.bwd(gs[:, : node.value.shape[1]], needs)

        batched = grads(x, g)
        per_image = [grads(x[b : b + 1], g[b : b + 1]) for b in range(x.shape[0])]
        want = [np.concatenate([p[0] for p in per_image])]
        want += [sum(p[j] for p in per_image) for j in range(1, len(batched))]
        return batched, want

    @pytest.mark.parametrize("attach", [("q", "v"), ("q", "k", "v")])
    def test_attention_backward_within_1e12_of_per_image(self, attach):
        backbone, specific = _sublayer_setup(attach, True, width=64, heads=4, rank=4)
        deltas = _attachments(specific)
        x, g = nm.make_rng(12).standard_normal((2, 16, 5, 64))
        batched, want = self._batched_and_per_image(
            lambda t: bb.attention_sublayer(backbone, 1, t, deltas), x, g
        )
        assert len(batched) == 1 + len(specific.parameters())
        for got, w in zip(batched, want):
            self._assert_within_1e12(got, w)

    @pytest.mark.parametrize("last", [False, True])
    def test_mlp_backward_within_1e12_of_per_image(self, last):
        # with ``last`` the batch runs readout-only, an image alone keeps
        # every token, and the gradient reaches the CLS rows alone
        backbone, _ = _sublayer_setup(("q", "v"), False, width=64, heads=4)
        if not last:
            backbone = _one_block_deeper(backbone)
        x, g = nm.make_rng(13).standard_normal((2, 16, 5, 64))
        if last:
            g[:, 1:] = 0.0
        (got,), (want,) = self._batched_and_per_image(
            lambda t: bb.mlp_sublayer(backbone, 1, t), x, g
        )
        self._assert_within_1e12(got, want)


class TestBatchChunks:
    def test_desk_shape_chunk_holds_32_images(self):
        cfg = bb.BackboneConfig()
        assert bb.batch_chunks(cfg, 32) == [slice(0, 32)]
        quarters = [slice(a, a + 25) for a in (0, 25, 50, 75)]
        assert bb.batch_chunks(cfg, 100) == quarters

    # at most 2, 3, 32 and 128 images a chunk
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(mlp_ratio=48.0),
            dict(mlp_ratio=40.0),
            {},
            dict(width=16, heads=2, image_side=8, patch_side=4),
        ],
    )
    def test_even_in_order_and_two_images_or_more(self, overrides):
        cfg = bb.BackboneConfig(**overrides)
        size = max(2, bb.CHUNK_BUDGET // (cfg.num_tokens * cfg.mlp_hidden))
        for n in range(300):
            chunks = bb.batch_chunks(cfg, n)
            assert [c.start for c in chunks] == [0] + [c.stop for c in chunks[:-1]]
            assert chunks[-1].stop == n
            sizes = [c.stop - c.start for c in chunks]
            assert max(sizes) - min(sizes) <= 1
            if n >= 2:
                assert min(sizes) >= 2
            # the fewest chunks of at most ``size`` images, but with chunks of
            # two an odd batch puts three images in one
            fewest = max(1, -(-n // size))
            assert len(chunks) == (fewest - 1 if size == 2 and n > 1 and n % 2 else fewest)
