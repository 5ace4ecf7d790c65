import dataclasses

import numpy as np
import pytest

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

    def test_token_arithmetic(self):
        cfg = small_cfg(image_side=16, patch_side=8)
        assert cfg.num_patches == 4
        assert cfg.num_tokens == 5


class TestInit:
    def test_same_seed_bit_identical(self):
        a = bb.init_backbone(small_cfg(), nm.make_rng(4))
        b = bb.init_backbone(small_cfg(), nm.make_rng(4))
        assert a.byte_hash() == b.byte_hash()

    def test_all_params_frozen(self):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        assert all(not p.trainable for p in backbone.params.values())
        assert all(p.tag == "backbone" for p in backbone.params.values())

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
        expected[0] += backbone.param("cls").value
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
        embedded = patches @ backbone.param("embed.W").value
        expected = np.vstack([backbone.param("cls").value, embedded])
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
        zeros = {p: shared.pair(1, p).attach() for p in ("q", "v")}
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
            image_side=2, patch_side=2, channels=1,
        )
        backbone = bb.init_backbone(cfg, nm.make_rng(5))
        # strip to a single CLS-like token by feeding the 1-patch image
        img = nm.make_rng(6).uniform(0, 1, (1, 1, 2, 2))
        state = bb.patch_embed(img, backbone)
        assert state.tokens.shape == (1, 2, 4)  # 1 patch + CLS; keep the CLS row alone

        x = state.tokens.value[:, :1]  # single row
        p = {k: backbone.param(f"block1.{k}").value for k in
             ("ln1.g", "ln1.b", "Wv", "bv", "Wo", "bo", "ln2.g", "ln2.b", "W1", "b1", "W2", "b2")}

        def ln(v, g, b, eps=1e-6):
            mu = v.mean(axis=-1, keepdims=True)
            var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
            return (v - mu) / np.sqrt(var + eps) * g + b

        h = ln(x, p["ln1.g"], p["ln1.b"])
        attn = (h @ p["Wv"] + p["bv"]) @ p["Wo"] + p["bo"]  # softmax over one key = 1
        y = x + attn
        h2 = ln(y, p["ln2.g"], p["ln2.b"])
        from scipy.special import erf
        m = h2 @ p["W1"] + p["b1"]
        m = m * 0.5 * (1 + erf(m / np.sqrt(2)))
        expected = y + m @ p["W2"] + p["b2"]

        out = bb.block_forward(backbone, bb.TokenState(ad.constant(x), 0), 1).tokens
        assert np.allclose(out.value, expected, atol=1e-12)

    @pytest.mark.parametrize("readout", [False, True])
    def test_unbatched_state_rejected(self, readout):
        backbone = bb.init_backbone(small_cfg(), nm.make_rng(0))
        i = backbone.cfg.num_blocks if readout else 1
        state = bb.TokenState(ad.constant(np.ones((5, 16))), i - 1)
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
            backbone.params[f"block{i}.Wq"].value[:] = 0.0
            backbone.params[f"block{i}.bq"].value[:] = 0.0
            backbone.params[f"block{i}.Wk"].value[:] = 0.0
            backbone.params[f"block{i}.bk"].value[:] = 0.0
        img = nm.make_rng(10).uniform(0, 1, (1, 1, 8, 8))
        base = bb.patch_embed(img, backbone).tokens.value
        perm = base.copy()
        perm[:, 1:] = perm[:, 1:][:, ::-1]

        def run(tokens):
            state = bb.TokenState(tokens=ad.constant(tokens), block_index=0)
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


def _reference_attention(backbone, i, x, deltas):
    """Plain-numpy attention sublayer; ``deltas`` maps a projection to
    (down, up, scale or None)."""
    w = lambda name: backbone.param(f"block{i}.{name}").value
    d, nh = backbone.cfg.width, backbone.cfg.heads
    dh = d // nh
    h = _reference_ln(x, w("ln1.g"), w("ln1.b"))
    heads = []
    for p in ("q", "k", "v"):
        out = h @ w(f"W{p}") + w(f"b{p}")
        if p in deltas:
            down, up, s = deltas[p]
            delta = (h @ down.T) @ up.T
            out = out + (delta if s is None else s * delta)
        heads.append(np.moveaxis(out.reshape(out.shape[:-1] + (nh, dh)), -2, -3))
    q, k, v = heads
    scores = (q @ np.swapaxes(k, -1, -2)) * float(1.0 / np.sqrt(dh))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    mixed = np.moveaxis((e / e.sum(axis=-1, keepdims=True)) @ v, -3, -2)
    mixed = mixed.reshape(mixed.shape[:-2] + (d,))
    return x + (mixed @ w("Wo") + w("bo"))


def _reference_mlp(backbone, i, x):
    from scipy.special import erf

    w = lambda name: backbone.param(f"block{i}.{name}").value
    m = _reference_ln(x, w("ln2.g"), w("ln2.b")) @ w("W1") + w("b1")
    return x + ((m * (0.5 * (1.0 + erf(m / np.sqrt(2.0))))) @ w("W2") + w("b2"))


def _sublayer_setup(attach, block_weights, seed=0):
    """One block with non-trivial norms and biases and a non-zero task adapter.
    Head width 6 makes the attention scale 1/sqrt(6) inexact."""
    rng = nm.make_rng(seed)
    cfg = bb.BackboneConfig(
        num_blocks=1, width=12, heads=2, image_side=4, patch_side=2, attach_set=attach
    )
    backbone = bb.init_backbone(cfg, rng)
    for name, p in backbone.params.items():
        if name.startswith("block1.") and p.value.ndim == 1:
            p.value[:] = rng.uniform(0.5, 1.5, p.value.shape) if ".g" in name else (
                0.1 * rng.standard_normal(p.value.shape)
            )
    specific, weights = adp.init_specific(
        1, (1,), cfg.attach_set, 2, 12, rng, block_weights=block_weights
    )
    for pair in specific.pairs.values():
        pair.up.value[:] = 0.5 * rng.standard_normal(pair.up.value.shape)
    return backbone, specific, weights


def _one_block_deeper(backbone):
    """``backbone``'s weights under a config with one more block: its block N
    is no longer the last one there, so it keeps every token."""
    cfg = dataclasses.replace(backbone.cfg, num_blocks=backbone.cfg.num_blocks + 1)
    return bb.Backbone(cfg=cfg, params=backbone.params, positions=backbone.positions)


def _attachments(specific, weights):
    mu = weights.mu_tensor() if weights is not None else None
    return {p: specific.pair(1, p).attach(mu, 0) for p in specific.attach_set}


TOKEN_SHAPES = {"batched": (3, 5, 12), "single": (5, 12)}


class TestFusedSublayers:
    @pytest.mark.parametrize("tokens", sorted(TOKEN_SHAPES))
    @pytest.mark.parametrize("attach", [("q", "v"), ("q", "k", "v")])
    @pytest.mark.parametrize("block_weights", [True, False])
    def test_attention_matches_finite_differences(self, tokens, attach, block_weights):
        backbone, specific, weights = _sublayer_setup(attach, block_weights)
        rng = nm.make_rng(1)
        x = ad.Parameter("x", rng.standard_normal(TOKEN_SHAPES[tokens]), True, "head")
        c = rng.standard_normal(TOKEN_SHAPES[tokens])
        params = [x] + specific.parameters() + ([weights.rho] if block_weights else [])

        def closure():
            out = bb.attention_sublayer(
                backbone, 1, ad.leaf(x), _attachments(specific, weights)
            )
            return {"f": project(out, c)}

        rep = ad.finite_difference_check(closure, params, step=1e-5)["f"]
        assert rep.num_checked == sum(p.size for p in params)
        assert rep.max_rel_error <= 1e-5, rep.per_param

    @pytest.mark.parametrize("tokens", sorted(TOKEN_SHAPES))
    def test_mlp_matches_finite_differences(self, tokens):
        backbone, _, _ = _sublayer_setup(("q", "v"), False)
        rng = nm.make_rng(2)
        x = ad.Parameter("x", rng.standard_normal(TOKEN_SHAPES[tokens]), True, "head")
        c = rng.standard_normal(TOKEN_SHAPES[tokens])

        inner = _one_block_deeper(backbone)

        def closure():
            return {"f": project(bb.mlp_sublayer(inner, 1, ad.leaf(x)), c)}

        rep = ad.finite_difference_check(closure, [x], step=1e-5)["f"]
        assert rep.max_rel_error <= 1e-5, rep.per_param

    @pytest.mark.parametrize("tokens", sorted(TOKEN_SHAPES))
    @pytest.mark.parametrize("attach", [("q", "v"), ("q", "k", "v")])
    @pytest.mark.parametrize("block_weights", [True, False])
    def test_forward_bitwise_equals_plain_numpy(self, tokens, attach, block_weights):
        backbone, specific, weights = _sublayer_setup(attach, block_weights)
        x = nm.make_rng(3).standard_normal(TOKEN_SHAPES[tokens])
        scale = weights.mu_values()[0] if block_weights else None
        plain = {
            p: (pair.down.value, pair.up.value, scale)
            for (_, p), pair in specific.pairs.items()
        }
        attn = bb.attention_sublayer(
            backbone, 1, ad.constant(x), _attachments(specific, weights)
        ).value
        assert np.array_equal(attn, _reference_attention(backbone, 1, x, plain))
        mlp = bb.mlp_sublayer(_one_block_deeper(backbone), 1, ad.constant(attn)).value
        assert np.array_equal(mlp, _reference_mlp(backbone, 1, attn))

    def test_one_node_per_sublayer_with_adapter_parents_only(self):
        backbone, specific, weights = _sublayer_setup(("q", "v"), True)
        specific.pairs[(1, "v")].down.trainable = False  # a frozen tensor is no parent
        x = ad.leaf(ad.Parameter("x", np.ones((1, 5, 12)), True, "head"))
        deltas = _attachments(specific, weights)
        state = bb.block_forward(backbone, bb.TokenState(x, 0), 1, deltas)
        mlp = state.tokens
        (attn,) = mlp.parents
        expected = [x, deltas["q"].down, deltas["q"].up, deltas["q"].mu, deltas["v"].up]
        assert len(attn.parents) == len(expected)
        assert all(a is b for a, b in zip(attn.parents, expected))

    def test_frozen_pass_keeps_no_backward_context(self):
        backbone, specific, weights = _sublayer_setup(("q", "v"), True)
        specific.freeze()
        weights.freeze()
        state = bb.TokenState(ad.constant(np.ones((2, 5, 12))), 0)
        out = bb.block_forward(backbone, state, 1, _attachments(specific, weights)).tokens
        assert out.parents == () and out.bwd is None and not out.requires_grad


READOUT_BATCHES = (2, 3, 4, 16, 19, 32, 100)


class TestReadoutOnlyBlock:
    """The one-block setup's block 1 is block N, so it runs readout-only; the
    same weights one block deeper give the full block to compare with."""

    @pytest.mark.parametrize("batch", READOUT_BATCHES)
    @pytest.mark.parametrize("attach", [("q", "v"), ("q", "k", "v")])
    def test_cls_row_bitwise_equals_full_block(self, batch, attach):
        backbone, specific, weights = _sublayer_setup(attach, True)
        state = bb.TokenState(ad.constant(nm.make_rng(4).standard_normal((batch, 5, 12))), 0)
        deltas = _attachments(specific, weights)
        full = bb.block_forward(_one_block_deeper(backbone), state, 1, deltas).tokens.value
        cls = bb.block_forward(backbone, state, 1, deltas).tokens.value
        assert cls.shape == (batch, 1, 12)
        assert np.array_equal(cls[:, 0], full[:, 0])

    @pytest.mark.parametrize("shape", [(1, 5, 12), (1, 2, 12)])
    def test_one_image_keeps_every_token(self, shape):
        backbone, specific, weights = _sublayer_setup(("q", "v"), True)
        state = bb.TokenState(ad.constant(nm.make_rng(5).standard_normal(shape)), 0)
        deltas = _attachments(specific, weights)
        full = bb.block_forward(_one_block_deeper(backbone), state, 1, deltas).tokens.value
        cls = bb.block_forward(backbone, state, 1, deltas).tokens.value
        assert cls.shape == shape
        assert np.array_equal(cls, full)

    def test_mlp_matches_finite_differences(self):
        backbone, _, _ = _sublayer_setup(("q", "v"), False)
        rng = nm.make_rng(6)
        x = ad.Parameter("x", rng.standard_normal((3, 5, 12)), True, "head")
        c = rng.standard_normal((3, 1, 12))

        def closure():
            return {"f": project(bb.mlp_sublayer(backbone, 1, ad.leaf(x)), c)}

        rep = ad.finite_difference_check(closure, [x], step=1e-5)["f"]
        assert rep.num_checked == x.size
        assert rep.max_rel_error <= 1e-5, rep.per_param

    @pytest.mark.parametrize("batch", READOUT_BATCHES)
    def test_input_gradient_bitwise_equals_full_node(self, batch):
        # at the desk width 64, 2-D products with a transposed operand give
        # rows that differ from the full-token ones for most of these batches
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
        assert np.array_equal(got, want)

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
        with pytest.raises(ConfigError, match="out of range"):
            bb.block_forward(backbone, state, 3)
