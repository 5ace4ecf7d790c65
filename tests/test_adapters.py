import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualora import adapters as adp
from dualora import autodiff as ad
from dualora import backbone as bb
from dualora import model as mdl
from dualora import numerics as nm
from dualora.errors import InvalidInputError, InvalidRankError, ProtocolError


def assert_hash_sees_every_entry(adapter):
    """Changing any one entry of any down or up matrix changes the hash, and
    restoring it restores the hash."""
    base = adapter.content_hash()
    for pair in adapter.pairs.values():
        for mat in (pair.down.value, pair.up.value):
            for idx in np.ndindex(mat.shape):
                old = mat[idx]
                mat[idx] = old + 1.0
                assert adapter.content_hash() != base, idx
                mat[idx] = old
    assert adapter.content_hash() == base


class TestInitShared:
    def test_up_projections_start_at_zero(self):
        shared = adp.init_shared((1, 2), ("q", "v"), 3, 8, nm.make_rng(0))
        for pair in shared.pairs.values():
            assert np.array_equal(pair.up.value, np.zeros((8, 3)))
            assert pair.up.trainable
            assert not pair.down.trainable

    def test_down_projections_orthonormal(self):
        shared = adp.init_shared((1, 2, 3), ("q", "v"), 4, 32, nm.make_rng(1))
        for pair in shared.pairs.values():
            gram = pair.down.value @ pair.down.value.T
            assert np.abs(gram - np.eye(4)).max() <= 1e-6

    def test_independent_down_per_block_and_projection(self):
        shared = adp.init_shared((1, 2), ("q", "v"), 2, 16, nm.make_rng(2))
        mats = [pair.down.value for pair in shared.pairs.values()]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert not np.array_equal(mats[i], mats[j])

    def test_same_seed_identical(self):
        a = adp.init_shared((1,), ("q",), 2, 8, nm.make_rng(3))
        b = adp.init_shared((1,), ("q",), 2, 8, nm.make_rng(3))
        assert a.content_hash() == b.content_hash()
        c = adp.init_shared((1,), ("q",), 2, 8, nm.make_rng(4))
        assert c.content_hash() != a.content_hash()

    def test_content_hash_sees_every_entry(self):
        shared = adp.init_shared((1, 2), ("q", "v"), 2, 4, nm.make_rng(6))
        assert_hash_sees_every_entry(shared)

    def test_frozen_copy_hashes_equal_and_owns_its_arrays(self):
        shared = adp.init_shared((1, 2), ("q", "v"), 2, 4, nm.make_rng(7))
        for pair in shared.pairs.values():
            pair.up.value[:] = nm.make_rng(8).standard_normal(pair.up.value.shape)
        snap = shared.frozen_copy()
        assert snap.content_hash() == shared.content_hash()
        for p, q in zip(shared.parameters(), snap.parameters()):
            assert p.name == q.name and p.tag == q.tag and not q.trainable
            assert not np.shares_memory(p.value, q.value)
        before = snap.content_hash()
        shared.pairs[(1, "q")].up.value[0, 0] += 1.0
        assert snap.content_hash() == before != shared.content_hash()

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidRankError):
            adp.init_shared((1,), ("q",), 0, 8, nm.make_rng(0))

    def test_rank_exceeding_width_rejected(self):
        with pytest.raises(InvalidRankError):
            adp.init_shared((1,), ("q",), 9, 8, nm.make_rng(0))

    def test_trainable_down_variant(self):
        shared = adp.init_shared((1,), ("q",), 2, 8, nm.make_rng(4), fixed_down=False)
        pair = shared.pairs[(1, "q")]
        assert pair.down.trainable
        assert not np.array_equal(pair.down.value, np.zeros((2, 8)))

    def test_plain_random_down_variant(self):
        shared = adp.init_shared((1,), ("q",), 4, 64, nm.make_rng(5), down_init="random")
        gram = shared.pairs[(1, "q")].down.value @ shared.pairs[(1, "q")].down.value.T
        assert np.abs(gram - np.eye(4)).max() > 1e-3  # plainly not orthonormal


class TestInitSpecific:
    def test_zero_up_means_zero_delta(self):
        specific, weights = adp.init_specific(1, (2,), ("q", "v"), 2, 8, nm.make_rng(0))
        x = ad.constant(nm.make_rng(1).standard_normal((5, 8)))
        delta = adp.specific_delta(specific, weights, x, 2, "q")
        assert np.array_equal(delta.value, np.zeros((5, 8)))

    def test_block_weights_in_open_interval(self):
        for seed in range(20):
            _, weights = adp.init_specific(1, (2, 3, 4), ("q",), 2, 8, nm.make_rng(seed))
            mu = weights.mu_values()
            assert (mu > 0).all() and (mu < 2).all()

    def test_down_projection_scale(self):
        rank = 4
        specific, _ = adp.init_specific(1, (2,), ("q",), rank, 512, nm.make_rng(7))
        std = specific.pairs[(2, "q")].down.value.std()
        assert abs(std - 1 / np.sqrt(rank)) < 0.1

    def test_same_seed_identical(self):
        a, wa = adp.init_specific(2, (3,), ("q",), 2, 8, nm.make_rng(9))
        b, wb = adp.init_specific(2, (3,), ("q",), 2, 8, nm.make_rng(9))
        assert a.content_hash() == b.content_hash()
        assert wa.content_hash() == wb.content_hash()
        c, _ = adp.init_specific(2, (3,), ("q",), 2, 8, nm.make_rng(10))
        assert c.content_hash() != a.content_hash()

    def test_content_hash_sees_every_entry(self):
        specific, _ = adp.init_specific(1, (2, 3), ("q", "v"), 2, 4, nm.make_rng(11))
        assert_hash_sees_every_entry(specific)

    def test_without_block_weights(self):
        specific, weights = adp.init_specific(
            1, (2,), ("q",), 2, 8, nm.make_rng(0), block_weights=False
        )
        assert weights is None

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidRankError):
            adp.init_specific(1, (2,), ("q",), 0, 8, nm.make_rng(0))


class TestDeltas:
    def test_shared_delta_zero_at_init(self):
        shared = adp.init_shared((1,), ("q",), 2, 8, nm.make_rng(0))
        x = ad.constant(nm.make_rng(1).standard_normal((4, 8)))
        assert np.array_equal(shared.pair(1, "q").attach().delta(x).value, np.zeros((4, 8)))

    def test_scalar_case(self):
        shared = adp.init_shared((1,), ("q",), 1, 1, nm.make_rng(0))
        shared.pairs[(1, "q")].down.value[:] = 1.0  # orthonormal 1x1
        shared.pairs[(1, "q")].up.value[:] = 2.0
        out = shared.pair(1, "q").attach().delta(ad.constant([[3.0]]))
        assert out.value == pytest.approx(6.0)

    def test_linearity(self):
        shared = adp.init_shared((1,), ("q",), 3, 8, nm.make_rng(2))
        shared.pairs[(1, "q")].up.value[:] = nm.make_rng(3).standard_normal((8, 3))
        rng = nm.make_rng(4)
        x1, x2 = rng.standard_normal((4, 8)), rng.standard_normal((4, 8))
        d = lambda x: shared.pair(1, "q").attach().delta(ad.constant(x)).value
        assert np.allclose(d(x1 + x2), d(x1) + d(x2), atol=1e-12)

    def test_block_out_of_range(self):
        shared = adp.init_shared((1, 2), ("q",), 2, 8, nm.make_rng(0))
        with pytest.raises(InvalidInputError):
            shared.pair(3, "q").attach().delta(ad.constant(np.zeros((2, 8))))

    def test_specific_scalar_with_mu(self):
        specific, weights = adp.init_specific(1, (2,), ("q",), 1, 1, nm.make_rng(0))
        specific.pairs[(2, "q")].up.value[:] = 1.0
        specific.pairs[(2, "q")].down.value[:] = 2.0
        weights.rho.value[:] = np.log(np.expm1(3.0))  # mu == 3
        out = adp.specific_delta(specific, weights, ad.constant([[5.0]]), 2, "q")
        assert out.value == pytest.approx(30.0)

    def test_doubling_mu_doubles_delta(self):
        specific, weights = adp.init_specific(1, (2,), ("q",), 2, 8, nm.make_rng(5))
        specific.pairs[(2, "q")].up.value[:] = nm.make_rng(6).standard_normal((8, 2))
        x = ad.constant(nm.make_rng(7).standard_normal((3, 8)))
        weights.rho.value[:] = np.log(np.expm1(0.7))
        one = adp.specific_delta(specific, weights, x, 2, "q").value
        weights.rho.value[:] = np.log(np.expm1(1.4))
        two = adp.specific_delta(specific, weights, x, 2, "q").value
        assert np.allclose(two, 2 * one, atol=1e-12)

    def test_mu_positive_under_any_rho(self):
        _, weights = adp.init_specific(1, (2, 3), ("q",), 2, 8, nm.make_rng(8))
        weights.rho.value[:] = [-40.0, 40.0]
        assert (weights.mu_values() > 0).all()


def closed_form(n, l, flip, fix_b, bw, attach, r, d):
    """The paper's count for ``n`` blocks, transition ``l``, ``attach``
    projections per block, rank ``r`` and width ``d``: (shared, per-task
    adapter, per-task block weights). The shared adapter trains its
    up-projections (r*d each), and its down-projections too when ``fix_b`` is
    off; a task trains both matrices (2*r*d) and one weight per block."""
    shared_blocks = n - l if flip else l
    specific_blocks = n - shared_blocks
    shared = shared_blocks * attach * r * d * (1 if fix_b else 2)
    return shared, specific_blocks * attach * 2 * r * d, specific_blocks if bw else 0


def model_with_tasks(num_tasks, *, position_l=1, flip=False, fix_b=True, bw=True, rank=2,
                     **backbone):
    """A model with ``num_tasks`` untrained tasks appended as a training
    session appends them; the backbone defaults to 2 blocks of width 8."""
    bcfg = bb.BackboneConfig(
        **{"num_blocks": 2, "width": 8, "heads": 2, "image_side": 4, "patch_side": 2, **backbone}
    )
    model = mdl.build_model(
        bb.init_backbone(bcfg, nm.make_rng(0)), position_l, rank, nm.make_rng(1),
        flip_positions=flip, fixed_down=fix_b,
    )
    rng = nm.make_rng(2)
    for t in range(1, num_tasks + 1):
        specific, weights = None, None
        if model.specific_blocks:
            specific, weights = adp.init_specific(
                t, model.specific_blocks, bcfg.attach_set, rank, bcfg.width, rng, block_weights=bw
            )
        model.tasks.append(mdl.TaskComponents(t, specific, weights))
    return model


class TestParamCount:
    def test_single_pair_formula(self):
        # one specific block, one projection: exactly r*(d + d)
        model = model_with_tasks(1, attach_set=("q",), rank=3)
        assert mdl.param_counts(model)["specific_per_task"] == 3 * (8 + 8)

    def test_shared_only_count(self):
        model = model_with_tasks(3, position_l=2)
        counts = mdl.param_counts(model)
        assert counts["shared"] == 2 * 2 * 2 * 8
        assert counts["specific_per_task"] == counts["block_weights_per_task"] == 0
        assert counts["total"] == counts["shared"]

    def test_oracle_enumeration(self, micro):
        from dualora import classifier as clf
        from dualora import trainer as tr

        stream, backbone, model, tcfg = micro
        store = clf.PrototypeStore()
        for task in stream.tasks:
            tr.train_task(model, store, task, tcfg, nm.make_rng(task.task_id))
        shared, specific, weights = closed_form(
            backbone.cfg.num_blocks, tcfg.position_l, False, True, True,
            len(backbone.cfg.attach_set), tcfg.rank, backbone.cfg.width,
        )
        assert mdl.param_counts(model) == {
            "shared": shared,
            "specific_per_task": specific,
            "block_weights_per_task": weights,
            "total": shared + 2 * (specific + weights),
            "backbone": backbone.param_count(),
            "backbone_ratio": (shared + 2 * (specific + weights)) / backbone.param_count(),
        }

    def test_flip_swaps_roles(self):
        normal = mdl.param_counts(model_with_tasks(2, num_blocks=4, position_l=1))
        flipped = mdl.param_counts(model_with_tasks(2, num_blocks=4, position_l=3, flip=True))
        assert normal == flipped

    def test_backbone_ratio(self):
        # three channels and a 2x MLP: the patch dimension and the hidden width
        # both differ from the width, so a backbone formula with both equal to
        # d (204,224 at this shape) would be wrong
        d, h, n, patch_dim = 64, 128, 4, 3 * 8 * 8
        model = model_with_tasks(
            5, num_blocks=n, width=d, heads=4, image_side=16, patch_side=8, channels=3,
            mlp_ratio=2.0, position_l=2, rank=4,
        )
        counts = mdl.param_counts(model)
        backbone = d * patch_dim + d + n * (4 * d * d + 2 * d * h + h + 9 * d) + 2 * d
        assert counts["backbone"] == backbone
        assert counts["backbone_ratio"] == counts["total"] / backbone

    def test_no_task_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            mdl.param_counts(model_with_tasks(0))

    @given(
        st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sets(st.sampled_from("qkv"), min_size=1),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_matches_closed_form_over_layouts(self, nl, flip, fix_b, bw, attach, rank, tasks):
        n, l = nl
        model = model_with_tasks(
            tasks, num_blocks=n, position_l=l, flip=flip, fix_b=fix_b, bw=bw, rank=rank,
            attach_set=tuple(sorted(attach)),
        )
        shared, specific, weights = closed_form(n, l, flip, fix_b, bw, len(attach), rank, 8)
        counts = mdl.param_counts(model)
        assert (counts["shared"], counts["specific_per_task"]) == (shared, specific)
        assert counts["block_weights_per_task"] == weights
        assert counts["total"] == shared + tasks * (specific + weights)
