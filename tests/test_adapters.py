import numpy as np
import pytest

from dualora import adapters as adp
from dualora import autodiff as ad
from dualora import numerics as nm
from dualora.errors import InvalidInputError, InvalidRankError


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


class TestDeltas:
    def test_shared_delta_zero_at_init(self):
        shared = adp.init_shared((1,), ("q",), 2, 8, nm.make_rng(0))
        x = ad.constant(nm.make_rng(1).standard_normal((4, 8)))
        assert np.array_equal(adp.shared_delta(shared, x, 1, "q").value, np.zeros((4, 8)))

    def test_scalar_case(self):
        shared = adp.init_shared((1,), ("q",), 1, 1, nm.make_rng(0))
        shared.pairs[(1, "q")].down.value[:] = 1.0  # orthonormal 1x1
        shared.pairs[(1, "q")].up.value[:] = 2.0
        out = adp.shared_delta(shared, ad.constant([[3.0]]), 1, "q")
        assert out.value == pytest.approx(6.0)

    def test_linearity(self):
        shared = adp.init_shared((1,), ("q",), 3, 8, nm.make_rng(2))
        shared.pairs[(1, "q")].up.value[:] = nm.make_rng(3).standard_normal((8, 3))
        rng = nm.make_rng(4)
        x1, x2 = rng.standard_normal((4, 8)), rng.standard_normal((4, 8))
        d = lambda x: adp.shared_delta(shared, ad.constant(x), 1, "q").value
        assert np.allclose(d(x1 + x2), d(x1) + d(x2), atol=1e-12)

    def test_block_out_of_range(self):
        shared = adp.init_shared((1, 2), ("q",), 2, 8, nm.make_rng(0))
        with pytest.raises(InvalidInputError):
            adp.shared_delta(shared, ad.constant(np.zeros((2, 8))), 3, "q")

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


class TestParamCount:
    def test_single_pair_formula(self):
        counts = adp.count_trainable_params(12, 768, 1, 10, 11, 1)
        assert counts.specific_per_task == 1 * 10 * (768 + 768) + 0 * 15360
        # one block, one projection: exactly r*(d+k)
        assert counts.specific_per_task == 15360

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidRankError):
            adp.count_trainable_params(4, 64, 2, 0, 2, 1)

    def test_shared_only_count(self):
        counts = adp.count_trainable_params(12, 768, 2, 10, 6, 0)
        assert counts.shared == 6 * 2 * 10 * 768 == 92160

    def test_oracle_enumeration(self, micro):
        # oracle: build the real model and sum the trainable tensor sizes
        from dualora import classifier as clf
        from dualora import trainer as tr

        stream, backbone, model, tcfg = micro
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        enumerated = sum(
            p.size
            for p in model.shared.parameters() + model.tasks[0].specific.parameters()
            if p.trainable or p.tag in ("specific-up", "specific-down")
        )
        enumerated += model.tasks[0].block_weights.rho.size
        counts = adp.count_trainable_params(
            backbone.cfg.num_blocks,
            backbone.cfg.width,
            len(backbone.cfg.attach_set),
            tcfg.rank,
            tcfg.position_l,
            1,
            backbone_params=backbone.param_count(),
        )
        assert counts.total == enumerated

    def test_flip_swaps_roles(self):
        normal = adp.count_trainable_params(4, 64, 2, 4, 1, 2)
        flipped = adp.count_trainable_params(4, 64, 2, 4, 3, 2, flip_positions=True)
        assert normal.shared == flipped.shared
        assert normal.specific_per_task == flipped.specific_per_task

    def test_backbone_ratio(self):
        counts = adp.count_trainable_params(4, 64, 2, 4, 2, 5, backbone_params=204224)
        assert counts.backbone_ratio == pytest.approx(counts.total / 204224)
