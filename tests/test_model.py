import numpy as np
import pytest

from dualora import backbone as bb
from dualora import classifier as clf
from dualora import model as mdl
from dualora import numerics as nm
from dualora import trainer as tr
from dualora.errors import ConfigError, MissingAdapterError

from conftest import build_micro


class TestRouting:
    def test_normal_layout(self):
        _, backbone, model, _ = build_micro()
        assert model.shared_blocks == (1,)
        assert model.specific_blocks == (2,)
        assert model.is_shared_block(1) and not model.is_shared_block(2)

    def test_flipped_layout(self):
        _, _, model, _ = build_micro(train_overrides={"flip_positions": True})
        assert model.shared_blocks == (2,)
        assert model.specific_blocks == (1,)

    def test_all_shared_when_position_is_depth(self):
        _, _, model, _ = build_micro(train_overrides={"position_l": 2})
        assert model.shared_blocks == (1, 2)
        assert model.specific_blocks == ()

    def test_no_shared_at_position_zero(self):
        _, _, model, _ = build_micro(train_overrides={"position_l": 0})
        assert model.shared is None
        assert model.specific_blocks == (1, 2)

    def test_position_out_of_range(self):
        _, backbone, _, _ = build_micro()
        with pytest.raises(ConfigError):
            mdl.build_model(backbone, 3, 2, nm.make_rng(0))

    def test_unknown_task_lookup(self):
        _, _, model, _ = build_micro()
        with pytest.raises(MissingAdapterError):
            model.components_for(1)


class TestZeroInitTransparency:
    def test_fresh_task_adds_exactly_nothing(self, micro):
        stream, _, model, tcfg = micro
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        img = stream.tasks[1].train_images[:1]
        with_task = mdl.forward_features(model, img, session.components).cls_final.value
        without = mdl.forward_features(model, img, None).cls_final.value
        assert np.array_equal(with_task, without)

    def test_fresh_shared_adapter_is_transparent(self):
        _, backbone, model, _ = build_micro()
        img = nm.make_rng(5).uniform(0, 1, (1, 1, 8, 8))
        state = bb.patch_embed(img, backbone)
        bare = bb.block_forward(backbone, state, 1).tokens.value
        routed = mdl.run_blocks(model, bb.patch_embed(img, backbone), (1,)).tokens.value
        assert np.array_equal(bare, routed)


class TestRunPrefix:
    @pytest.mark.parametrize("batch", [2, 3])
    def test_only_block_n_runs_readout_only(self, micro, batch):
        stream, backbone, model, _ = micro
        imgs = stream.tasks[0].train_images[:batch]
        n, d, tokens = model.num_blocks, model.width, backbone.cfg.num_tokens
        assert mdl.run_prefix(model, imgs, n).tokens.shape == (batch, 1, d)
        assert mdl.run_prefix(model, imgs, n - 1).tokens.shape == (batch, tokens, d)


class TestCounter:
    def test_counts_only_adapter_bearing_blocks(self, adapter_blocks):
        stream, _, model, tcfg = build_micro()
        img = stream.tasks[0].train_images[:1]
        mdl.forward_features(model, img, None)
        assert len(adapter_blocks) == 1  # only the shared block carries a delta

    def test_full_forward_counts_all_blocks(self, trained_micro, adapter_blocks):
        model = trained_micro["model"]
        img = trained_micro["stream"].tasks[0].train_images[:1]
        mdl.forward_features(model, img, model.components_for(1))
        assert len(adapter_blocks) == model.num_blocks


class TestTeacherPrefix:
    def test_snapshot_values_reproduce_live_prefix_before_updates(self, micro):
        stream, _, model, tcfg = micro
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        img = stream.tasks[0].train_images[:3]
        live = mdl.transition_cls_with(model, img)
        snap = mdl.transition_cls_with(model, img, shared=model.shared.frozen_copy())
        assert np.array_equal(live, snap)

    def test_snapshot_unaffected_by_live_updates(self, micro):
        stream, _, model, tcfg = micro
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        img = stream.tasks[0].train_images[:3]
        snapshot = model.shared.frozen_copy()
        before = mdl.transition_cls_with(model, img, shared=snapshot)
        for pair in model.shared.pairs.values():
            pair.up.value += 0.25
        after = mdl.transition_cls_with(model, img, shared=snapshot)
        live = mdl.transition_cls_with(model, img)
        assert np.array_equal(before, after)
        assert not np.array_equal(live, after)


class TestFlippedForward:
    def test_flip_trains_and_predicts(self, adapter_blocks):
        stream, _, model, tcfg = build_micro(train_overrides={"flip_positions": True})
        store = clf.PrototypeStore()
        for task in stream.tasks:
            tr.train_task(model, store, task, tcfg, nm.make_rng(task.task_id))
        adapter_blocks.clear()
        clf.predict(model, store, stream.tasks[0].test_images[0])
        # nothing shareable: every task re-runs all blocks
        assert len(adapter_blocks) == model.num_blocks * len(model.tasks)
