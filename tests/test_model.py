import dataclasses

import numpy as np
import pytest

from dualora import backbone as bb
from dualora import classifier as clf
from dualora import model as mdl
from dualora import numerics as nm
from dualora import trainer as tr
from dualora.errors import ConfigError, ProtocolError

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
        assert model.shared.blocks == () and model.shared.parameters() == []
        assert model.specific_blocks == (1, 2)

    def test_position_out_of_range(self):
        _, backbone, _, _ = build_micro()
        with pytest.raises(ConfigError):
            mdl.build_model(backbone, 3, 2, nm.make_rng(0))

    def test_unknown_task_lookup(self):
        stream, _, model, _ = build_micro()
        with pytest.raises(ProtocolError):
            clf.compute_prototypes(model, clf.PrototypeStore(), stream.tasks[0])

    @pytest.mark.parametrize("task_id", [0, 3])
    def test_lookup_outside_trained_tasks(self, trained_micro, task_id):
        # task 0 must not wrap round to the last task's adapter
        model, stream = trained_micro["model"], trained_micro["stream"]
        assert len(model.tasks) == 2
        store = clf.PrototypeStore(list(trained_micro["store"].tasks))
        task = dataclasses.replace(stream.tasks[0], task_id=task_id)
        with pytest.raises(ProtocolError):
            clf.compute_prototypes(model, store, task)
        assert len(store.tasks) == 2

    def test_task_t_is_the_t_th_adapter(self, trained_micro):
        model = trained_micro["model"]
        names = [a.pairs[(2, "q")].down.name for a in model.tasks]
        assert names == ["task1.b2.q.down", "task2.b2.q.down"]
        assert not any(p.trainable for a in model.tasks for p in a.parameters())


class TestZeroInitTransparency:
    def test_fresh_task_adds_exactly_nothing(self, micro):
        stream, _, model, tcfg = micro
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        img = stream.tasks[1].train_images[:1]
        with_task = mdl.forward_features(model, img, session.adapter)[0].value
        without = mdl.forward_features(model, img, None)[0].value
        assert np.array_equal(with_task, without)

    def test_fresh_shared_adapter_is_transparent(self):
        _, backbone, model, _ = build_micro()
        img = nm.make_rng(5).uniform(0, 1, (1, 1, 8, 8))
        state = bb.patch_embed(img, backbone)
        bare = bb.block_forward(backbone, state, 1).tokens.value
        routed = mdl.run_blocks(model, bb.patch_embed(img, backbone), (1,)).tokens.value
        assert np.array_equal(bare, routed)


class TestForwardReadouts:
    def test_no_transition_readout_at_position_zero(self):
        stream, _, model, _ = build_micro(train_overrides={"position_l": 0})
        final, at_l = mdl.forward_features(model, stream.tasks[0].train_images[:3], None)
        assert final.shape == (3, model.width) and at_l is None

    @pytest.mark.parametrize("position_l, flip", [(1, False), (2, False), (1, True)])
    def test_transition_readout_is_the_prefix_readout(self, position_l, flip):
        overrides = {"position_l": position_l, "flip_positions": flip}
        stream, backbone, model, tcfg = build_micro(train_overrides=overrides)
        session = tr.TaskSession(model, stream.tasks[0], tcfg, nm.make_rng(1))
        rng = nm.make_rng(2)
        for p in session.params:  # non-zero up-projections, so every adapter counts
            if p.tag.endswith("-up"):
                p.value[:] = 0.5 * rng.standard_normal(p.value.shape)
        imgs = stream.tasks[0].train_images[:3]
        routing = {"task": session.adapter, "shared": session.shared}
        _, at_l = mdl.forward_features(model, imgs, **routing)
        prefix = bb.extract_cls(backbone, mdl.run_prefix(model, imgs, position_l, **routing))
        assert at_l.value.tobytes() == prefix.value.tobytes()

    def test_teacher_at_position_zero_is_a_protocol_error(self):
        stream, _, model, _ = build_micro(train_overrides={"position_l": 0})
        with pytest.raises(ProtocolError):
            mdl.transition_cls_with(model, stream.tasks[0].train_images[:2])


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
        mdl.forward_features(model, img, model.tasks[0])
        assert len(adapter_blocks) == model.num_blocks


class TestTeacherPrefix:
    """The teacher is the model's frozen shared adapter; the session trains a
    copy of it, so the teacher readout stays put while the session's own
    transition readout moves."""

    @staticmethod
    def _session(micro):
        stream, _, model, tcfg = micro
        tr.train_task(model, clf.PrototypeStore(), stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        return model, session, stream.tasks[1].train_images[:3]

    @staticmethod
    def _student(model, session, img):
        return mdl.forward_features(model, img, session.adapter, shared=session.shared)[1].value

    def test_snapshot_values_reproduce_live_prefix_before_updates(self, micro):
        model, session, img = self._session(micro)
        teacher = mdl.transition_cls_with(model, img)
        assert np.array_equal(session.teacher_readout(img), teacher)
        assert np.array_equal(self._student(model, session, img), teacher)

    def test_snapshot_unaffected_by_live_updates(self, micro):
        model, session, img = self._session(micro)
        before = mdl.transition_cls_with(model, img)
        for _ in range(3):
            session.step(np.arange(4))
        assert np.array_equal(session.teacher_readout(img), before)
        assert np.array_equal(mdl.transition_cls_with(model, img), before)
        assert not np.array_equal(self._student(model, session, img), before)


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
