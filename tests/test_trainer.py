import hashlib
import math

import numpy as np
import pytest

from dualora import autodiff as ad
from dualora import classifier as clf
from dualora import model as mdl
from dualora import numerics as nm
from dualora import trainer as tr
from dualora.errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    ProtocolError,
    ShapeError,
)

from conftest import build_micro


def make_head(width=4, classes=2, seed=0, task_id=1):
    return tr.init_head(width, classes, task_id, nm.make_rng(seed))


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = tr.TrainConfig()
        assert cfg.lambda_kd == 5.0 and cfg.lambda_orth == 1e-4 and cfg.temperature == 2.0

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(lambda_kd=-1.0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(temperature=0.0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(optimizer="sgd-with-typo")
        with pytest.raises(ConfigError):
            tr.TrainConfig(position_l=-1)


def identity_head(classes):
    """A head whose logits are its input: ``x @ I + 0`` is exact."""
    return tr.Head(
        ad.Parameter("W", np.eye(classes), True, "head"),
        ad.Parameter("b", np.zeros(classes), True, "head"),
    )


class TestLocalCeLoss:
    def test_uniform_two_class_is_ln2(self):
        loss = tr.local_ce_loss(ad.constant([[0.3, 0.3]]), identity_head(2), [0])
        assert float(loss.value) == pytest.approx(math.log(2), abs=1e-12)

    def test_huge_margin_goes_to_zero(self):
        loss = tr.local_ce_loss(ad.constant([[60.0, 0.0]]), identity_head(2), [0])
        assert float(loss.value) <= 1e-20

    def test_mean_reduction_over_duplicates(self):
        head = identity_head(2)
        single = tr.local_ce_loss(ad.constant([[1.0, -0.5]]), head, [0])
        double = tr.local_ce_loss(ad.constant([[1.0, -0.5], [1.0, -0.5]]), head, [0, 0])
        assert float(single.value) == pytest.approx(float(double.value), abs=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            tr.local_ce_loss(ad.constant([[0.1, 0.2]]), identity_head(2), [2])

    @pytest.mark.parametrize("labels", [0, [0, 1], [0, 1, 1, 0, 1]])
    def test_label_count_must_match_batch(self, labels):
        with pytest.raises(ShapeError, match=f"{np.size(labels)} labels for a batch of 4"):
            tr.local_ce_loss(ad.constant(np.zeros((4, 2))), identity_head(2), labels)

    @pytest.mark.parametrize("labels", [[], [0, 5, 1]])
    def test_label_count_checked_before_label_range(self, labels):
        # a wrong count is a bug (ShapeError), not bad input (InvalidInputError)
        with pytest.raises(ShapeError, match="labels for a batch of 2"):
            tr.local_ce_loss(ad.constant(np.zeros((2, 2))), identity_head(2), labels)

    @pytest.mark.parametrize("label", [0, np.int64(1), np.array(0)])
    def test_scalar_label_rejected(self, label):
        with pytest.raises(ShapeError, match=r"shape \(\)"):
            tr.local_ce_loss(ad.constant(np.zeros((1, 2))), identity_head(2), label)

    def test_plain_array_readout_rejected(self):
        # the readout is a tape tensor; a bare array has no node to hang on
        with pytest.raises(AttributeError):
            tr.local_ce_loss(np.zeros((1, 2)), identity_head(2), [0])

    def test_readout_width_must_fit_the_head(self):
        with pytest.raises(ShapeError, match="does not fit head"):
            tr.local_ce_loss(ad.constant(np.zeros((2, 3))), identity_head(2), [0, 1])

    def test_model_readout_with_fewer_labels_rejected(self):
        stream, _, model, _ = build_micro()
        task = stream.tasks[0]
        cls = mdl.forward_features(model, task.train_images[:4], None).cls_final
        with pytest.raises(ShapeError, match="1 labels for a batch of 4"):
            tr.local_ce_loss(cls, make_head(width=16), task.train_labels_local[:1])


class TestKdLoss:
    def test_matched_distributions_have_zero_student_gradient(self):
        head = make_head()
        cls_param = ad.Parameter("s", nm.make_rng(1).standard_normal((3, 4)), True, "head")
        teacher = cls_param.value.copy()
        loss = tr.kd_loss(ad.leaf(cls_param), tr.kd_target(head, teacher, 2.0), head, tau=2.0)
        grads = ad.backward(loss)
        assert np.abs(grads["s"]).max() <= 1e-14

    def test_one_hot_teacher_uniform_student_is_ln2(self):
        head = make_head(width=2, classes=2)
        head.W.value[:] = np.array([[100.0, 0.0], [0.0, 100.0]])
        head.b.value[:] = 0.0
        teacher = np.array([[1.0, 0.0]])  # head logits -> one-hot target
        student = np.array([[0.0, 0.0]])  # head logits equal -> uniform
        loss = tr.kd_loss(ad.constant(student), tr.kd_target(head, teacher, 1.0), head, tau=1.0)
        assert float(loss.value) == pytest.approx(math.log(2), abs=1e-9)

    def test_gibbs_inequality(self):
        rng = nm.make_rng(2)
        head = make_head(width=6, classes=4, seed=3)
        for _ in range(25):
            student = rng.standard_normal((2, 6))
            teacher = rng.standard_normal((2, 6))
            target = tr.kd_target(head, teacher, 2.0)
            loss = float(tr.kd_loss(ad.constant(student), target, head, tau=2.0).value)
            entropy = float(np.mean(-(target * np.log(target)).sum(axis=-1)))
            assert loss >= entropy - 1e-12

    def test_shape_mismatch(self):
        head = make_head()
        target = tr.kd_target(head, np.zeros((2, 4)), 2.0)
        with pytest.raises(ShapeError):
            tr.kd_loss(ad.constant(np.zeros((1, 4))), target, head, tau=2.0)

    def test_plain_array_student_rejected(self):
        head = make_head()
        target = tr.kd_target(head, np.zeros((2, 4)), 2.0)
        with pytest.raises(AttributeError):
            tr.kd_loss(np.zeros((2, 4)), target, head, tau=2.0)

    @pytest.mark.parametrize("shape", [(1, 2), (4, 3), (4,)])
    def test_pinned_target_must_match_logits(self, shape):
        head = make_head(width=3, classes=2)
        with pytest.raises(ShapeError, match="distillation target"):
            tr.kd_loss(ad.constant(np.ones((4, 3))), np.full(shape, 0.5), head, 2.0)


class TestOrthLoss:
    def _mu(self, values):
        rho = ad.Parameter("mu", np.log(np.expm1(np.asarray(values))), True, "block-weight")
        return ad.softplus(ad.leaf(rho))

    def test_no_previous_tasks_gives_zero(self):
        assert float(tr.orth_loss(self._mu([1.0, 1.0]), []).value) == 0.0

    def test_orthogonal_vectors_give_zero(self):
        mu = self._mu([1.0, 1e-9])
        out = float(tr.orth_loss(mu, [np.array([0.0, 1.0])]).value)
        assert out == pytest.approx(0.0, abs=1e-8)

    def test_dot_product_arithmetic(self):
        mu = self._mu([1.0, 1.0])
        out = float(tr.orth_loss(mu, [np.array([1.0, 1.0])]).value)
        assert out == pytest.approx(2.0, abs=1e-9)

    def test_sums_over_previous_tasks(self):
        mu = self._mu([1.0, 2.0])
        prev = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert float(tr.orth_loss(mu, prev).value) == pytest.approx(3.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            tr.orth_loss(self._mu([1.0, 1.0]), [np.array([1.0, 1.0, 1.0])])


class TestReassignGradient:
    def test_uniform_norms_identity(self):
        g = nm.make_rng(0).standard_normal((4, 3))
        out = tr.reassign_gradient(g, np.array([2.0, 2.0, 2.0, 2.0]))
        assert np.array_equal(out, g)

    def test_row_scaling(self):
        g = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = tr.reassign_gradient(g, np.array([3.0, 1.0]))
        assert np.array_equal(out, np.array([[1.5, 1.5], [1.0, 1.0]]))

    def test_zero_norms_noop(self):
        g = nm.make_rng(1).standard_normal((3, 2))
        assert np.array_equal(tr.reassign_gradient(g, np.zeros(3)), g)

    def test_mean_row_scaling_is_one(self):
        rng = nm.make_rng(2)
        g = rng.standard_normal((6, 4))
        norms = rng.uniform(0.1, 3.0, 6)
        out = tr.reassign_gradient(g, norms)
        ratios = np.linalg.norm(out, axis=1) / np.linalg.norm(g, axis=1)
        assert abs(ratios.mean() - 1.0) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tr.reassign_gradient(np.zeros((3, 2)), np.zeros(4))


class TestTotalStepGradient:
    def _bundle_and_params(self):
        rng = nm.make_rng(3)
        params = [
            ad.Parameter("a_s", rng.standard_normal((4, 2)), True, "shared-up"),
            ad.Parameter("a_t", rng.standard_normal((4, 2)), True, "specific-up"),
            ad.Parameter("mu", rng.standard_normal(2), True, "block-weight"),
            ad.Parameter("hw", rng.standard_normal((4, 2)), True, "head"),
        ]
        bundle = ad.GradientBundle(params={p.name: p for p in params})
        bundle.terms["ce"] = {p.name: rng.standard_normal(p.value.shape) for p in params}
        bundle.terms["kd"] = {
            "a_s": rng.standard_normal((4, 2)),
            "hw": rng.standard_normal((4, 2)),
        }
        bundle.terms["orth"] = {"mu": rng.standard_normal(2)}
        return bundle, params

    def test_zero_weights_give_pure_ce(self):
        bundle, params = self._bundle_and_params()
        cfg = tr.TrainConfig(lambda_kd=0.0, lambda_orth=0.0, gr=False)
        out = tr.total_step_gradient(bundle, params, cfg, None)
        for p in params:
            assert np.array_equal(out[p.name], bundle.terms["ce"][p.name])

    def test_gr_with_uniform_norms_matches_gr_off(self):
        bundle, params = self._bundle_and_params()
        snapshot = tr.TeacherSnapshot(
            shared=None,
            row_norms={"a_s": np.full(4, 1.7)},
            prefix_task=None,
        )
        on = tr.total_step_gradient(bundle, params, tr.TrainConfig(gr=True), snapshot)
        off = tr.total_step_gradient(bundle, params, tr.TrainConfig(gr=False), snapshot)
        for p in params:
            assert np.array_equal(on[p.name], off[p.name])

    def test_specific_update_independent_of_lambda_kd(self):
        bundle, params = self._bundle_and_params()
        snapshot = tr.TeacherSnapshot(None, {"a_s": np.ones(4)}, None)
        a = tr.total_step_gradient(bundle, params, tr.TrainConfig(lambda_kd=1.0), snapshot)
        b = tr.total_step_gradient(bundle, params, tr.TrainConfig(lambda_kd=9.0), snapshot)
        assert np.array_equal(a["a_t"], b["a_t"])
        assert np.array_equal(a["mu"], b["mu"])
        assert not np.array_equal(a["a_s"], b["a_s"])

    def test_missing_snapshot_with_kd_gradient_is_protocol_error(self):
        bundle, params = self._bundle_and_params()
        with pytest.raises(ProtocolError):
            tr.total_step_gradient(bundle, params, tr.TrainConfig(gr=True), None)

    def test_head_takes_unreassigned_kd(self):
        bundle, params = self._bundle_and_params()
        snapshot = tr.TeacherSnapshot(None, {"a_s": np.array([9.0, 1.0, 1.0, 1.0])}, None)
        cfg = tr.TrainConfig(gr=True, lambda_kd=5.0)
        out = tr.total_step_gradient(bundle, params, cfg, snapshot)
        expected_head = bundle.terms["ce"]["hw"] + 5.0 * bundle.terms["kd"]["hw"]
        assert np.array_equal(out["hw"], expected_head)


class TestTrainTask:
    def test_out_of_order_task_rejected(self, micro):
        stream, _, model, tcfg = micro
        store = clf.PrototypeStore()
        with pytest.raises(ProtocolError):
            tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(0))

    def test_empty_task_data_rejected(self, micro):
        stream, _, model, tcfg = micro
        task = stream.tasks[0]
        task.train_images = task.train_images[:0]
        task.train_labels = task.train_labels[:0]
        with pytest.raises(DataError):
            tr.train_task(model, clf.PrototypeStore(), task, tcfg, nm.make_rng(0))

    def test_first_task_has_zero_kd_and_orth(self, micro):
        stream, _, model, tcfg = micro
        store = clf.PrototypeStore()
        result = tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        for rec in result.step_records:
            assert rec["loss_kd"] == 0.0
            assert rec["loss_orth"] == 0.0

    def test_zero_learning_rate_leaves_parameters_bit_identical(self):
        stream, _, model, tcfg = build_micro(train_overrides={"learning_rate": 0.0})
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        before_shared = model.shared.content_hash()
        before_t1 = model.tasks[0].specific.content_hash()
        tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(1))
        assert model.shared.content_hash() == before_shared
        assert model.tasks[0].specific.content_hash() == before_t1
        assert model.tasks[1].specific.content_hash() is not None

    def test_loss_composition_every_step(self, trained_micro):
        cfg = trained_micro["cfg"]
        for log in trained_micro["logs"]:
            for rec in log.step_records:
                recombined = (
                    rec["loss_ce"]
                    + cfg.lambda_kd * rec["loss_kd"]
                    + cfg.lambda_orth * rec["loss_orth"]
                )
                assert abs(rec["loss_total"] - recombined) <= 1e-12

    def test_second_task_exercises_kd_and_orth(self, trained_micro):
        second = trained_micro["logs"][1]
        assert any(rec["loss_kd"] != 0.0 for rec in second.step_records)
        assert any(rec["loss_orth"] != 0.0 for rec in second.step_records)

    def test_epoch_log_schema(self, trained_micro):
        for log in trained_micro["logs"]:
            for entry in log.epoch_log:
                assert set(entry) == {
                    "task", "epoch", "loss_ce", "loss_kd", "loss_orth", "loss_total",
                }

    def test_frozen_components_and_backbone_unchanged_by_later_tasks(self):
        stream, backbone, model, tcfg = build_micro(num_classes=6, num_tasks=3)
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        hashes = {
            "backbone": backbone.byte_hash(),
            "b_s": _shared_down_hash(model),
            "task1": model.tasks[0].specific.content_hash(),
            "task1_bw": model.tasks[0].block_weights.content_hash(),
        }
        tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(1))
        assert backbone.byte_hash() == hashes["backbone"]
        assert _shared_down_hash(model) == hashes["b_s"]
        assert model.tasks[0].specific.content_hash() == hashes["task1"]
        assert model.tasks[0].block_weights.content_hash() == hashes["task1_bw"]
        hashes["task2"] = model.tasks[1].specific.content_hash()
        tr.train_task(model, store, stream.tasks[2], tcfg, nm.make_rng(2))
        assert backbone.byte_hash() == hashes["backbone"]
        assert _shared_down_hash(model) == hashes["b_s"]
        assert model.tasks[0].specific.content_hash() == hashes["task1"]
        assert model.tasks[1].specific.content_hash() == hashes["task2"]

    def test_teacher_constant_within_task(self):
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        rows = np.arange(2)
        probe = stream.tasks[1].train_images[rows]
        before = session.teacher_readout(probe)
        optimizer = tr.make_optimizer(tcfg)
        for _ in range(4):
            session.step(rows, optimizer)
        after = session.teacher_readout(probe)
        assert np.array_equal(before, after)

    def test_teacher_constant_within_task_when_down_projections_train(self):
        # the teacher is the previous task's whole shared adapter, so updates to
        # trainable down-projections must not reach it either
        stream, _, model, tcfg = build_micro(train_overrides={"fix_b": False})
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        rows = np.arange(2)
        probe = stream.tasks[1].train_images[rows]
        before = session.teacher_readout(probe)
        optimizer = tr.make_optimizer(tcfg)
        for _ in range(4):
            session.step(rows, optimizer)
        assert np.array_equal(before, session.teacher_readout(probe))
        assert not np.array_equal(
            session.snapshot.shared.pair(1, "q").down.value, model.shared.pair(1, "q").down.value
        )

    def test_teacher_readout_runs_once_per_task(self, monkeypatch):
        stream, _, model, tcfg = build_micro(num_classes=6, num_tasks=3)
        calls = []
        readout = tr.TaskSession.teacher_readout

        def counted(session, images):
            calls.append((session.t, images))
            return readout(session, images)

        monkeypatch.setattr(tr.TaskSession, "teacher_readout", counted)
        store = clf.PrototypeStore()
        for task in stream.tasks:
            tr.train_task(model, store, task, tcfg, nm.make_rng(task.task_id))
        assert [t for t, _ in calls] == [2, 3]  # the first task has no teacher
        for (t, images), task in zip(calls, stream.tasks[1:]):
            assert images is task.train_images

    def test_cached_teacher_rows_equal_a_fresh_batch_readout(self):
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        task = stream.tasks[1]
        session = tr.TaskSession(model, task, tcfg, nm.make_rng(1))
        rows = np.array([5, 0, 3, 2])
        fresh = session.teacher_readout(task.train_images[rows])
        assert np.array_equal(session.teacher_cls[rows], fresh)

    def test_kd_reads_the_teacher_at_the_batch_rows(self):
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        task = stream.tasks[1]
        session = tr.TaskSession(model, task, tcfg, nm.make_rng(1))
        rows = [5, 0, 3, 2]
        images = task.train_images[rows]
        student = mdl.forward_features(
            model, images, session.components, collect_transition_cls=True
        ).cls_at_l
        target = tr.kd_target(session.head, session.teacher_readout(images), tcfg.temperature)
        fresh = tr.kd_loss(student, target, session.head, tcfg.temperature)
        assert session.losses(rows)["kd"].value.tobytes() == fresh.value.tobytes()

    def test_shared_updates_respect_mean_preserving_rescale(self):
        # the applied row scalings must be exactly sigma(prev norms)
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        losses = session.losses(np.arange(4))
        bundle = ad.backward_per_term(losses, session.params)
        grads = tr.total_step_gradient(bundle, session.params, tcfg, session.snapshot)
        for pair in model.shared.pairs.values():
            name = pair.up.name
            kd = bundle.grad("kd", name)
            sigma = nm.dimension_preserving_normalize(session.snapshot.row_norms[name])
            expected = bundle.grad("ce", name) + tcfg.lambda_kd * (kd * sigma[:, None])
            assert np.allclose(grads[name], expected, atol=0)
            assert abs(sigma.mean() - 1.0) <= 1e-9

    def test_structural_isolation_of_bundles(self):
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        bundle = ad.backward_per_term(session.losses(np.arange(4)), session.params)
        for p in session.params:
            if p.tag in ("specific-up", "specific-down", "block-weight"):
                assert np.array_equal(bundle.grad("kd", p.name), np.zeros_like(p.value))
            if p.tag != "block-weight":
                assert np.array_equal(bundle.grad("orth", p.name), np.zeros_like(p.value))

    def test_optimizer_never_touches_frozen_parameters(self):
        stream, backbone, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        trainable_names = {p.name for p in session.params if p.trainable}
        assert not any(name.startswith("task1.") for name in trainable_names)
        assert not any(".down" in name and name.startswith("shared") for name in trainable_names)
        bundle = ad.backward_per_term(session.losses(np.arange(2)), session.params)
        for term_grads in bundle.terms.values():
            for name in term_grads:
                assert name in trainable_names


def _shared_down_hash(model) -> str:
    h = hashlib.sha256()
    for key in sorted(model.shared.pairs):
        h.update(model.shared.pairs[key].down.value.tobytes())
    return h.hexdigest()


class TestDegenerateModes:
    def test_all_toggles_off_at_position_zero_is_pure_task_specific(self):
        # no shared adapter, no distillation, no block weights: every step is
        # plain per-task low-rank training
        stream, _, model, tcfg = build_micro(
            train_overrides={"position_l": 0, "kd": False, "gr": False, "bw": False}
        )
        assert model.shared is None
        store = clf.PrototypeStore()
        for task in stream.tasks:
            result = tr.train_task(model, store, task, tcfg, nm.make_rng(task.task_id))
            for rec in result.step_records:
                assert rec["loss_kd"] == 0.0 and rec["loss_orth"] == 0.0
        assert all(c.block_weights is None for c in model.tasks)
        assert all(c.specific is not None for c in model.tasks)

    def test_two_separable_classes_reach_full_train_accuracy(self):
        # oracle: nearest-class-mean on raw frozen-backbone features already
        # separates the construction, so the trained system must as well
        from dualora import backbone as bb

        stream, backbone, model, tcfg = build_micro(
            num_classes=2,
            num_tasks=1,
            train_per_class=10,
            backbone_overrides=dict(
                num_blocks=4, width=64, heads=4, image_side=16, patch_side=8
            ),
            train_overrides={"position_l": 2, "rank": 4, "epochs": 20},
        )
        task = stream.tasks[0]

        def raw_feature(img):
            state = bb.patch_embed(img[None], backbone)
            for i in range(1, 5):
                state = bb.block_forward(backbone, state, i)
            return bb.extract_cls(backbone, state).value[0]

        feats = np.stack([raw_feature(img) for img in task.train_images])
        means = np.stack([feats[task.train_labels == c].mean(axis=0) for c in (0, 1)])
        ncm = ((feats[:, None, :] - means[None]) ** 2).sum(axis=2).argmin(axis=1)
        assert np.array_equal(ncm, task.train_labels)  # oracle holds

        store = clf.PrototypeStore()
        tr.train_task(model, store, task, tcfg, nm.make_rng(0))
        acc = clf.evaluate(model, store, task.train_images, task.train_labels)
        assert acc == 1.0


class TestOptimizers:
    def test_plain_gradient_descent_step(self):
        p = ad.Parameter("w", np.array([1.0, 2.0]), True, "head")
        opt = tr.PlainGradientDescent(0.5)
        opt.step({"w": p}, {"w": np.array([2.0, -2.0])})
        assert np.array_equal(p.value, [0.0, 3.0])

    def test_adaptive_moments_first_step_magnitude(self):
        p = ad.Parameter("w", np.zeros(2), True, "head")
        opt = tr.AdaptiveMoments(0.1)
        opt.step({"w": p}, {"w": np.array([3.0, -0.5])})
        # bias-corrected first step moves by ~lr in the gradient sign direction
        assert np.allclose(np.abs(p.value), 0.1, atol=1e-6)
        assert np.sign(p.value[0]) == -1 and np.sign(p.value[1]) == 1


class TestTapeSize:
    def test_desk_step_node_count_per_task(self, monkeypatch):
        # Desk architecture, one 8-image step per task. Each block records one
        # attention and one MLP node; the attention node's parents are the
        # tokens and the adapter tensors that train. Each loss term and each
        # CLS readout is one node, so from task 2 on the distillation and
        # overlap terms add a fixed number of nodes however many tasks came
        # before.
        from dualora import harness

        sizes, backbone_on_tape = [], []
        per_term = ad.backward_per_term

        def walk(losses, params):
            seen, stack = {}, [t for t in losses.values() if t is not None]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen[id(node)] = node
                    stack.extend(node.parents)
            sizes.append(len(seen))
            backbone_on_tape.extend(
                n for n in seen.values() if n.param is not None and n.param.tag == "backbone"
            )
            return per_term(losses, params)

        monkeypatch.setattr(ad, "backward_per_term", walk)
        harness.run_experiment(
            {"train_per_class": 4, "test_per_class": 1, "epochs": 1, "batch_size": 8}, 0
        )
        assert sizes == [27, 34, 34, 34, 34]
        assert backbone_on_tape == []
