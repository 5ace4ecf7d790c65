import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dualora import autodiff as ad
from dualora import backbone as bb
from dualora import classifier as clf
from dualora import harness
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
        loss = tr.local_ce_loss(ad.Tensor([[0.3, 0.3]]), identity_head(2), [0])
        assert float(loss.value) == pytest.approx(math.log(2), abs=1e-12)

    def test_huge_margin_goes_to_zero(self):
        loss = tr.local_ce_loss(ad.Tensor([[60.0, 0.0]]), identity_head(2), [0])
        assert float(loss.value) <= 1e-20

    def test_mean_reduction_over_duplicates(self):
        head = identity_head(2)
        single = tr.local_ce_loss(ad.Tensor([[1.0, -0.5]]), head, [0])
        double = tr.local_ce_loss(ad.Tensor([[1.0, -0.5], [1.0, -0.5]]), head, [0, 0])
        assert float(single.value) == pytest.approx(float(double.value), abs=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            tr.local_ce_loss(ad.Tensor([[0.1, 0.2]]), identity_head(2), [2])

    @pytest.mark.parametrize("labels", [0, [0, 1], [0, 1, 1, 0, 1]])
    def test_label_count_must_match_batch(self, labels):
        with pytest.raises(ShapeError, match=f"{np.size(labels)} labels for a batch of 4"):
            tr.local_ce_loss(ad.Tensor(np.zeros((4, 2))), identity_head(2), labels)

    @pytest.mark.parametrize("labels", [[], [0, 5, 1]])
    def test_label_count_checked_before_label_range(self, labels):
        # a wrong count is a bug (ShapeError), not bad input (InvalidInputError)
        with pytest.raises(ShapeError, match="labels for a batch of 2"):
            tr.local_ce_loss(ad.Tensor(np.zeros((2, 2))), identity_head(2), labels)

    @pytest.mark.parametrize("label", [0, np.int64(1), np.array(0)])
    def test_scalar_label_rejected(self, label):
        with pytest.raises(ShapeError, match=r"shape \(\)"):
            tr.local_ce_loss(ad.Tensor(np.zeros((1, 2))), identity_head(2), label)

    def test_plain_array_readout_rejected(self):
        # the readout is a tape tensor; a bare array has no node to hang on
        with pytest.raises(AttributeError):
            tr.local_ce_loss(np.zeros((1, 2)), identity_head(2), [0])

    def test_readout_width_must_fit_the_head(self):
        with pytest.raises(ShapeError, match="does not fit head"):
            tr.local_ce_loss(ad.Tensor(np.zeros((2, 3))), identity_head(2), [0, 1])

    def test_model_readout_with_fewer_labels_rejected(self):
        stream, _, model, _ = build_micro()
        task = stream.tasks[0]
        cls = mdl.forward_features(model, task.train_images[:4], None)[0]
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
        loss = tr.kd_loss(ad.Tensor(student), tr.kd_target(head, teacher, 1.0), head, tau=1.0)
        assert float(loss.value) == pytest.approx(math.log(2), abs=1e-9)

    def test_gibbs_inequality(self):
        rng = nm.make_rng(2)
        head = make_head(width=6, classes=4, seed=3)
        for _ in range(25):
            student = rng.standard_normal((2, 6))
            teacher = rng.standard_normal((2, 6))
            target = tr.kd_target(head, teacher, 2.0)
            loss = float(tr.kd_loss(ad.Tensor(student), target, head, tau=2.0).value)
            entropy = float(np.mean(-(target * np.log(target)).sum(axis=-1)))
            assert loss >= entropy - 1e-12

    def test_shape_mismatch(self):
        head = make_head()
        target = tr.kd_target(head, np.zeros((2, 4)), 2.0)
        with pytest.raises(ShapeError):
            tr.kd_loss(ad.Tensor(np.zeros((1, 4))), target, head, tau=2.0)

    def test_plain_array_student_rejected(self):
        head = make_head()
        target = tr.kd_target(head, np.zeros((2, 4)), 2.0)
        with pytest.raises(AttributeError):
            tr.kd_loss(np.zeros((2, 4)), target, head, tau=2.0)

    @pytest.mark.parametrize("shape", [(1, 2), (4, 3), (4,)])
    def test_pinned_target_must_match_logits(self, shape):
        head = make_head(width=3, classes=2)
        with pytest.raises(ShapeError, match="distillation target"):
            tr.kd_loss(ad.Tensor(np.ones((4, 3))), np.full(shape, 0.5), head, 2.0)


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


class TestGrScale:
    def test_345_triangle(self):
        # row norms 5 and 0, rescaled to sum to the two rows
        assert np.array_equal(tr.gr_scale(np.array([[3.0, 4.0], [0.0, 0.0]])), [2.0, 0.0])

    def test_identity(self):
        # uniform row norms are the fixed point
        assert np.array_equal(tr.gr_scale(np.eye(6)), np.ones(6))

    def test_zero_matrix(self):
        # degenerate: the neutral scale, under which reassignment is a no-op
        assert np.array_equal(tr.gr_scale(np.zeros((3, 4))), np.ones(3))

    def test_uniform_fixed_point(self):
        # rows of equal norm in different directions are still the fixed point
        up = np.array([[3.0, 4.0], [4.0, 3.0], [0.0, 5.0], [-5.0, 0.0]])
        assert np.array_equal(tr.gr_scale(up), np.ones(4))

    def test_degenerate_tiny_norms(self):
        # a nonzero teacher whose norms sum below DEGENERATE_SUM is degenerate too
        out = tr.gr_scale(np.full((3, 2), tr.DEGENERATE_SUM / 100))
        assert np.array_equal(out, np.ones(3))

    def test_two_row_case(self):
        out = tr.gr_scale(np.array([[3.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(out, [1.5, 0.5], atol=1e-12)

    def test_mean_is_one(self):
        rng = nm.make_rng(9)
        for _ in range(50):
            up = rng.uniform(-5.0, 5.0, size=(rng.integers(2, 12), rng.integers(1, 5)))
            assert abs(tr.gr_scale(up).mean() - 1.0) <= 1e-9

    def test_scale_invariance(self):
        up = nm.make_rng(13).uniform(-3.0, 3.0, size=(8, 3))
        assert np.allclose(tr.gr_scale(up), tr.gr_scale(17.5 * up), atol=1e-12)


class TestTotalStepGradient:
    def _grads_and_params(self):
        rng = nm.make_rng(3)
        params = [
            ad.Parameter("a_s", rng.standard_normal((4, 2)), True, "shared-up"),
            ad.Parameter("a_t", rng.standard_normal((4, 2)), True, "specific-up"),
            ad.Parameter("mu", rng.standard_normal(2), True, "block-weight"),
            ad.Parameter("hw", rng.standard_normal((4, 2)), True, "head"),
        ]
        grads = {
            "ce": {p.name: rng.standard_normal(p.value.shape) for p in params},
            "kd": {"a_s": rng.standard_normal((4, 2)), "hw": rng.standard_normal((4, 2))},
            "orth": {"mu": rng.standard_normal(2)},
        }
        return grads, params

    def test_zero_weights_give_pure_ce(self):
        grads, params = self._grads_and_params()
        cfg = tr.TrainConfig(lambda_kd=0.0, lambda_orth=0.0, gr=False)
        out = tr.total_step_gradient(grads, params, cfg, None)
        for p in params:
            assert np.array_equal(out[p.name], grads["ce"][p.name])

    def test_gr_with_uniform_norms_matches_gr_off(self):
        grads, params = self._grads_and_params()
        scale = {"a_s": tr.gr_scale(np.full((4, 2), 1.7))}
        on = tr.total_step_gradient(grads, params, tr.TrainConfig(gr=True), scale)
        off = tr.total_step_gradient(grads, params, tr.TrainConfig(gr=False), scale)
        for p in params:
            assert np.array_equal(on[p.name], off[p.name])

    def test_kd_rows_scale_by_gr_scale(self):
        p = ad.Parameter("a_s", np.zeros((2, 2)), True, "shared-up")
        g = np.array([[1.0, 1.0], [2.0, 2.0]])
        scale = {"a_s": tr.gr_scale(np.array([[3.0, 0.0], [0.0, 1.0]]))}
        cfg = tr.TrainConfig(lambda_kd=1.0)
        out = tr.total_step_gradient({"kd": {"a_s": g}}, [p], cfg, scale)
        assert np.array_equal(out["a_s"], [[1.5, 1.5], [1.0, 1.0]])

    @staticmethod
    def _kd_only(g, scale):
        p = ad.Parameter("a_s", np.zeros(g.shape), True, "shared-up")
        cfg = tr.TrainConfig(gr=True, lambda_kd=1.0)
        return tr.total_step_gradient({"kd": {"a_s": g}}, [p], cfg, {"a_s": scale})["a_s"]

    def test_uniform_teacher_norms_leave_kd_unscaled(self):
        g = nm.make_rng(0).standard_normal((4, 3))
        out = self._kd_only(g, tr.gr_scale(np.full((4, 3), 2.0)))
        assert np.array_equal(out, g)

    def test_zero_teacher_leaves_kd_unscaled(self):
        g = nm.make_rng(1).standard_normal((3, 2))
        assert np.array_equal(self._kd_only(g, tr.gr_scale(np.zeros((3, 2)))), g)

    def test_mean_row_scaling_is_one(self):
        rng = nm.make_rng(2)
        p = ad.Parameter("a_s", np.zeros((6, 4)), True, "shared-up")
        g = rng.standard_normal((6, 4))
        scale = {"a_s": tr.gr_scale(rng.uniform(0.1, 3.0, (6, 4)))}
        cfg = tr.TrainConfig(lambda_kd=1.0)
        out = tr.total_step_gradient({"kd": {"a_s": g}}, [p], cfg, scale)["a_s"]
        ratios = np.linalg.norm(out, axis=1) / np.linalg.norm(g, axis=1)
        assert abs(ratios.mean() - 1.0) <= 1e-9

    def test_specific_update_independent_of_lambda_kd(self):
        grads, params = self._grads_and_params()
        scale = {"a_s": np.ones(4)}
        a = tr.total_step_gradient(grads, params, tr.TrainConfig(lambda_kd=1.0), scale)
        b = tr.total_step_gradient(grads, params, tr.TrainConfig(lambda_kd=9.0), scale)
        assert np.array_equal(a["a_t"], b["a_t"])
        assert np.array_equal(a["mu"], b["mu"])
        assert not np.array_equal(a["a_s"], b["a_s"])

    def test_missing_row_norms_with_kd_gradient_is_protocol_error(self):
        grads, params = self._grads_and_params()
        with pytest.raises(ProtocolError):
            tr.total_step_gradient(grads, params, tr.TrainConfig(gr=True), None)

    def test_head_takes_unreassigned_kd(self):
        grads, params = self._grads_and_params()
        scale = {"a_s": np.array([9.0, 1.0, 1.0, 1.0])}
        cfg = tr.TrainConfig(gr=True, lambda_kd=5.0)
        out = tr.total_step_gradient(grads, params, cfg, scale)
        expected_head = grads["ce"]["hw"] + 5.0 * grads["kd"]["hw"]
        assert np.array_equal(out["hw"], expected_head)

    def test_term_added_only_where_it_reached(self):
        # a term that did not reach a parameter adds nothing, not even a
        # zero: a negative zero from ce keeps its sign (0.0 + -0.0 is 0.0)
        grads, params = self._grads_and_params()
        grads["ce"]["a_t"] = np.full((4, 2), -0.0)
        del grads["ce"]["mu"]
        cfg = tr.TrainConfig()
        out = tr.total_step_gradient(grads, params, cfg, {"a_s": np.ones(4)})
        assert np.signbit(out["a_t"]).all()
        assert np.array_equal(out["mu"], cfg.lambda_orth * grads["orth"]["mu"])
        assert list(out) == [p.name for p in params]


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
        epoch_log = tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        # both terms are nonnegative, so a zero epoch mean is zero at every step
        for entry in epoch_log:
            assert entry["loss_kd"] == 0.0
            assert entry["loss_orth"] == 0.0

    def test_zero_learning_rate_leaves_parameters_bit_identical(self):
        stream, _, model, tcfg = build_micro(train_overrides={"learning_rate": 0.0})
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        before_shared = model.shared.content_hash()
        before_t1 = model.tasks[0].content_hash()
        tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(1))
        assert model.shared.content_hash() == before_shared
        assert model.tasks[0].content_hash() == before_t1
        assert model.tasks[1].content_hash() is not None

    def test_loss_composition_every_step(self):
        stream, _, model, cfg = build_micro()
        store = clf.PrototypeStore()
        for task in stream.tasks:
            session = tr.TaskSession(model, task, cfg, nm.make_rng(task.task_id))
            for start in range(0, task.num_train, cfg.batch_size):
                rec = session.step(np.arange(start, task.num_train)[: cfg.batch_size])
                recombined = (
                    rec["loss_ce"]
                    + cfg.lambda_kd * rec["loss_kd"]
                    + cfg.lambda_orth * rec["loss_orth"]
                )
                assert abs(rec["loss_total"] - recombined) <= 1e-12
            session.finish(store)

    def test_second_task_exercises_kd_and_orth(self, trained_micro):
        second = trained_micro["logs"][1]
        assert any(entry["loss_kd"] != 0.0 for entry in second)
        assert any(entry["loss_orth"] != 0.0 for entry in second)

    def test_task_without_block_weights_after_one_with_builds_no_orth(self, micro):
        stream, _, model, tcfg = micro  # bw is on for task 1
        tr.train_task(model, clf.PrototypeStore(), stream.tasks[0], tcfg, nm.make_rng(0))
        assert model.tasks[0].rho is not None
        # bw is not part of the model's layout, so task 2 may turn it off
        session = tr.TaskSession(model, stream.tasks[1], replace(tcfg, bw=False), nm.make_rng(1))
        rows = np.arange(tcfg.batch_size)
        assert session.losses(rows)["orth"] is None
        assert session.step(rows)["loss_orth"] == 0.0

    def test_epoch_log_schema(self, trained_micro):
        for log in trained_micro["logs"]:
            for entry in log:
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
            "task1": model.tasks[0].content_hash(),
        }
        assert model.tasks[0].rho is not None  # the hash covers the block weights
        tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(1))
        assert backbone.byte_hash() == hashes["backbone"]
        assert _shared_down_hash(model) == hashes["b_s"]
        assert model.tasks[0].content_hash() == hashes["task1"]
        hashes["task2"] = model.tasks[1].content_hash()
        tr.train_task(model, store, stream.tasks[2], tcfg, nm.make_rng(2))
        assert backbone.byte_hash() == hashes["backbone"]
        assert _shared_down_hash(model) == hashes["b_s"]
        assert model.tasks[0].content_hash() == hashes["task1"]
        assert model.tasks[1].content_hash() == hashes["task2"]

    def test_teacher_constant_within_task(self):
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        rows = np.arange(2)
        probe = stream.tasks[1].train_images[rows]
        before = session.teacher_readout(probe)
        for _ in range(4):
            session.step(rows)
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
        for _ in range(4):
            session.step(rows)
        assert np.array_equal(before, session.teacher_readout(probe))
        assert not np.array_equal(
            session.shared.pairs[(1, "q")].down.value, model.shared.pairs[(1, "q")].down.value
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
        student = mdl.forward_features(model, images, session.adapter)[1]
        target = tr.kd_target(session.head, session.teacher_readout(images), tcfg.temperature)
        fresh = tr.kd_loss(student, target, session.head, tcfg.temperature)
        assert session.losses(rows)["kd"].value.tobytes() == fresh.value.tobytes()

    def test_shared_updates_respect_mean_preserving_rescale(self):
        # the applied row scalings must be exactly sigma of the teacher
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        losses = session.losses(np.arange(4))
        per_term = ad.backward_per_term(losses, session.params)
        grads = tr.total_step_gradient(per_term, session.params, tcfg, session.gr_scale)
        for pair in model.shared.pairs.values():
            name = pair.up.name
            kd = per_term["kd"][name]
            sigma = session.gr_scale[name]
            assert np.array_equal(sigma, tr.gr_scale(pair.up.value))
            expected = per_term["ce"][name] + tcfg.lambda_kd * (kd * sigma[:, None])
            assert np.allclose(grads[name], expected, atol=0)
            assert abs(sigma.mean() - 1.0) <= 1e-9

    def test_structural_isolation_of_bundles(self):
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        grads = ad.backward_per_term(session.losses(np.arange(4)), session.params)
        tags = {p.name: p.tag for p in session.params}
        kd_tags = {tags[name] for name in grads["kd"]}
        assert kd_tags == {"shared-up", "head"}
        assert {tags[name] for name in grads["orth"]} == {"block-weight"}

    def test_flipped_kd_reaches_the_task_adapter_and_is_dropped(self):
        # Flipped, the transition readout sits after the task's own adapter,
        # so kd's gradient reaches its up-projections. Specific parameters take
        # ce + lambda_orth * orth, so kd trains only the head, which the task
        # discards.
        stream, _, model, tcfg = build_micro(train_overrides={"flip_positions": True})
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        grads = ad.backward_per_term(session.losses(np.arange(4)), session.params)
        ups = [p.name for p in session.params if p.tag == "specific-up"]
        assert ups and all(np.abs(grads["kd"][name]).max() > 1e-6 for name in ups)
        assert not any(name.startswith("shared.") for name in grads["kd"])
        total = tr.total_step_gradient(grads, session.params, tcfg, session.gr_scale)
        for p in session.params:
            if p.tag in ("specific-up", "specific-down", "block-weight"):
                expected = grads["ce"][p.name]
                if p.name in grads["orth"]:
                    expected = expected + tcfg.lambda_orth * grads["orth"][p.name]
                assert np.array_equal(total[p.name], expected), p.name
        head_w = session.head.W.name
        expected_head = grads["ce"][head_w] + tcfg.lambda_kd * grads["kd"][head_w]
        assert np.array_equal(total[head_w], expected_head)

    def test_flipped_session_makes_no_teacher_copy(self):
        # Flipped, the teacher prefix runs the previous task's adapter and kd
        # never reaches a shared parameter, so no row scales are made.
        stream, _, model, tcfg = build_micro(train_overrides={"flip_positions": True})
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        assert session.kd_active and model.shared is not None
        assert session.gr_scale is None

    def test_gr_scale_is_made_once_per_task_from_the_teacher(self, monkeypatch):
        tcfg, stream, model, task_rngs = _desk_run()
        tr.train_task(model, clf.PrototypeStore(), stream.tasks[0], tcfg, task_rngs[0])
        gr_scale, calls = tr.gr_scale, []
        monkeypatch.setattr(tr, "gr_scale", lambda up: calls.append(up) or gr_scale(up))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, task_rngs[1])
        teacher_ups = [pair.up.value for pair in model.shared.pairs.values()]
        assert len(calls) == len(teacher_ups) == 4
        assert all(up is teacher for up, teacher in zip(calls, teacher_ups))
        session.step(np.arange(tcfg.batch_size))
        assert len(calls) == 4
        for override in ({"gr": False}, {"kd": False}):
            off = tr.TaskSession(model, stream.tasks[1], replace(tcfg, **override), task_rngs[1])
            assert off.gr_scale is None
        tcfg, stream, model, task_rngs = harness.build_run(
            harness.resolve_config({"epochs": 1, "flip_positions": True}), seed=0
        )
        tr.train_task(model, clf.PrototypeStore(), stream.tasks[0], tcfg, task_rngs[0])
        assert tr.TaskSession(model, stream.tasks[1], tcfg, task_rngs[1]).gr_scale is None
        assert len(calls) == 4

    def test_optimizer_never_touches_frozen_parameters(self):
        stream, backbone, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        session = tr.TaskSession(model, stream.tasks[1], tcfg, nm.make_rng(1))
        trainable_names = {p.name for p in session.params if p.trainable}
        assert not any(name.startswith("task1.") for name in trainable_names)
        assert not any(".down" in name and name.startswith("shared") for name in trainable_names)
        grads = ad.backward_per_term(session.losses(np.arange(2)), session.params)
        for term_grads in grads.values():
            for name in term_grads:
                assert name in trainable_names


class Interrupted(Exception):
    """Stands in for anything that stops a task before it finishes."""


def _desk_run():
    """The desk run's parts at seed 0, with a fresh generator for each task."""
    return harness.build_run(harness.resolve_config({"epochs": 1}), seed=0)


def _boundary(model, store) -> tuple:
    """The bytes of everything a finished task commits: the shared adapter,
    each task's adapter and each task's prototypes."""
    return (
        model.shared.content_hash(),
        [adapter.content_hash() for adapter in model.tasks],
        [(entry.class_ids.tobytes(), entry.matrix.tobytes()) for entry in store.tasks],
    )


class TestTaskBoundary:
    """A task joins the model and the store only in ``TaskSession.finish``."""

    def test_interrupted_task_leaves_nothing_and_trains_again(self, monkeypatch):
        tcfg, stream, model, _ = _desk_run()
        task = stream.tasks[0]
        boundary = model.shared.content_hash()
        step, calls = tr.TaskSession.step, []

        def interrupted(session, rows):
            calls.append(rows)
            if len(calls) == 2:
                raise Interrupted
            return step(session, rows)

        store = clf.PrototypeStore()
        with monkeypatch.context() as mp:
            mp.setattr(tr.TaskSession, "step", interrupted)
            with pytest.raises(Interrupted):
                tr.train_task(model, store, task, tcfg, _desk_run()[3][0])
        # the one step taken moved only the session's copy of the shared adapter
        assert model.tasks == [] and store.tasks == []
        assert model.shared.content_hash() == boundary
        tr.train_task(model, store, task, tcfg, _desk_run()[3][0])

        tcfg, stream, reference, rng = _desk_run()
        reference_store = clf.PrototypeStore()
        tr.train_task(reference, reference_store, stream.tasks[0], tcfg, rng[0])
        assert model.tasks[0].content_hash() == reference.tasks[0].content_hash()
        assert model.shared.content_hash() == reference.shared.content_hash()
        (entry,), (want,) = store.tasks, reference_store.tasks
        assert np.array_equal(entry.class_ids, want.class_ids)
        assert entry.matrix.tobytes() == want.matrix.tobytes()

    def test_unfinished_session_leaves_evaluate_at_the_formula(self, monkeypatch):
        tcfg, stream, model, task_rngs = _desk_run()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, task_rngs[0])
        session = tr.TaskSession(model, stream.tasks[1], tcfg, task_rngs[1])
        session.step(np.arange(tcfg.batch_size))
        block_forward, applied = bb.block_forward, []

        def recording(backbone, state, i, deltas=None):
            out = block_forward(backbone, state, i, deltas)
            if deltas:
                applied.append(out.tokens.requires_grad)
            return out

        monkeypatch.setattr(bb, "block_forward", recording)
        task = stream.tasks[0]
        clf.evaluate(model, store, task.test_images, task.test_labels)
        assert len(applied) == clf.adapter_pass_count(model.shared_prefix, model.num_blocks, 1)
        assert len(applied) == 4 and not any(applied)

    def test_unfinished_session_leaves_scores_bitwise(self):
        tcfg, stream, model, task_rngs = _desk_run()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, task_rngs[0])
        images = stream.tasks[0].test_images
        columns, before = clf.score_batch(model, store, images)
        session = tr.TaskSession(model, stream.tasks[1], tcfg, task_rngs[1])
        session.step(np.arange(tcfg.batch_size))
        during = clf.score_batch(model, store, images)
        assert np.array_equal(during[0], columns)
        assert during[1].tobytes() == before.tobytes()

    def test_task_with_an_empty_class_fails_before_its_first_step(self, monkeypatch):
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(1))
        boundary = _boundary(model, store)
        task = stream.tasks[1]
        keep = task.train_labels != task.classes[1]
        broken = replace(
            task, train_images=task.train_images[keep], train_labels=task.train_labels[keep]
        )
        step, calls = tr.TaskSession.step, []
        with monkeypatch.context() as mp:
            mp.setattr(tr.TaskSession, "step", lambda *a: calls.append(a) or step(*a))
            with pytest.raises(DataError, match=rf"classes \[{task.classes[1]}\]"):
                tr.train_task(model, store, broken, tcfg, nm.make_rng(2))
        assert calls == [] and _boundary(model, store) == boundary
        tr.train_task(model, store, task, tcfg, nm.make_rng(2))

        reference_stream, _, reference, _ = build_micro()
        reference_store = clf.PrototypeStore()
        for t in reference_stream.tasks:
            tr.train_task(reference, reference_store, t, tcfg, nm.make_rng(t.task_id))
        assert _boundary(model, store) == _boundary(reference, reference_store)

    def test_foreign_training_label_is_a_data_error(self, micro):
        stream, _, model, tcfg = micro
        task = stream.tasks[0]
        labels = task.train_labels.copy()
        labels[0] = stream.tasks[1].classes[0]
        store = clf.PrototypeStore()
        with pytest.raises(DataError, match=f"training label {labels[0]},"):
            tr.train_task(model, store, replace(task, train_labels=labels), tcfg, nm.make_rng(0))
        assert model.tasks == [] and store.tasks == []

    def test_failed_prototypes_leave_the_boundary_bitwise(self, monkeypatch):
        stream, _, model, tcfg = build_micro()
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(1))
        boundary = _boundary(model, store)

        def failing(*args):
            raise Interrupted

        monkeypatch.setattr(clf, "compute_prototypes", failing)
        with pytest.raises(Interrupted):
            tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(2))
        assert _boundary(model, store) == boundary

    @pytest.mark.parametrize("position_l", [0, 1])
    def test_diverged_task_leaves_the_boundary_bitwise(self, position_l):
        # At a learning rate of 1e300 the first task still ends with finite
        # prototypes, and the second overflows. Without a shared block its
        # prototypes are the first values checked; with one, the distillation
        # target is.
        overrides = {"position_l": position_l, "learning_rate": 1e300}
        stream, _, model, tcfg = build_micro(train_overrides=overrides)
        store = clf.PrototypeStore()
        message = "task 2's prototypes are not finite" if position_l == 0 else "non-finite"
        with np.errstate(all="ignore"):
            tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(1))
            boundary = _boundary(model, store)
            with pytest.raises(InvalidInputError, match=message):
                tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(2))
        assert _boundary(model, store) == boundary

    @pytest.mark.parametrize(
        "override", [{"position_l": 2}, {"flip_positions": True}, {"fix_b": False}]
    )
    def test_config_disagreeing_with_the_model_rejected(self, micro, override):
        stream, _, model, tcfg = micro
        with pytest.raises(ConfigError):
            tr.TaskSession(model, stream.tasks[0], replace(tcfg, **override), nm.make_rng(0))


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
        assert model.shared.blocks == () and model.shared.parameters() == []
        store = clf.PrototypeStore()
        for task in stream.tasks:
            epoch_log = tr.train_task(model, store, task, tcfg, nm.make_rng(task.task_id))
            for entry in epoch_log:
                assert entry["loss_kd"] == 0.0 and entry["loss_orth"] == 0.0
        assert all(adapter.rho is None for adapter in model.tasks)
        assert all(adapter.pairs for adapter in model.tasks)

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

    def test_adaptive_moments_are_allocated_on_the_first_step_only(self, monkeypatch):
        params = {name: ad.Parameter(name, np.zeros(3), True, "head") for name in "ab"}
        grads = {name: np.array([1.0, -2.0, 0.5]) for name in params}
        opt = tr.AdaptiveMoments(0.1)
        opt.step(params, grads)
        assert list(opt.m) == list(opt.v) == ["a", "b"]
        zeros_like, calls = np.zeros_like, []
        monkeypatch.setattr(np, "zeros_like", lambda *a, **k: calls.append(a) or zeros_like(*a, **k))
        opt.step(params, grads)
        opt.step(params, grads)
        assert calls == []

    @pytest.mark.parametrize(
        "overrides, kind",
        [
            ({}, tr.AdaptiveMoments),
            ({"optimizer": "plain-gradient-descent", "learning_rate": 0.01},
             tr.PlainGradientDescent),
        ],
    )
    def test_session_makes_a_fresh_optimizer_as_configured(self, overrides, kind):
        stream, _, model, tcfg = build_micro(train_overrides=overrides)
        first = tr.TaskSession(model, stream.tasks[0], tcfg, nm.make_rng(0))
        assert type(first.optimizer) is kind and first.optimizer.lr == tcfg.learning_rate
        first.step(np.arange(2))
        second = tr.TaskSession(model, stream.tasks[0], tcfg, nm.make_rng(0))
        assert second.optimizer is not first.optimizer
        if kind is tr.AdaptiveMoments:
            assert (first.optimizer.t, second.optimizer.t) == (1, 0)
            assert second.optimizer.m == {} and second.optimizer.v == {}


class TestTapeSize:
    def test_desk_step_node_count_per_task(self, monkeypatch):
        # Desk architecture, one 8-image step per task. Each block records one
        # attention and one MLP node; the attention node's parents are the
        # tokens and the adapter tensors that train. Each loss term and each
        # CLS readout is one node, so from task 2 on the distillation and
        # overlap terms add a fixed number of nodes however many tasks came
        # before.
        from dualora import harness

        sizes, constants, strangers = [], [], []
        per_term = ad.backward_per_term

        def walk(losses, params):
            seen, stack = {}, [t for t in losses.values() if t is not None]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen[id(node)] = node
                    stack.extend(node.parents)
            sizes.append(len(seen))
            # every leaf is a parameter the step trains, but for the embedded
            # batch: the frozen backbone's weights never enter the tape
            leaves = [n for n in seen.values() if not n.parents]
            constants.append(sum(n.param is None for n in leaves))
            strangers.extend(
                n.param.name for n in leaves
                if n.param is not None and not any(n.param is p for p in params)
            )
            return per_term(losses, params)

        monkeypatch.setattr(ad, "backward_per_term", walk)
        harness.run_experiment(
            {"train_per_class": 4, "test_per_class": 1, "epochs": 1, "batch_size": 8}, 0
        )
        assert sizes == [27, 34, 34, 34, 34]
        assert constants == [1] * 5 and strangers == []
