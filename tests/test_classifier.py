import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualora import adapters as adp
from dualora import backbone as bb
from dualora import classifier as clf
from dualora import harness
from dualora import model as mdl
from dualora import numerics as nm
from dualora import trainer as tr
from dualora.errors import DataError, InvalidInputError, ProtocolError, ShapeError

from conftest import build_micro, recording_adapter_blocks


def store_of(width, *tasks):
    """A store with one entry per task, each given as {class id: prototype}."""
    store = clf.PrototypeStore()
    for protos in tasks:
        ids = sorted(protos)
        matrix = np.array([protos[c] for c in ids], dtype=np.float64).reshape(len(ids), width)
        store.tasks.append(clf.TaskPrototypes(np.array(ids, dtype=np.int64), matrix))
    return store


class TestPrototypeStore:
    def test_duplicate_rejected(self, trained_micro):
        model, task = trained_micro["model"], trained_micro["stream"].tasks[0]
        store = clf.PrototypeStore()
        clf.compute_prototypes(model, store, task)
        with pytest.raises(ProtocolError):
            clf.compute_prototypes(model, store, task)
        assert len(store.tasks) == 1

    def test_stored_vectors_are_copies(self, trained_micro):
        model, task = trained_micro["model"], trained_micro["stream"].tasks[0]
        first, second = clf.PrototypeStore(), clf.PrototypeStore()
        clf.compute_prototypes(model, first, task)
        clf.compute_prototypes(model, second, task)
        kept = second.tasks[0].matrix.copy()
        first.tasks[0].matrix[:] = 9.0
        assert np.array_equal(second.tasks[0].matrix, kept)

    def test_one_entry_per_task_in_order(self, trained_micro):
        store, stream = trained_micro["store"], trained_micro["stream"]
        assert [e.class_ids.tolist() for e in store.tasks] == [
            sorted(t.classes) for t in stream.tasks
        ]
        width = trained_micro["model"].width
        assert all(e.matrix.shape == (len(e.class_ids), width) for e in store.tasks)


class TestCosineScore:
    def test_identical_vectors(self):
        v = np.array([[0.3, -0.4, 1.2]])
        assert clf._cosine(v, v)[0, 0] == pytest.approx(1.0)

    def test_zero_vector_scores_worst(self):
        feats = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        protos = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        scores = clf._cosine(feats, protos)
        assert scores[0].tolist() == [-1.0, -1.0]
        assert scores[1, 1] == -1.0
        assert scores[1, 0] == pytest.approx(6.0 / np.sqrt(3.0 * 14.0))

    def test_scale_invariance(self):
        rng = nm.make_rng(0)
        a, b = rng.standard_normal((3, 5)), rng.standard_normal((2, 5))
        assert np.allclose(clf._cosine(a, b), clf._cosine(7.3 * a, b), rtol=1e-12, atol=0)


class TestComputePrototypes:
    def test_single_sample_prototype_equals_feature(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        task = stream.tasks[0]
        adapter = model.tasks[0]
        img = task.train_images[0]
        feat = mdl.forward_features(model, img[None], adapter)[0].value[0]
        store = clf.PrototypeStore()
        one = type(task)(
            task_id=1,
            classes=(int(task.train_labels[0]),),
            train_images=task.train_images[:1],
            train_labels=task.train_labels[:1],
            test_images=task.test_images[:0],
            test_labels=task.test_labels[:0],
        )
        clf.compute_prototypes(model, store, one)
        (entry,) = store.tasks
        assert entry.class_ids.tolist() == [int(task.train_labels[0])]
        assert np.array_equal(entry.matrix[0], feat)

    def test_duplicating_samples_means_identical_prototype(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        task = stream.tasks[0]
        base_store = clf.PrototypeStore()
        clf.compute_prototypes(model, base_store, task)
        doubled = type(task)(
            task_id=1,
            classes=task.classes,
            train_images=np.concatenate([task.train_images, task.train_images]),
            train_labels=np.concatenate([task.train_labels, task.train_labels]),
            test_images=task.test_images,
            test_labels=task.test_labels,
        )
        doubled_store = clf.PrototypeStore()
        clf.compute_prototypes(model, doubled_store, doubled)
        (base,), (doubled,) = base_store.tasks, doubled_store.tasks
        assert np.array_equal(base.class_ids, doubled.class_ids)
        assert np.allclose(base.matrix, doubled.matrix, atol=1e-15)

    def test_missing_class_samples_rejected(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        task = stream.tasks[0]
        broken = type(task)(
            task_id=1,
            classes=task.classes,
            train_images=task.train_images[:0],
            train_labels=task.train_labels[:0],
            test_images=task.test_images,
            test_labels=task.test_labels,
        )
        store = clf.PrototypeStore()
        with pytest.raises(DataError):
            clf.compute_prototypes(model, store, broken)
        assert store.tasks == []

    def test_foreign_training_label_rejected(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        task = stream.tasks[0]
        labels = task.train_labels.copy()
        labels[0] = stream.tasks[1].classes[0]  # every class of the task keeps samples
        broken = replace(task, train_labels=labels)
        store = clf.PrototypeStore()
        with pytest.raises(DataError, match="not one of its classes"):
            clf.compute_prototypes(model, store, broken)
        assert store.tasks == []

    def test_tasks_enter_in_order(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        store = clf.PrototypeStore()
        with pytest.raises(ProtocolError):
            clf.compute_prototypes(model, store, stream.tasks[1])
        assert store.tasks == []


class TestPredict:
    def test_single_seen_class_always_wins(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        store = store_of(model.width, {3: np.ones(model.width)}, {})
        pred = clf.predict(model, store, stream.tasks[0].test_images[0])
        assert pred.class_id == 3

    def test_feature_matching_prototype_scores_one(self, trained_micro):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        task = stream.tasks[0]
        adapter = model.tasks[0]
        img = task.train_images[0]
        feat = mdl.forward_features(model, img[None], adapter)[0].value[0]
        probe = store_of(model.width, {0: feat}, {})
        pred = clf.predict(model, probe, img)
        assert pred.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_pass_counter_formula(self, trained_micro, adapter_blocks):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        clf.predict(model, store, stream.tasks[0].test_images[0])
        expected = clf.adapter_pass_count(model.position_l, model.num_blocks, len(model.tasks))
        assert len(adapter_blocks) == expected

    def test_prefix_sharing_equivalence_bitwise(self, trained_micro):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        rng = nm.make_rng(11)
        for _ in range(10):
            img = rng.uniform(0, 1, (1, 8, 8))
            fast = clf.predict(model, store, img, share_prefix=True)
            slow = clf.predict(model, store, img, share_prefix=False)
            assert fast.class_id == slow.class_id
            for key in fast.scores:
                assert fast.scores[key] == slow.scores[key]

    def test_reference_shares_no_block(self, trained_micro, adapter_blocks):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        l, n, t = model.position_l, model.num_blocks, len(model.tasks)
        assert l >= 1
        img = stream.tasks[0].test_images[0]
        clf.predict(model, store, img, share_prefix=False)
        assert len(adapter_blocks) == n * t
        adapter_blocks.clear()
        clf.predict(model, store, img, share_prefix=True)
        assert len(adapter_blocks) == clf.adapter_pass_count(l, n, t)

    def test_prototype_scale_invariance_of_argmax(self, trained_micro):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        img = stream.tasks[1].test_images[0]
        base = clf.predict(model, store, img)
        scaled = clf.PrototypeStore(
            [clf.TaskPrototypes(e.class_ids, 13.7 * e.matrix) for e in store.tasks]
        )
        again = clf.predict(model, scaled, img)
        assert base.class_id == again.class_id

    def test_tie_break_lowest_class_within_task(self, trained_micro):
        # identical prototypes inside one task score identically; lowest class id wins
        model, stream = trained_micro["model"], trained_micro["stream"]
        v = np.ones(model.width)
        store = store_of(model.width, {2: v.copy(), 0: v.copy()}, {})
        pred = clf.predict(model, store, stream.tasks[0].test_images[0])
        assert pred.scores[0] == pred.scores[2]
        assert pred.class_id == 0

    def test_tie_break_lowest_task_when_fully_shared(self):
        # with every block shared, all tasks produce the same feature, so
        # identical prototypes in different tasks tie exactly
        stream, _, model, tcfg = build_micro(train_overrides={"position_l": 2})
        store = clf.PrototypeStore()
        for task in stream.tasks:
            tr.train_task(model, store, task, tcfg, nm.make_rng(task.task_id))
        v = np.ones(model.width)
        probe = store_of(model.width, {3: v.copy()}, {1: v.copy()})
        pred = clf.predict(model, probe, stream.tasks[0].test_images[0])
        assert pred.scores[3] == pred.scores[1]
        assert pred.class_id == 3
        images = stream.tasks[0].test_images
        assert clf.evaluate(model, probe, images, np.full(len(images), 3)) == 1.0

    def test_empty_store_rejected(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        with pytest.raises(ProtocolError):
            clf.predict(model, clf.PrototypeStore(), stream.tasks[0].test_images[0])

    def test_store_shorter_than_model_rejected(self, trained_micro):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        short = clf.PrototypeStore(store.tasks[:-1])
        with pytest.raises(ProtocolError):
            clf.score_batch(model, short, stream.tasks[0].test_images[:2])

    def test_zero_prototype_cannot_win(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        store = store_of(model.width, {0: np.zeros(model.width), 1: np.ones(model.width)}, {})
        pred = clf.predict(model, store, stream.tasks[0].test_images[0])
        assert pred.class_id == 1
        assert pred.scores[0] == -1.0


class TestAdapterPassCount:
    @pytest.mark.parametrize(
        "l,n,t,expected",
        [(0, 12, 20, 240), (12, 12, 20, 12), (6, 12, 20, 126), (2, 4, 5, 12)],
    )
    def test_formula(self, l, n, t, expected):
        assert clf.adapter_pass_count(l, n, t) == expected

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            clf.adapter_pass_count(13, 12, 1)
        with pytest.raises(InvalidInputError):
            clf.adapter_pass_count(2, 12, 0)


class TestEvaluate:
    def test_perfect_on_training_data(self, trained_micro):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        task = stream.tasks[-1]
        acc = clf.evaluate(model, store, task.train_images, task.train_labels)
        assert acc == 1.0

    def test_empty_set_rejected(self, trained_micro):
        model, store = trained_micro["model"], trained_micro["store"]
        with pytest.raises(DataError):
            clf.evaluate(model, store, np.zeros((0, 1, 8, 8)), np.zeros(0))

    def test_single_image_rejected(self, trained_micro):
        # a (channels, H, W) image with one label per channel must not pass
        # for a batch; predict is the single-image entry point
        model, store = trained_micro["model"], trained_micro["store"]
        img = trained_micro["stream"].tasks[0].test_images[0]
        with pytest.raises(ShapeError):
            clf.evaluate(model, store, img, np.zeros(img.shape[0]))

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_label_count_mismatch_rejected(self, trained_micro, offset):
        model, store = trained_micro["model"], trained_micro["store"]
        task = trained_micro["stream"].tasks[-1]
        labels = np.resize(task.train_labels, task.num_train + offset)
        with pytest.raises(DataError):
            clf.evaluate(model, store, task.train_images, labels)


class TestStalePrototypesProtocol:
    def test_prototypes_not_recomputed_by_later_tasks(self):
        stream, _, model, tcfg = build_micro(num_classes=6, num_tasks=3)
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, nm.make_rng(0))
        (first,) = [clf.TaskPrototypes(e.class_ids.copy(), e.matrix.copy()) for e in store.tasks]
        tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(1))
        tr.train_task(model, store, stream.tasks[2], tcfg, nm.make_rng(2))
        assert np.array_equal(store.tasks[0].class_ids, first.class_ids)
        assert np.array_equal(store.tasks[0].matrix, first.matrix)


LAYOUTS = {
    "normal": {},
    "flipped": {"flip_positions": True},
    "l=0": {"position_l": 0},
    "l=N": {"position_l": 2},
}


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def trained_layout(request):
    stream, _, model, tcfg = build_micro(train_overrides=LAYOUTS[request.param])
    store = clf.PrototypeStore()
    for task in stream.tasks:
        tr.train_task(model, store, task, tcfg, nm.make_rng(task.task_id))
    images = np.concatenate([t.test_images for t in stream.tasks])
    labels = np.concatenate([t.test_labels for t in stream.tasks])
    return model, store, images, labels


class TestBatchedPath:
    def test_evaluate_matches_per_image_predict(self, trained_layout):
        model, store, images, labels = trained_layout
        singles = [clf.predict(model, store, img) for img in images]
        hits = [p.class_id == int(y) for p, y in zip(singles, labels)]
        assert clf.evaluate(model, store, images, labels) == sum(hits) / len(hits)

    def test_batched_scores_equal_per_image_scores_bitwise(self, trained_layout):
        model, store, images, _ = trained_layout
        columns, scores = clf.score_batch(model, store, images)
        assert scores.shape == (images.shape[0], sum(len(e.class_ids) for e in store.tasks))
        for img, row in zip(images, scores):
            one = clf.predict(model, store, img)
            assert one.class_id == columns[row.argmax()]
            assert list(one.scores) == columns.tolist()
            assert list(one.scores.values()) == row.tolist()

    def test_single_image_is_a_batch_of_one(self, trained_layout):
        model, store, images, labels = trained_layout
        for i, y in enumerate(labels[:3]):
            one = clf.predict(model, store, images[i])
            columns, (row,) = clf.score_batch(model, store, images[i : i + 1])
            assert dict(zip(columns.tolist(), row.tolist())) == one.scores
            batch_of_one = clf.evaluate(model, store, images[i : i + 1], labels[i : i + 1])
            assert batch_of_one == float(one.class_id == int(y))

    def test_scores_equal_cosine_score_of_every_pair_bitwise(self, trained_layout):
        # the matrix holds, for each pair, the cosine of its definition:
        # one multiply-sum over the pair and the two vectors' norms
        model, store, images, _ = trained_layout
        columns, scores = clf.score_batch(model, store, images)
        column_of = {c: j for j, c in enumerate(columns.tolist())}
        checked = 0
        features = clf.task_features(model, images, model.tasks)
        for entry, feats in zip(store.tasks, features):
            for q, feat in enumerate(feats):
                for class_id, proto in zip(entry.class_ids.tolist(), entry.matrix):
                    norms = np.sqrt((proto * proto).sum()) * np.sqrt((feat * feat).sum())
                    assert scores[q, column_of[class_id]] == (proto * feat).sum() / norms
                    checked += 1
        assert checked == scores.size == len(images) * sum(len(e.class_ids) for e in store.tasks)

    def test_chunks_of_two_change_no_bit(self, trained_layout, monkeypatch):
        model, store, images, _ = trained_layout
        cfg = model.backbone.cfg

        def forwards():
            out = clf.task_features(model, images, model.tasks)
            out.append(clf.score_batch(model, store, images)[1])
            if model.position_l >= 1:
                out.append(mdl.transition_cls_with(model, images))
            return out

        assert len(bb.batch_chunks(cfg, len(images))) == 1
        whole = forwards()
        monkeypatch.setattr(bb, "CHUNK_BUDGET", 0)
        assert len(bb.batch_chunks(cfg, len(images))) == len(images) // 2
        for one, pairs in zip(whole, forwards(), strict=True):
            assert one.tobytes() == pairs.tobytes()

    def test_batch_counter_reports_the_per_query_formula(self, trained_layout, adapter_blocks):
        model, store, images, _ = trained_layout
        clf.score_batch(model, store, images)
        expected = clf.adapter_pass_count(model.shared_prefix, model.num_blocks, len(model.tasks))
        assert len(adapter_blocks) == expected


def scoring_layout(num_blocks, position_l, flip, num_tasks, seed):
    """An untrained model and store with every up-projection, shared and
    per-task, drawn non-zero so that each adapter moves the features; each
    task holds two random prototypes. The MLP is as wide as the desk shape's
    (256), so a chunk holds 32 images, as it does there."""
    rng = nm.make_rng(seed)
    bcfg = bb.BackboneConfig(
        num_blocks=num_blocks, width=16, heads=2, mlp_ratio=16.0, image_side=8, patch_side=4,
        channels=1,
    )
    model = mdl.build_model(
        bb.init_backbone(bcfg, rng), position_l, 2, rng, flip_positions=flip
    )
    specifics = []
    store = clf.PrototypeStore()
    for t in range(1, num_tasks + 1):
        specifics.append(
            adp.init_specific(t, model.specific_blocks, bcfg.attach_set, 2, bcfg.width, rng)
        )
        protos = {c: rng.standard_normal(bcfg.width) for c in (2 * t - 2, 2 * t - 1)}
        store.tasks += store_of(bcfg.width, protos).tasks
    shared = [model.shared] if model.shared is not None else []
    for adapter in shared + specifics:
        for pair in adapter.pairs.values():
            pair.up.value = rng.standard_normal(pair.up.value.shape)
    model.tasks = [a.copy() for a in specifics]
    return model, store, rng


class TestScoringProperty:
    @given(
        st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.booleans(),
        st.integers(1, 3),
        st.integers(1, 130),
        st.integers(0, 2**32 - 1),
    )
    def test_shared_batched_and_counted_scores_over_layouts(self, nl, flip, tasks, batch, seed):
        n, l = nl
        model, store, rng = scoring_layout(n, l, flip, tasks, seed)
        images = rng.uniform(0.0, 1.0, (batch, 1, 8, 8))
        with recording_adapter_blocks() as calls:
            columns, scores = clf.score_batch(model, store, images)
        passes = clf.adapter_pass_count(model.shared_prefix, n, tasks)
        assert len(calls) == len(bb.batch_chunks(model.backbone.cfg, batch)) * passes
        assert sum(rows for _, rows in calls) == batch * passes
        assert columns.tolist() == list(range(2 * tasks))
        reference = clf.score_batch(model, store, images, share_prefix=False)[1]
        assert scores.tobytes() == reference.tobytes()
        for img, row in zip(images, scores):
            assert list(clf.predict(model, store, img).scores.values()) == row.tolist()


class TestInferenceRecordsNoTape:
    def test_features_come_from_parentless_nodes(self, trained_micro, monkeypatch):
        model, stream = trained_micro["model"], trained_micro["stream"]
        features = []
        extract = bb.extract_cls

        def recording(backbone, state):
            features.append(extract(backbone, state))
            return features[-1]

        monkeypatch.setattr(bb, "extract_cls", recording)
        img = stream.tasks[0].test_images[0]
        for share_prefix in (True, False):
            clf.predict(model, trained_micro["store"], img, share_prefix=share_prefix)
        clf.compute_prototypes(model, clf.PrototypeStore(), stream.tasks[0])
        assert len(features) == 2 * len(model.tasks) + 1
        for node in features:
            assert not node.requires_grad
            assert node.parents == () and node.bwd is None

    def test_task_features_keep_no_tape_on_any_node(self, trained_micro, monkeypatch):
        # ad.node alone decides: with nothing trainable it keeps no parents or bwd
        model, stream = trained_micro["model"], trained_micro["stream"]
        nodes = []
        for name in ("attention_sublayer", "mlp_sublayer", "extract_cls"):

            def recording(*args, _fn=getattr(bb, name), _name=name):
                nodes.append((_name, _fn(*args)))
                return nodes[-1][1]

            monkeypatch.setattr(bb, name, recording)
        for share_prefix in (True, False):
            clf.task_features(
                model, stream.tasks[0].test_images, model.tasks, share_prefix=share_prefix
            )
        assert {name for name, _ in nodes} == {"attention_sublayer", "mlp_sublayer", "extract_cls"}
        for name, node in nodes:
            assert not node.requires_grad, name
            assert node.parents == () and node.bwd is None, name

    def test_desk_evaluate_peak_memory(self):
        # a tape over a 100-query batch holds about 65 MB; without one, about 6 MB
        tcfg, stream, model, task_rngs = harness.build_run(
            harness.resolve_config({"epochs": 1}), seed=0
        )
        store = clf.PrototypeStore()
        for task, rng in zip(stream.tasks, task_rngs):
            tr.train_task(model, store, task, tcfg, rng)
        images = np.concatenate([t.test_images for t in stream.tasks])
        labels = np.concatenate([t.test_labels for t in stream.tasks])
        assert images.shape[0] == 100
        tracemalloc.start()
        try:
            clf.evaluate(model, store, images, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
