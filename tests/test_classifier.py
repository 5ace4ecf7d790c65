import json
import tracemalloc

import numpy as np
import pytest

from dualora import backbone as bb
from dualora import classifier as clf
from dualora import harness
from dualora import model as mdl
from dualora import numerics as nm
from dualora import trainer as tr
from dualora.errors import DataError, InvalidInputError, ProtocolError

from conftest import build_micro


class TestPrototypeStore:
    def test_duplicate_rejected(self):
        store = clf.PrototypeStore()
        store.add(1, 0, np.ones(4))
        with pytest.raises(ProtocolError):
            store.add(1, 0, np.zeros(4))

    def test_export_json_round_trips(self):
        store = clf.PrototypeStore()
        store.add(1, 0, np.array([1.0, 2.0]))
        store.add(2, 5, np.array([-1.0, 0.5]))
        payload = json.loads(store.export_json())
        assert payload["1.0"] == [1.0, 2.0]
        assert payload["2.5"] == [-1.0, 0.5]

    def test_stored_vectors_are_copies(self):
        store = clf.PrototypeStore()
        v = np.ones(3)
        store.add(1, 0, v)
        v[:] = 9.0
        assert np.array_equal(store.vectors[(1, 0)], np.ones(3))


class TestCosineScore:
    def test_identical_vectors(self):
        v = np.array([0.3, -0.4, 1.2])
        assert clf.cosine_score(v, v) == pytest.approx(1.0)

    def test_zero_vector_scores_worst(self):
        assert clf.cosine_score(np.zeros(3), np.ones(3)) == -1.0
        assert clf.cosine_score(np.ones(3), np.zeros(3)) == -1.0

    def test_scale_invariance(self):
        rng = nm.make_rng(0)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert clf.cosine_score(a, b) == pytest.approx(clf.cosine_score(7.3 * a, b))


class TestComputePrototypes:
    def test_single_sample_prototype_equals_feature(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        task = stream.tasks[0]
        components = model.components_for(1)
        img = task.train_images[0]
        feat = mdl.forward_features(model, img, components).cls_final.value
        store = clf.PrototypeStore()
        one = type(task)(
            task_id=1,
            classes=(int(task.train_labels[0]),),
            local_of_global={int(task.train_labels[0]): 0},
            train_images=task.train_images[:1],
            train_labels=task.train_labels[:1],
            test_images=task.test_images[:0],
            test_labels=task.test_labels[:0],
        )
        clf.compute_prototypes(model, store, one)
        assert np.array_equal(store.vectors[(1, int(task.train_labels[0]))], feat)

    def test_duplicating_samples_means_identical_prototype(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        task = stream.tasks[0]
        base_store = clf.PrototypeStore()
        clf.compute_prototypes(model, base_store, task)
        doubled = type(task)(
            task_id=1,
            classes=task.classes,
            local_of_global=task.local_of_global,
            train_images=np.concatenate([task.train_images, task.train_images]),
            train_labels=np.concatenate([task.train_labels, task.train_labels]),
            test_images=task.test_images,
            test_labels=task.test_labels,
        )
        doubled_store = clf.PrototypeStore()
        clf.compute_prototypes(model, doubled_store, doubled)
        for key in base_store.vectors:
            assert np.allclose(base_store.vectors[key], doubled_store.vectors[key], atol=1e-15)

    def test_missing_class_samples_rejected(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        task = stream.tasks[0]
        broken = type(task)(
            task_id=1,
            classes=task.classes,
            local_of_global=task.local_of_global,
            train_images=task.train_images[:0],
            train_labels=task.train_labels[:0],
            test_images=task.test_images,
            test_labels=task.test_labels,
        )
        with pytest.raises(DataError):
            clf.compute_prototypes(model, clf.PrototypeStore(), broken)


class TestPredict:
    def test_single_seen_class_always_wins(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        store = clf.PrototypeStore()
        store.add(1, 3, np.ones(model.width))
        pred = clf.predict(model, store, stream.tasks[0].test_images[0])
        assert pred.class_id == 3

    def test_feature_matching_prototype_scores_one(self, trained_micro):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        task = stream.tasks[0]
        components = model.components_for(1)
        img = task.train_images[0]
        feat = mdl.forward_features(model, img, components).cls_final.value
        probe = clf.PrototypeStore()
        probe.add(1, 0, feat)
        pred = clf.predict(model, probe, img)
        assert pred.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_pass_counter_formula(self, trained_micro):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        pred = clf.predict(model, store, stream.tasks[0].test_images[0])
        expected = clf.adapter_pass_count(model.position_l, model.num_blocks, len(model.tasks))
        assert pred.counter.applications == expected

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

    def test_prototype_scale_invariance_of_argmax(self, trained_micro):
        model, stream, store = (
            trained_micro["model"],
            trained_micro["stream"],
            trained_micro["store"],
        )
        img = stream.tasks[1].test_images[0]
        base = clf.predict(model, store, img)
        scaled = clf.PrototypeStore()
        for (t, c), v in store.vectors.items():
            scaled.add(t, c, 13.7 * v)
        again = clf.predict(model, scaled, img)
        assert base.class_id == again.class_id

    def test_tie_break_lowest_class_within_task(self, trained_micro):
        # identical prototypes inside one task score identically; lowest class id wins
        model, stream = trained_micro["model"], trained_micro["stream"]
        v = np.ones(model.width)
        store = clf.PrototypeStore()
        store.add(1, 2, v.copy())
        store.add(1, 0, v.copy())
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
        probe = clf.PrototypeStore()
        probe.add(1, 3, v.copy())
        probe.add(2, 1, v.copy())
        pred = clf.predict(model, probe, stream.tasks[0].test_images[0])
        assert pred.scores[3] == pred.scores[1]
        assert pred.class_id == 3

    def test_empty_store_rejected(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        with pytest.raises(ProtocolError):
            clf.predict(model, clf.PrototypeStore(), stream.tasks[0].test_images[0])

    def test_zero_prototype_cannot_win(self, trained_micro):
        model, stream = trained_micro["model"], trained_micro["stream"]
        store = clf.PrototypeStore()
        store.add(1, 0, np.zeros(model.width))
        store.add(1, 1, np.ones(model.width))
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
        first = {k: v.copy() for k, v in store.vectors.items()}
        tr.train_task(model, store, stream.tasks[1], tcfg, nm.make_rng(1))
        tr.train_task(model, store, stream.tasks[2], tcfg, nm.make_rng(2))
        for key, vec in first.items():
            assert np.array_equal(store.vectors[key], vec)


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
        batch = clf.predict_batch(model, store, images)
        assert len(batch) == images.shape[0]
        for img, pred in zip(images, batch):
            one = clf.predict(model, store, img)
            assert pred.class_id == one.class_id
            assert list(pred.scores) == list(one.scores)
            for key in one.scores:
                assert pred.scores[key] == one.scores[key], key

    def test_scores_equal_cosine_score_of_every_pair_bitwise(self, trained_layout):
        model, store, images, _ = trained_layout
        batch = clf.predict_batch(model, store, images)
        checked = 0
        for components, feats in clf._task_features(model, images, model.tasks):
            for pred, feat in zip(batch, feats):
                for class_id, proto in store.task_items(components.task_id):
                    assert pred.scores[class_id] == clf.cosine_score(proto, feat)
                    checked += 1
        assert checked == len(images) * len(store)

    def test_batch_counter_reports_the_per_query_formula(self, trained_layout):
        model, store, images, _ = trained_layout
        counter = clf.predict_batch(model, store, images)[0].counter
        expected = clf.adapter_pass_count(model.shared_prefix, model.num_blocks, len(model.tasks))
        assert counter.applications == expected


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
