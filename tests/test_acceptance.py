"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line so a plain ``pytest -s tests/test_acceptance.py``
doubles as the checklist. Runtime-limited criteria assert their own budget.
"""

import csv
import io
import time

import numpy as np

from dualora import adapters as adp
from dualora import autodiff as ad
from dualora import classifier as clf
from dualora import harness
from dualora import model as mdl
from dualora import numerics as nm
from dualora import trainer as tr


def _report(number, description):
    """Print the criterion verdict even when the assertion failed."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number:02d} {verdict}: {description}")
            return False

    return _Ctx()


# criterion 5/6/7 share a desk-architecture run kept small enough to be quick
DESK_FAST = {"train_per_class": 8, "test_per_class": 4, "epochs": 4}


def desk_parts(overrides, seed=0):
    tcfg, stream, model, task_rngs = harness.build_run(harness.resolve_config(overrides), seed)
    return stream, model.backbone, model, tcfg, task_rngs


def test_01_orthogonality_suite():
    with _report(1, "orthonormal rows for 100 seeds at every tested shape, < 10 s"):
        started = time.perf_counter()
        for r, k in ((1, 8), (5, 32), (10, 64), (10, 768)):
            for seed in range(100):
                b = nm.sample_orthogonal_rows(r, k, nm.make_rng(seed))
                assert np.abs(b @ b.T - np.eye(r)).max() <= 1e-6, (r, k, seed)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_02_gradient_oracle():
    with _report(2, "analytic gradients of all three terms match central differences <= 1e-4, < 2 min"):
        started = time.perf_counter()
        report = harness.gradcheck(None, seed=3, step=1e-5)
        assert report["terms_checked"] == ["ce", "kd", "orth"]
        for term in ("ce", "kd", "orth"):
            err = report["terms"][term]["max_rel_error"]
            assert err <= 1e-4, f"{term}: {err:.3e}"
            assert report["terms"][term]["num_checked"] > 0
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_03_reassignment_properties():
    with _report(3, "gradient reassignment: uniform no-op, exact sigma scaling, zero-norm no-op"):
        rng = nm.make_rng(0)
        grad = rng.standard_normal((6, 3))
        # (a) uniform previous norms leave the gradient bit-identical
        assert np.array_equal(tr.reassign_gradient(grad, np.full(6, 2.5)), grad)
        # (b) the applied row scalings are exactly sigma(w), which sums to d
        norms = rng.uniform(0.2, 3.0, 6)
        sigma = nm.dimension_preserving_normalize(norms)
        out = tr.reassign_gradient(grad, norms)
        assert np.array_equal(out, grad * sigma[:, None])
        assert abs(sigma.sum() - 6.0) <= 1e-9
        # (c) all-zero norms are a no-op
        assert np.array_equal(tr.reassign_gradient(grad, np.zeros(6)), grad)


def test_04_structural_isolation():
    with _report(4, "kd bundle zero on specific/block-weight params; orth bundle zero elsewhere"):
        stream, backbone, model, tcfg, task_rngs = desk_parts(
            {**DESK_FAST, "num_classes": 4, "num_tasks": 2, "num_blocks": 2, "width": 16,
             "heads": 2, "image_side": 8, "patch_side": 4, "rank": 2, "position_l": 1}
        )
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, task_rngs[0])
        session = tr.TaskSession(model, stream.tasks[1], tcfg, task_rngs[1])
        images = stream.tasks[1].train_images[:4]
        labels = stream.tasks[1].train_labels_local[:4]
        bundle = ad.backward_per_term(session.losses(images, labels), session.params)
        for p in session.params:
            kd = bundle.grad("kd", p.name)
            orth = bundle.grad("orth", p.name)
            if p.tag in ("specific-up", "specific-down", "block-weight"):
                assert np.array_equal(kd, np.zeros_like(kd)), p.name
            if p.tag == "block-weight":
                assert not np.array_equal(orth, np.zeros_like(orth)), p.name
            else:
                assert np.array_equal(orth, np.zeros_like(orth)), p.name


def test_05_freezing_and_frozen_backbone():
    with _report(5, "backbone, all fixed down-projections, and earlier tasks byte-stable over T=5"):
        stream, backbone, model, tcfg, task_rngs = desk_parts(DESK_FAST)
        store = clf.PrototypeStore()
        frozen_hashes = {}
        backbone_hash = backbone.byte_hash()
        down_hash = lambda: tuple(
            model.shared.pairs[k].down.byte_hash() for k in sorted(model.shared.pairs)
        )
        b_s_hash = down_hash()
        for task, rng_task in zip(stream.tasks, task_rngs):
            tr.train_task(model, store, task, tcfg, rng_task)
            assert backbone.byte_hash() == backbone_hash, f"backbone moved in task {task.task_id}"
            assert down_hash() == b_s_hash, f"fixed down-projection moved in task {task.task_id}"
            for tid, (spec_hash, bw_hash) in frozen_hashes.items():
                comp = model.components_for(tid)
                assert comp.specific.content_hash() == spec_hash, f"task {tid} adapter moved"
                assert comp.block_weights.content_hash() == bw_hash, f"task {tid} weights moved"
            comp = model.components_for(task.task_id)
            frozen_hashes[task.task_id] = (
                comp.specific.content_hash(),
                comp.block_weights.content_hash(),
            )


def test_06_zero_init_transparency():
    with _report(6, "step-0 logits equal the adapter-removed model's logits exactly"):
        stream, backbone, model, tcfg, task_rngs = desk_parts(
            {**DESK_FAST, "num_tasks": 3, "num_classes": 6}
        )
        store = clf.PrototypeStore()
        for task, rng_task in zip(stream.tasks, task_rngs):
            session = tr.TaskSession(model, task, tcfg, rng_task)
            images = task.train_images[: tcfg.batch_size]
            with_task = session.head.logits_value(
                mdl.forward_features(model, images, session.components).cls_final.value
            )
            without = session.head.logits_value(
                mdl.forward_features(model, images, None).cls_final.value
            )
            assert np.array_equal(with_task, without), f"task {task.task_id}"
            # now actually train so the next task sees realistic state
            optimizer = tr.make_optimizer(tcfg)
            labels = task.train_labels_local[: tcfg.batch_size]
            for _ in range(3):
                session.step(images, labels, optimizer)
            session.finish(store)


def test_07_inference_cost_counter(adapter_blocks):
    with _report(7, "pass counter equals l + (N-l)t on every query; 126 vs 240 at the full-size shape"):
        stream, backbone, model, tcfg, task_rngs = desk_parts(DESK_FAST)
        store = clf.PrototypeStore()
        for task, rng_task in zip(stream.tasks, task_rngs):
            tr.train_task(model, store, task, tcfg, rng_task)
            expected = clf.adapter_pass_count(
                model.position_l, model.num_blocks, task.task_id
            )
            for img in task.test_images[:3]:
                adapter_blocks.clear()
                clf.predict(model, store, img)
                assert len(adapter_blocks) == expected
        assert clf.adapter_pass_count(6, 12, 20) == 126
        assert clf.adapter_pass_count(0, 12, 20) == 240


def test_08_prefix_sharing_equivalence():
    with _report(8, "shared-prefix scores bitwise-equal the naive per-task forward on 100 queries"):
        stream, backbone, model, tcfg, task_rngs = desk_parts(
            {**DESK_FAST, "num_tasks": 2, "epochs": 2}
        )
        store = clf.PrototypeStore()
        for task, rng_task in zip(stream.tasks, task_rngs):
            tr.train_task(model, store, task, tcfg, rng_task)
        rng = nm.make_rng(99)
        for _ in range(100):
            img = rng.uniform(0.0, 1.0, (1, 16, 16))
            fast = clf.predict(model, store, img, share_prefix=True)
            slow = clf.predict(model, store, img, share_prefix=False)
            assert fast.class_id == slow.class_id
            assert set(fast.scores) == set(slow.scores)
            for key in fast.scores:
                assert fast.scores[key] == slow.scores[key], key


def test_09_protocol_degeneracies():
    with _report(9, "first task has zero kd/orth at every step; single-task run collapses the metrics"):
        stream, backbone, model, tcfg, task_rngs = desk_parts(
            {**DESK_FAST, "num_tasks": 2, "epochs": 3}
        )
        store = clf.PrototypeStore()
        result = tr.train_task(model, store, stream.tasks[0], tcfg, task_rngs[0])
        for rec in result.step_records:
            assert rec["loss_kd"] == 0.0
            assert rec["loss_orth"] == 0.0
        report = harness.run_experiment(
            {**DESK_FAST, "num_tasks": 1, "epochs": 2}, seed=0
        )
        acc = report.accuracy
        assert acc.average == acc.final == acc.per_task[0]


def test_10_desk_directional_experiment():
    with _report(10, "dual-adapter run is non-inferior to specific-only (within 1 pt), both >= 0.80, < 5 min"):
        started = time.perf_counter()
        full, specific = [], []
        for seed in range(5):
            full.append(harness.run_experiment(None, seed).accuracy.final)
            specific.append(
                harness.run_experiment(
                    {"position_l": 0, "kd": False, "gr": False, "bw": False}, seed
                ).accuracy.final
            )
        mean_full, mean_specific = float(np.mean(full)), float(np.mean(specific))
        elapsed = time.perf_counter() - started
        print(
            f"  [directional] dual-adapter A_T={mean_full:.4f} "
            f"specific-only A_T={mean_specific:.4f} ({elapsed:.0f} s)"
        )
        assert mean_full >= 0.80, f"dual-adapter mean {mean_full:.3f}"
        assert mean_specific >= 0.80, f"specific-only mean {mean_specific:.3f}"
        assert mean_full >= mean_specific - 0.01
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_11_orthogonal_vs_random_down_projection():
    with _report(11, "orthogonal down-projection non-inferior to plain random (within 2 pts), via sweep CSV"):
        reports, summary = harness.run_ablation(None, ["bs-init"], seeds=list(range(5)))
        rows = list(csv.DictReader(io.StringIO(summary)))
        assert len(rows) == 10
        by_variant = {"orthogonal": [], "random": []}
        for row in rows:
            by_variant[row["bs-init"]].append(float(row["A_bar"]))
        mean_orth = float(np.mean(by_variant["orthogonal"]))
        mean_rand = float(np.mean(by_variant["random"]))
        print(f"  [down-projection] orthogonal A_bar={mean_orth:.4f} random A_bar={mean_rand:.4f}")
        assert mean_orth >= mean_rand - 0.02


def test_12_parameter_accounting():
    with _report(12, "one rank-10 pair on a 768-wide projection counts exactly 15360 trainable scalars"):
        counts = adp.count_trainable_params(12, 768, 1, 10, 11, 1)
        assert counts.specific_per_task == 15360
        counts = adp.count_trainable_params(12, 768, 2, 10, 6, 20)
        assert counts.shared == 6 * 2 * 10 * 768
