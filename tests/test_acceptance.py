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
        grad = nm.make_rng(0).standard_normal((6, 3))
        p = ad.Parameter("up", np.zeros((6, 3)), True, "shared-up")

        def reassigned(teacher_up):
            scale = {"up": tr.gr_scale(teacher_up)}
            cfg = tr.TrainConfig(lambda_kd=1.0)
            return tr.total_step_gradient({"kd": {"up": grad}}, [p], cfg, scale)["up"]

        # (a) uniform teacher row norms leave the gradient bit-identical
        assert np.array_equal(reassigned(np.tile([2.5, 0.0, 0.0], (6, 1))), grad)
        # (b) the applied row scalings are exactly sigma, which sums to d: row
        # norms 1, 2, 3, 5, 7, 6 sum to 24, so sigma is each norm over 4
        up = np.array([[1, 0, 0], [0, 2, 0], [0, 0, 3], [3, 4, 0], [2, 3, 6], [0, 6, 0]], float)
        sigma = np.array([0.25, 0.5, 0.75, 1.25, 1.75, 1.5])
        assert np.array_equal(tr.gr_scale(up), sigma) and sigma.sum() == 6.0
        assert np.array_equal(reassigned(up), grad * sigma[:, None])
        # (c) an all-zero teacher up-projection is a no-op
        assert np.array_equal(reassigned(np.zeros((6, 3))), grad)


def test_04_structural_isolation():
    with _report(4, "kd reaches no specific/block-weight param; orth reaches block weights only"):
        stream, backbone, model, tcfg, task_rngs = desk_parts(
            {**DESK_FAST, "num_classes": 4, "num_tasks": 2, "num_blocks": 2, "width": 16,
             "heads": 2, "image_side": 8, "patch_side": 4, "rank": 2, "position_l": 1}
        )
        store = clf.PrototypeStore()
        tr.train_task(model, store, stream.tasks[0], tcfg, task_rngs[0])
        session = tr.TaskSession(model, stream.tasks[1], tcfg, task_rngs[1])
        grads = ad.backward_per_term(session.losses(np.arange(4)), session.params)
        tags = {p.name: p.tag for p in session.params}
        for name in grads["kd"]:
            assert tags[name] not in ("specific-up", "specific-down", "block-weight"), name
        assert grads["orth"], "orth reached no parameter"
        for name, orth in grads["orth"].items():
            assert tags[name] == "block-weight", name
            assert not np.array_equal(orth, np.zeros_like(orth)), name


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
            for tid, adapter_hash in frozen_hashes.items():
                adapter = model.tasks[tid - 1]
                assert adapter.rho is not None
                assert adapter.content_hash() == adapter_hash, f"task {tid} adapter moved"
            frozen_hashes[task.task_id] = model.tasks[task.task_id - 1].content_hash()


def test_06_zero_init_transparency():
    with _report(6, "step-0 logits equal the adapter-removed model's logits exactly"):
        stream, backbone, model, tcfg, task_rngs = desk_parts(
            {**DESK_FAST, "num_tasks": 3, "num_classes": 6}
        )
        store = clf.PrototypeStore()
        for task, rng_task in zip(stream.tasks, task_rngs):
            session = tr.TaskSession(model, task, tcfg, rng_task)
            rows = np.arange(tcfg.batch_size)
            images = task.train_images[rows]
            with_task = session.head.logits_value(
                mdl.forward_features(model, images, session.adapter)[0].value
            )
            without = session.head.logits_value(
                mdl.forward_features(model, images, None)[0].value
            )
            assert np.array_equal(with_task, without), f"task {task.task_id}"
            # now actually train so the next task sees realistic state
            for _ in range(3):
                session.step(rows)
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
        epoch_log = tr.train_task(model, store, stream.tasks[0], tcfg, task_rngs[0])
        # both terms are nonnegative at every step, so an epoch mean of 0.0
        # means every step's term was 0.0
        for entry in epoch_log:
            assert entry["loss_kd"] == 0.0
            assert entry["loss_orth"] == 0.0
        report = harness.run_experiment(
            {**DESK_FAST, "num_tasks": 1, "epochs": 2}, seed=0
        )
        acc = report["accuracy"]
        assert acc["average"] == acc["final"] == acc["per_task"][0]


def test_10_desk_directional_experiment():
    with _report(10, "dual-adapter run is non-inferior to specific-only (within 1 pt), both >= 0.80, < 5 min"):
        started = time.perf_counter()
        full, specific = [], []
        for seed in range(5):
            full.append(harness.run_experiment(None, seed)["accuracy"]["final"])
            specific.append(
                harness.run_experiment(
                    {"position_l": 0, "kd": False, "gr": False, "bw": False}, seed
                )["accuracy"]["final"]
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
        specific = adp.init_specific(
            1, (12,), ("q",), 10, 768, nm.make_rng(0), block_weights=False
        )
        assert sum(p.size for p in specific.parameters()) == 15360
        shared = adp.init_shared(range(1, 7), ("q", "v"), 10, 768, nm.make_rng(0))
        assert sum(p.size for p in shared.parameters() if p.trainable) == 6 * 2 * 10 * 768
