"""Prototype store and cosine-similarity inference across seen tasks.

A class prototype is the mean final-block CLS feature of its training
samples, extracted with the adapter combination in effect when its task
finished. Scoring is one batched path: the prefix blocks run once per batch
with a frozen copy of the current shared adapter and only the suffix is
re-run per task, so a query costs l + (N - l) * t adapter-bearing block
applications instead of N * t. Prototypes, single predictions and
evaluation all go through it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import model as mdl
from .errors import DataError, InvalidInputError, ProtocolError


@dataclass
class PrototypeStore:
    """Append-only map from (task id, global class id) to a feature vector."""

    vectors: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def add(self, task_id: int, class_id: int, vec: np.ndarray) -> None:
        key = (task_id, class_id)
        if key in self.vectors:
            raise ProtocolError(f"prototype for task {task_id} class {class_id} already stored")
        self.vectors[key] = np.asarray(vec, dtype=np.float64).copy()

    def task_items(self, task_id: int) -> list[tuple[int, np.ndarray]]:
        return sorted(
            ((c, v) for (t, c), v in self.vectors.items() if t == task_id),
            key=lambda item: item[0],
        )

    def __len__(self) -> int:
        return len(self.vectors)

    def export_json(self) -> str:
        payload = {
            f"{t}.{c}": [float(x) for x in v] for (t, c), v in sorted(self.vectors.items())
        }
        return json.dumps(payload, sort_keys=True)


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, with any zero vector scored -1 so a degenerate
    prototype can never win."""
    return _cosine(a, b, float(np.linalg.norm(a)), float(np.linalg.norm(b)))


def _cosine(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """:func:`cosine_score` given the two norms."""
    if na == 0.0 or nb == 0.0:
        return -1.0
    return float(a @ b) / (na * nb)


def _task_features(
    model: mdl.ContinualModel, images: np.ndarray, tasks, counter=None, *, share_prefix=True
):
    """Yield each task's components with the CLS features of an image batch.

    The shared prefix runs once for the whole batch, then each task's suffix
    runs on it. ``share_prefix=False`` runs each task's full stack through
    :func:`model.forward_features` instead, the reference that prefix sharing
    must match bitwise. Both use a frozen copy of the shared adapter, so no
    tape is recorded.
    """
    shared = model.shared.frozen_copy() if model.shared is not None else None
    if not share_prefix:
        for components in tasks:
            result = mdl.forward_features(model, images, components, counter=counter, shared=shared)
            yield components, result.cls_final.value
        return
    k, n = model.shared_prefix, model.num_blocks
    run = functools.partial(mdl.run_blocks, model, shared=shared, counter=counter)
    prefix = run(bb.patch_embed(images, model.backbone), range(1, k + 1), cls_only=k == n)
    for components in tasks:
        state = run(prefix, range(k + 1, n + 1), task=components, cls_only=True)
        yield components, bb.extract_cls(model.backbone, state).value


def compute_prototypes(model: mdl.ContinualModel, store: PrototypeStore, task) -> None:
    """Mean per-class CLS features of the task's training data, using the
    shared adapter as of now plus the task's own (frozen) components."""
    components = model.components_for(task.task_id)
    ((_, feats),) = _task_features(model, task.train_images, [components])
    for class_id in task.classes:
        mask = task.train_labels == class_id
        if not mask.any():
            raise DataError(f"class {class_id} of task {task.task_id} has no samples")
        store.add(task.task_id, int(class_id), feats[mask].mean(axis=0))


@dataclass
class Prediction:
    class_id: int
    scores: dict[int, float]  # global class id -> cosine score
    counter: mdl.PassCounter  # shared by a batch; one application covers every query


def predict_batch(
    model: mdl.ContinualModel,
    store: PrototypeStore,
    images: np.ndarray,
    *,
    share_prefix: bool = True,
) -> list[Prediction]:
    """Score every seen class for each image of a batch and pick the best,
    ties going to the lowest (task, class) pair."""
    if not model.tasks:
        raise ProtocolError("no tasks trained yet")
    if len(store) == 0:
        raise ProtocolError("prototype store is empty")
    counter = mdl.PassCounter()
    preds = [Prediction(-1, {}, counter) for _ in range(images.shape[0])]
    best = [-np.inf] * len(preds)
    features = _task_features(model, images, model.tasks, counter, share_prefix=share_prefix)
    for components, feats in features:
        items = [(c, v, float(np.linalg.norm(v))) for c, v in store.task_items(components.task_id)]
        for q, (pred, feat) in enumerate(zip(preds, feats)):
            n_feat = float(np.linalg.norm(feat))
            for class_id, proto, n_proto in items:
                score = _cosine(proto, feat, n_proto, n_feat)
                pred.scores[class_id] = score
                if score > best[q]:
                    pred.class_id, best[q] = class_id, score
    return preds


def predict(
    model: mdl.ContinualModel,
    store: PrototypeStore,
    image: np.ndarray,
    *,
    share_prefix: bool = True,
) -> Prediction:
    """:func:`predict_batch` for one image.

    ``share_prefix=False`` recomputes the full stack per task; it exists to
    demonstrate the shared-prefix path is an exact optimization, not an
    approximation.
    """
    return predict_batch(model, store, np.asarray(image)[None], share_prefix=share_prefix)[0]


def adapter_pass_count(position_l: int, num_blocks: int, num_tasks: int) -> int:
    """Adapter-bearing block applications one query costs after T tasks."""
    if not 0 <= position_l <= num_blocks:
        raise InvalidInputError(
            f"position must lie in [0, {num_blocks}], got {position_l}"
        )
    if num_tasks < 1:
        raise InvalidInputError(f"num_tasks must be >= 1, got {num_tasks}")
    return position_l + (num_blocks - position_l) * num_tasks


def evaluate(
    model: mdl.ContinualModel, store: PrototypeStore, images: np.ndarray, labels: np.ndarray
) -> float:
    """Fraction of samples whose predicted global class matches the label."""
    if images.shape[0] == 0:
        raise DataError("cannot evaluate on an empty sample set")
    if len(labels) != images.shape[0]:
        raise DataError(f"{len(labels)} labels for {images.shape[0]} images")
    preds = predict_batch(model, store, images)
    return sum(p.class_id == int(y) for p, y in zip(preds, labels)) / images.shape[0]
