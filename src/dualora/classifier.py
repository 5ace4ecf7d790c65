"""Prototype store and cosine-similarity inference across seen tasks.

A class prototype is the mean final-block CLS feature of its training
samples, extracted with the adapter combination in effect when its task
finished. Features come from one batched path: the prefix blocks run once
per batch with a frozen copy of the current shared adapter and only the
suffix is re-run per task, so a query costs l + (N - l) * t adapter-bearing
block applications instead of N * t. Scoring is one cosine matrix per batch,
queries against every stored prototype; a single prediction is its one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import model as mdl
from .errors import DataError, InvalidInputError, ProtocolError, ShapeError


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


def _cosine(feats: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """``(queries, prototypes)`` cosine similarities, with a zero vector on
    either side scored -1 so a degenerate prototype can never win.

    Multiply-and-sum, not ``feats @ protos.T``: in a BLAS product with a
    transposed operand, a row's last bits depend on how many rows the product
    has, so a query scored in a batch would differ from the query scored alone.
    """
    dots = (feats[:, None, :] * protos[None]).sum(-1)
    norms = np.sqrt((protos * protos).sum(-1))[None] * np.sqrt((feats * feats).sum(-1))[:, None]
    return np.divide(dots, norms, out=np.full_like(dots, -1.0), where=norms != 0.0)


def _task_features(model: mdl.ContinualModel, images: np.ndarray, tasks, *, share_prefix=True):
    """Yield, task by task, the CLS features of an image batch.

    Blocks 1..k run once for the whole batch, then each task runs blocks
    k+1..N on the result, with k the model's shared prefix.
    ``share_prefix=False`` sets k to 0, so every task runs its full stack:
    the reference that prefix sharing must match bitwise. Both use a frozen
    copy of the shared adapter, so no tape is recorded.
    """
    shared = model.shared.frozen_copy() if model.shared is not None else None
    k = model.shared_prefix if share_prefix else 0
    prefix = mdl.run_prefix(model, images, k, shared=shared)
    suffix = range(k + 1, model.num_blocks + 1)
    for components in tasks:
        state = mdl.run_blocks(model, prefix, suffix, task=components, shared=shared)
        yield bb.extract_cls(model.backbone, state).value


def compute_prototypes(model: mdl.ContinualModel, store: PrototypeStore, task) -> None:
    """Mean per-class CLS features of the task's training data, using the
    shared adapter as of now plus the task's own (frozen) components."""
    components = model.components_for(task.task_id)
    (feats,) = _task_features(model, task.train_images, [components])
    for class_id in task.classes:
        mask = task.train_labels == class_id
        if not mask.any():
            raise DataError(f"class {class_id} of task {task.task_id} has no samples")
        store.add(task.task_id, int(class_id), feats[mask].mean(axis=0))


def score_batch(
    model: mdl.ContinualModel,
    store: PrototypeStore,
    images: np.ndarray,
    *,
    share_prefix: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The column class ids, global ids in (task, class) order, and the
    ``(B, columns)`` cosine scores of a batch ``(B, channels, H, W)`` against
    the stored prototypes of every trained task. ``share_prefix=False`` runs
    all N blocks per task: the reference that prefix sharing matches bitwise.
    """
    if np.ndim(images) != 4:
        raise ShapeError(f"expected a batch (B, channels, H, W), got shape {np.shape(images)}")
    if not model.tasks:
        raise ProtocolError("no tasks trained yet")
    items = [store.task_items(components.task_id) for components in model.tasks]
    if not any(items):
        raise ProtocolError("prototype store holds no prototype of a trained task")
    columns, blocks = [], []
    features = _task_features(model, images, model.tasks, share_prefix=share_prefix)
    for task_items, feats in zip(items, features):
        if task_items:
            columns += [c for c, _ in task_items]
            blocks.append(_cosine(feats, np.stack([v for _, v in task_items])))
    return np.array(columns), np.concatenate(blocks, axis=1)


@dataclass
class Prediction:
    class_id: int
    scores: dict[int, float]  # global class id -> cosine score


def predict(
    model: mdl.ContinualModel,
    store: PrototypeStore,
    image: np.ndarray,
    *,
    share_prefix: bool = True,
) -> Prediction:
    """The best-scoring seen class of one image ``(channels, H, W)``, ties
    going to the lowest (task, class) pair, with the row of scores it won by."""
    columns, (row,) = score_batch(model, store, np.asarray(image)[None], share_prefix=share_prefix)
    return Prediction(int(columns[row.argmax()]), dict(zip(columns.tolist(), row.tolist())))


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
    """Fraction of a batch whose best-scoring global class matches its label;
    ``np.argmax`` takes the first maximum, so ties go to the lowest (task,
    class) pair."""
    if images.shape[0] == 0:
        raise DataError("cannot evaluate on an empty sample set")
    if len(labels) != images.shape[0]:
        raise DataError(f"{len(labels)} labels for {images.shape[0]} images")
    columns, scores = score_batch(model, store, images)
    return int((columns[scores.argmax(1)] == np.asarray(labels)).sum()) / images.shape[0]
