"""Prototype store and cosine-similarity inference across seen tasks.

A class prototype is the mean final-block CLS feature of its training
samples, extracted with the adapter combination in effect when its task
finished; the store keeps one prototype matrix per finished task. Features
come from one batched path: the prefix blocks run once per chunk of a batch
with the model's frozen shared adapter and only the suffix is re-run per
task, so a query costs l + (N - l) * t adapter-bearing block applications
instead of N * t. Scoring is one cosine matrix per batch, queries against
every stored prototype; a single prediction is its one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import backbone as bb
from . import model as mdl
from .errors import DataError, InvalidInputError, ProtocolError, ShapeError


class TaskPrototypes(NamedTuple):
    """One finished task's ascending global class ids and, row for row,
    their prototypes ``(classes, width)``."""

    class_ids: np.ndarray
    matrix: np.ndarray


@dataclass
class PrototypeStore:
    """Append-only list of :class:`TaskPrototypes`, task t at t - 1."""

    tasks: list[TaskPrototypes] = field(default_factory=list)


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


def task_features(
    model: mdl.ContinualModel, images: np.ndarray, tasks, *, share_prefix: bool = True
) -> list[np.ndarray]:
    """The CLS features ``(B, width)`` of an image batch, one array per task.

    The batch runs in :func:`~backbone.batch_chunks`. Blocks 1..k run once
    for a chunk, then each task runs blocks k+1..N on the result, with k the
    model's shared prefix. ``share_prefix=False`` sets k to 0, so every task
    runs its full stack: the reference that prefix sharing must match
    bitwise. Everything the model holds is frozen, so no tape is recorded.
    """
    k = model.shared_prefix if share_prefix else 0
    suffix = range(k + 1, model.num_blocks + 1)
    chunks = []
    for rows in bb.batch_chunks(model.backbone.cfg, len(images)):
        prefix = mdl.run_prefix(model, images[rows], k)
        states = [mdl.run_blocks(model, prefix, suffix, task=adapter) for adapter in tasks]
        chunks.append([bb.extract_cls(model.backbone, state).value for state in states])
    return [np.concatenate(per_task) for per_task in zip(*chunks)]


def compute_prototypes(model: mdl.ContinualModel, store: PrototypeStore, task) -> None:
    """Append the task's entry to ``store``: the mean CLS feature of each of
    its classes over its training data, using the model's shared adapter
    plus the task's frozen adapter. Tasks enter in order, each once; a
    prototype that is not finite means training diverged, and enters nothing."""
    t = task.task_id
    if t != len(store.tasks) + 1 or t > len(model.tasks):
        raise ProtocolError(f"prototypes of task {t} need tasks 1..{t - 1} stored, {t} trained")
    local = task.train_labels_local  # DataError unless the labels are exactly its classes
    (feats,) = task_features(model, task.train_images, [model.tasks[t - 1]])
    protos = np.stack([feats[local == j].mean(axis=0) for j in range(len(task.classes))])
    if not np.isfinite(protos).all():
        raise InvalidInputError(f"task {t}'s prototypes are not finite: training diverged")
    store.tasks.append(TaskPrototypes(np.array(task.classes, dtype=np.int64), protos))


def score_features(store: PrototypeStore, features) -> tuple[np.ndarray, np.ndarray]:
    """The column class ids, global ids in (task, class) order, and the
    ``(B, columns)`` cosine scores of a batch's features, given task by task
    as :func:`task_features` yields them, against the prototypes in ``store``."""
    blocks = [_cosine(feats, entry.matrix) for entry, feats in zip(store.tasks, features)]
    columns = np.concatenate([entry.class_ids for entry in store.tasks])
    return columns, np.concatenate(blocks, axis=1)


def score_batch(
    model: mdl.ContinualModel,
    store: PrototypeStore,
    images: np.ndarray,
    *,
    share_prefix: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`score_features` of a batch ``(B, channels, H, W)`` under every
    trained task. ``share_prefix=False`` runs all N blocks per task: the
    reference that prefix sharing matches bitwise.
    """
    if np.ndim(images) != 4:
        raise ShapeError(f"expected a batch (B, channels, H, W), got shape {np.shape(images)}")
    if not model.tasks or len(store.tasks) != len(model.tasks):
        raise ProtocolError(f"{len(store.tasks)} tasks' prototypes for {len(model.tasks)} trained")
    features = task_features(model, images, model.tasks, share_prefix=share_prefix)
    return score_features(store, features)


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


def accuracy(columns: np.ndarray, scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of the rows of ``scores`` whose best-scoring column's class
    matches its label; ``np.argmax`` takes the first maximum, so ties go to the
    lowest (task, class) pair."""
    return int((columns[scores.argmax(1)] == np.asarray(labels)).sum()) / scores.shape[0]


def evaluate(
    model: mdl.ContinualModel, store: PrototypeStore, images: np.ndarray, labels: np.ndarray
) -> float:
    """:func:`accuracy` of a batch under :func:`score_batch`."""
    if images.shape[0] == 0:
        raise DataError("cannot evaluate on an empty sample set")
    if len(labels) != images.shape[0]:
        raise DataError(f"{len(labels)} labels for {images.shape[0]} images")
    return accuracy(*score_batch(model, store, images), labels)
