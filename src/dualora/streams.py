"""Synthetic dataset generation, binary dataset files, and task splitting.

Each class is a fixed random template image; samples are the template plus
clamped Gaussian pixel noise, so nearest-template matching on raw pixels
already solves the stream and any sensible feature pipeline can too.

A dataset file (CLLD v1, little-endian) holds the magic "CLLD", version 1 and
the ``HEADER_FIELDS`` as u32, then the arrays that :func:`_arrays` lists, each
row-major in its order: train and test samples as f32 pixels (class-major,
sample-minor), then train and test labels as u32. Saving and loading both walk
that one description.

Pixels are stored and kept in memory as float32 so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, InvalidInputError

DATASET_MAGIC = b"CLLD"
DATASET_VERSION = 1
# the Dataset fields the header holds after magic and version, in file order
HEADER_FIELDS = ("num_classes", "train_per_class", "test_per_class", "channels", "height", "width")
_HEADER = struct.Struct(f"<4s{1 + len(HEADER_FIELDS)}I")  # magic, version, fields


@dataclass
class Dataset:
    num_classes: int
    train_per_class: int
    test_per_class: int
    channels: int
    height: int
    width: int
    train_images: np.ndarray  # (num_classes * train_per_class, c, h, w) float32
    train_labels: np.ndarray  # (num_train,) uint32, class-major order
    test_images: np.ndarray
    test_labels: np.ndarray


@dataclass
class Task:
    task_id: int  # 1-based position in the stream
    classes: tuple[int, ...]  # global class ids, ascending
    train_images: np.ndarray
    train_labels: np.ndarray  # global ids
    test_images: np.ndarray
    test_labels: np.ndarray

    def __post_init__(self):
        # local labels and prototype rows follow the order of ``classes``
        if any(a >= b for a, b in zip(self.classes, self.classes[1:])):
            raise DataError(
                f"task {self.task_id} classes {list(self.classes)} are not strictly ascending"
            )

    @property
    def train_labels_local(self) -> np.ndarray:
        """Each training label's position in ``classes``; DataError unless the
        training labels are exactly the task's classes."""
        # Python sets, not np.unique, whose first call adds about 1.5 MB of peak RSS
        t, present = self.task_id, set(self.train_labels.tolist())
        foreign = sorted(present.difference(self.classes))
        if foreign:
            raise DataError(f"task {t} has training label {foreign[0]}, not one of its classes")
        missing = sorted(set(self.classes) - present)
        if missing or not present:
            raise DataError(f"task {t} has no training samples of classes {missing}")
        return np.searchsorted(self.classes, self.train_labels)

    @property
    def num_train(self) -> int:
        return self.train_images.shape[0]


@dataclass
class TaskStream:
    tasks: list[Task]
    num_classes: int

    def __post_init__(self):
        seen: set[int] = set()
        for t in self.tasks:
            overlap = seen & set(t.classes)
            if overlap:
                raise DataError(f"classes {sorted(overlap)} appear in more than one task")
            seen |= set(t.classes)
        if len(seen) != self.num_classes:
            raise DataError(
                f"tasks cover {len(seen)} classes, dataset has {self.num_classes}"
            )


def gen_synthetic(
    num_classes: int,
    train_per_class: int,
    test_per_class: int,
    image_side: int,
    channels: int,
    noise_std: float,
    rng: np.random.Generator,
) -> Dataset:
    """Template-plus-noise image classes, fully determined by the generator.

    Draw order is class-major: template, that class's train noise, then its
    test noise, so the byte content of the dataset is a pure function of the
    seed and the shape arguments.
    """
    if num_classes < 2:
        raise DataError(f"need at least 2 classes, got {num_classes}")
    if noise_std < 0:
        raise InvalidInputError(f"noise_std must be nonnegative, got {noise_std}")
    shape = (channels, image_side, image_side)
    train, test = [], []
    for _ in range(num_classes):
        template = rng.uniform(0.0, 1.0, size=shape)
        for bucket, count in ((train, train_per_class), (test, test_per_class)):
            if noise_std > 0:
                noise = rng.normal(0.0, noise_std, size=(count,) + shape)
                samples = np.clip(template[None] + noise, 0.0, 1.0)
            else:
                samples = np.repeat(template[None], count, axis=0)
            bucket.append(samples.astype(np.float32))
    labels = np.repeat(np.arange(num_classes, dtype=np.uint32), train_per_class)
    test_labels = np.repeat(np.arange(num_classes, dtype=np.uint32), test_per_class)
    return Dataset(
        num_classes=num_classes,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        channels=channels,
        height=image_side,
        width=image_side,
        train_images=np.concatenate(train),
        train_labels=labels,
        test_images=np.concatenate(test),
        test_labels=test_labels,
    )


def split_tasks(
    dataset: Dataset, num_tasks: int, *, class_order_rng: np.random.Generator | None = None
) -> TaskStream:
    """Partition classes into equal contiguous groups, in ascending id order.

    Passing ``class_order_rng`` shuffles the class order (seeded) before the
    contiguous split; local labels within a task always follow ascending
    global id.
    """
    if num_tasks < 1:
        raise DataError(f"num_tasks must be positive, got {num_tasks}")
    if dataset.num_classes % num_tasks != 0:
        raise DataError(
            f"{num_tasks} tasks cannot evenly split {dataset.num_classes} classes"
        )
    order = np.arange(dataset.num_classes)
    if class_order_rng is not None:
        order = class_order_rng.permutation(order)
    per = dataset.num_classes // num_tasks
    tasks = []
    for t in range(num_tasks):
        classes = tuple(sorted(int(c) for c in order[t * per : (t + 1) * per]))
        tr_mask = np.isin(dataset.train_labels, classes)
        te_mask = np.isin(dataset.test_labels, classes)
        for split, mask in (("train", tr_mask), ("test", te_mask)):
            if not mask.any():
                raise DataError(f"task {t + 1} (classes {list(classes)}) has no {split} samples")
        tasks.append(
            Task(
                task_id=t + 1,
                classes=classes,
                train_images=dataset.train_images[tr_mask],
                train_labels=dataset.train_labels[tr_mask].astype(np.int64),
                test_images=dataset.test_images[te_mask],
                test_labels=dataset.test_labels[te_mask].astype(np.int64),
            )
        )
    return TaskStream(tasks=tasks, num_classes=dataset.num_classes)


@contextmanager
def replacing(path):
    """A binary file to write whose bytes replace ``path`` when the ``with``
    block ends without an exception; until then ``path`` keeps its old bytes.
    The bytes go through a new file ``<path>.<16 random hex digits>.tmp``,
    made with ``open``'s usual mode and never over an existing file, so no
    two writers share one. A failure, the rename's included, deletes it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")  # outside the try: a name that exists is not ours to delete
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _arrays(header: dict) -> list[tuple[str, str, str, tuple[int, ...]]]:
    """The arrays of a CLLD v1 file after ``header``, in file order: Dataset
    field, name in errors, dtype and shape, the sizes as Python ints."""
    c, ch, h, w = (header[k] for k in ("num_classes", "channels", "height", "width"))
    n_train, n_test = c * header["train_per_class"], c * header["test_per_class"]
    return [
        ("train_images", "train samples", "<f4", (n_train, ch, h, w)),
        ("test_images", "test samples", "<f4", (n_test, ch, h, w)),
        ("train_labels", "train labels", "<u4", (n_train,)),
        ("test_labels", "test labels", "<u4", (n_test,)),
    ]


def save_dataset(path, dataset: Dataset) -> None:
    header = {k: getattr(dataset, k) for k in HEADER_FIELDS}
    with replacing(path) as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, *header.values()))
        for field, _, dtype, _ in _arrays(header):
            f.write(np.ascontiguousarray(getattr(dataset, field), dtype=dtype).data)


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != DATASET_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r} at offset 0, expected {DATASET_MAGIC!r}")
    if len(raw) < _HEADER.size:
        raise FormatError(f"truncated header: {len(raw)} bytes, need {_HEADER.size}")
    _, version, *values = _HEADER.unpack_from(raw)
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    header = dict(zip(HEADER_FIELDS, values))
    layout, arrays, starts, off = _arrays(header), {}, {}, _HEADER.size
    for field, what, dtype, shape in layout:
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        if off + nbytes > len(raw):
            raise FormatError(f"truncated {what}: needed {nbytes} bytes at offset {off}")
        arrays[field] = np.frombuffer(raw, dtype, count, off).reshape(shape)
        starts[field], off = off, off + nbytes
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes at offset {off}")
    # a bad sample would otherwise drop out of split_tasks without a word
    c = header["num_classes"]
    for field, what, dtype, _ in layout:
        pixels = dtype == "<f4"
        hits = np.flatnonzero(~np.isfinite(arrays[field]) if pixels else arrays[field] >= c)
        if hits.size:
            problem = "non-finite pixel" if pixels else f"label outside [0, {c})"
            at = starts[field] + 4 * int(hits[0])  # pixels and labels are 4 bytes each
            raise FormatError(f"{problem} in {what} at offset {at}")
    return Dataset(**header, **arrays)
