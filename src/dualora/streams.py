"""Synthetic dataset generation, binary dataset files, and task splitting.

Each class is a fixed random template image; samples are the template plus
clamped Gaussian pixel noise, so nearest-template matching on raw pixels
already solves the stream and any sensible feature pipeline can too.

Dataset file layout (little-endian):
  magic "CLLD" | version u32=1 | num_classes u32 | train_per_class u32 |
  test_per_class u32 | channels u32 | height u32 | width u32 |
  all train samples (class-major, sample-minor) as f32 pixels row-major |
  all test samples likewise | train labels u32[] | test labels u32[]

Pixels are stored and kept in memory as float32 so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, InvalidInputError

DATASET_MAGIC = b"CLLD"
DATASET_VERSION = 1


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


def save_dataset(path, dataset: Dataset) -> None:
    header = DATASET_MAGIC + struct.pack(
        "<IIIIIII",
        DATASET_VERSION,
        dataset.num_classes,
        dataset.train_per_class,
        dataset.test_per_class,
        dataset.channels,
        dataset.height,
        dataset.width,
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(dataset.train_images.astype("<f4").tobytes())
        f.write(dataset.test_images.astype("<f4").tobytes())
        f.write(dataset.train_labels.astype("<u4").tobytes())
        f.write(dataset.test_labels.astype("<u4").tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4 or raw[:4] != DATASET_MAGIC:
        raise FormatError(
            f"bad magic {raw[:4]!r} at offset 0, expected {DATASET_MAGIC!r}"
        )
    header_size = 4 + 7 * 4
    if len(raw) < header_size:
        raise FormatError(f"truncated header: {len(raw)} bytes, need {header_size}")
    version, c_num, n_tr, n_te, ch, h, w = struct.unpack("<IIIIIII", raw[4:header_size])
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    pix = ch * h * w
    off = header_size

    starts: dict[str, int] = {}

    def take(count, dtype, what):
        nonlocal off
        nbytes = count * np.dtype(dtype).itemsize
        if off + nbytes > len(raw):
            raise FormatError(f"truncated {what}: needed {nbytes} bytes at offset {off}")
        out = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
        starts[what] = off
        off += nbytes
        return out

    n_train, n_test = c_num * n_tr, c_num * n_te
    train = take(n_train * pix, "<f4", "train samples").reshape(n_train, ch, h, w)
    test = take(n_test * pix, "<f4", "test samples").reshape(n_test, ch, h, w)
    train_labels = take(n_train, "<u4", "train labels")
    test_labels = take(n_test, "<u4", "test labels")
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes at offset {off}")
    # a bad sample would otherwise drop out of split_tasks without a word
    for what, bad, problem in (
        ("train samples", ~np.isfinite(train), "non-finite pixel"),
        ("test samples", ~np.isfinite(test), "non-finite pixel"),
        ("train labels", train_labels >= c_num, f"label outside [0, {c_num})"),
        ("test labels", test_labels >= c_num, f"label outside [0, {c_num})"),
    ):
        hits = np.flatnonzero(bad)
        if hits.size:
            at = starts[what] + 4 * int(hits[0])  # pixels and labels are 4 bytes each
            raise FormatError(f"{problem} in {what} at offset {at}")
    return Dataset(
        num_classes=c_num,
        train_per_class=n_tr,
        test_per_class=n_te,
        channels=ch,
        height=h,
        width=w,
        train_images=np.ascontiguousarray(train),
        train_labels=np.ascontiguousarray(train_labels),
        test_images=np.ascontiguousarray(test),
        test_labels=np.ascontiguousarray(test_labels),
    )
