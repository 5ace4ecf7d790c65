"""Sequential per-task training of the dual-adapter model.

Each task minimizes a local cross-entropy on its own classes plus, from the
second task on, a soft-target distillation loss at the transition block and
an overlap penalty between block-weight vectors of different tasks. The three
terms are backpropagated separately so the distillation gradient on each
shared up-projection can be rescaled row-wise by the previous task's row
norms before the terms are combined.

After a task trains, its specific adapter and block weights freeze, its
temporary classifier head is discarded, and class prototypes are computed
for inference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import adapters as adp
from . import autodiff as ad
from . import classifier as clf
from . import model as mdl
from . import numerics
from .errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    ProtocolError,
    ShapeError,
)

OPTIMIZERS = ("plain-gradient-descent", "adaptive-moments")


@dataclass(frozen=True)
class TrainConfig:
    rank: int = 4
    position_l: int = 2
    lambda_kd: float = 5.0
    lambda_orth: float = 1e-4
    temperature: float = 2.0
    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 3e-4
    optimizer: str = "adaptive-moments"
    kd: bool = True
    gr: bool = True
    bw: bool = True
    fix_b: bool = True
    flip_positions: bool = False
    shared_down_init: str = "orthogonal"

    def __post_init__(self):
        if self.lambda_kd < 0 or self.lambda_orth < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be nonnegative")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.position_l < 0:
            raise ConfigError(f"position_l must be nonnegative, got {self.position_l}")
        if self.shared_down_init not in ("orthogonal", "random"):
            raise ConfigError(f"unknown shared_down_init {self.shared_down_init!r}")


@dataclass
class TeacherSnapshot:
    """End-of-previous-task state the distillation target is computed from."""

    task_id: int  # the task being trained, not the teacher
    shared: adp.Adapter | None  # frozen copy of the shared adapter
    row_norms: dict[str, np.ndarray]  # per shared up-projection parameter
    prefix_task: mdl.TaskComponents | None  # teacher prefix when positions are flipped


@dataclass
class Head:
    """Temporary per-task linear classifier, discarded after training."""

    W: ad.Parameter
    b: ad.Parameter

    def logits_value(self, cls_value: np.ndarray) -> np.ndarray:
        if cls_value.shape[-1:] != self.W.value.shape[:1]:
            raise ShapeError(
                f"CLS readout {cls_value.shape} does not fit head {self.W.value.shape}"
            )
        return cls_value @ self.W.value + self.b.value

    def parameters(self) -> list[ad.Parameter]:
        return [self.W, self.b]


def init_head(width: int, num_classes: int, task_id: int, rng: np.random.Generator) -> Head:
    return Head(
        W=ad.Parameter(
            f"task{task_id}.head.W",
            rng.standard_normal((width, num_classes)) / np.sqrt(width),
            trainable=True,
            tag="head",
        ),
        b=ad.Parameter(
            f"task{task_id}.head.b", np.zeros(num_classes), trainable=True, tag="head"
        ),
    )


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------


def _log_softmax(v: np.ndarray) -> np.ndarray:
    z = v - v.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _log_softmax_grad(g: np.ndarray, logp: np.ndarray) -> np.ndarray:
    return g - np.exp(logp) * g.sum(axis=-1, keepdims=True)


def _head_grads(g: np.ndarray, x: np.ndarray, head: Head, needs) -> tuple:
    """Gradients of ``x @ W + b`` with respect to ``x``, ``W`` and ``b``."""
    return (
        g @ head.W.value.T if needs[0] else None,
        x.reshape(-1, x.shape[-1]).T @ g if needs[1] else None,
        g.sum(axis=0) if needs[2] else None,
    )


def _as_tensor(x) -> ad.Tensor:
    return x if isinstance(x, ad.Tensor) else ad.constant(x)


def local_ce_loss(cls, head: Head, labels) -> ad.Tensor:
    """Mean cross-entropy of the head's logits of ``cls`` (b, d) against
    local class indices, as one node."""
    cls = _as_tensor(cls)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n_classes = head.W.value.shape[-1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise InvalidInputError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    x = cls.value
    if x.ndim != 2:
        raise ShapeError(f"CLS readout must be (batch, width), got {x.shape}")
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"{labels.size} labels for a batch of {x.shape[0]}")
    n = labels.shape[0]
    rows = np.arange(n)
    logp = _log_softmax(head.logits_value(x))
    value = logp[rows, labels].sum() * (1.0 / n) * -1.0

    def bwd(g, needs):
        gp = np.zeros_like(logp)
        gp[rows, labels] = g * -1.0 * (1.0 / n)
        return _head_grads(_log_softmax_grad(gp, logp), x, head, needs)

    return ad.node(value, (cls, ad.leaf(head.W), ad.leaf(head.b)), bwd)


def kd_target(head: Head, teacher_cls: np.ndarray, tau: float) -> np.ndarray:
    """Softened distribution the head assigns to the teacher readout.

    This is the distillation target; it is recomputed every step because the
    head keeps training, but no gradient ever flows through it.
    """
    return numerics.softmax_temperature(head.logits_value(teacher_cls), tau)


def kd_loss(
    student_cls, teacher_cls, head: Head, tau: float, *, target: np.ndarray | None = None
) -> ad.Tensor:
    """Soft cross-entropy between temperature-softened class distributions,
    as one node.

    The target is a constant (either precomputed or derived here from the
    teacher readout), so gradient flows only through the student branch.
    """
    if teacher_cls is None and target is None:
        raise ProtocolError("distillation needs a previous task; none exists yet")
    if tau <= 0:
        raise InvalidInputError(f"temperature must be positive, got {tau}")
    student_cls = _as_tensor(student_cls)
    x = student_cls.value
    if target is None:
        teacher_cls = np.asarray(teacher_cls, dtype=np.float64)
        if teacher_cls.shape != x.shape:
            raise ShapeError(
                f"teacher readout {teacher_cls.shape} does not match student {x.shape}"
            )
        target = kd_target(head, teacher_cls, tau)
    c = 1.0 / tau
    logp = _log_softmax(head.logits_value(x) * c)
    if target.shape != logp.shape:
        raise ShapeError(f"distillation target {target.shape} does not match logits {logp.shape}")
    n = logp.shape[0]
    value = (target * logp).sum(axis=-1).sum() * (1.0 / n) * -1.0

    def bwd(g, needs):
        gl = (g * -1.0 * (1.0 / n)) * target
        return _head_grads(_log_softmax_grad(gl, logp) * c, x, head, needs)

    return ad.node(value, (student_cls, ad.leaf(head.W), ad.leaf(head.b)), bwd)


def orth_loss(mu: ad.Tensor, previous: list[np.ndarray]) -> ad.Tensor:
    """Sum of absolute overlaps between this task's block-weight vector and
    each earlier task's (earlier vectors are constants), as one node."""
    previous = [np.asarray(p, dtype=np.float64) for p in previous]
    for prev in previous:
        if prev.shape != mu.value.shape:
            raise ShapeError(
                f"block-weight vectors differ in length: {prev.shape} vs {mu.value.shape}"
            )
    dots = [(mu.value * prev).sum() for prev in previous]
    value = sum(np.abs(dot) for dot in dots)

    def bwd(g, needs):
        # summed in the order of ``previous``, as the op-by-op tape did
        g_mu = None
        for dot, prev in zip(dots, previous):
            term = (g * np.sign(dot)) * prev
            g_mu = term if g_mu is None else g_mu + term
        return (g_mu,)

    return ad.node(value, (mu,), bwd)


def reassign_gradient(kd_grad: np.ndarray, prev_row_norms: np.ndarray) -> np.ndarray:
    """Rescale each row of a distillation gradient by the normalized previous
    row norms; rows that mattered before get proportionally stronger pull."""
    kd_grad = np.asarray(kd_grad, dtype=np.float64)
    norms = np.asarray(prev_row_norms, dtype=np.float64)
    if kd_grad.ndim != 2 or norms.ndim != 1 or kd_grad.shape[0] != norms.shape[0]:
        raise ShapeError(
            f"gradient {kd_grad.shape} incompatible with norm vector {norms.shape}"
        )
    sigma = numerics.dimension_preserving_normalize(norms)
    return kd_grad * sigma[:, None]


def total_step_gradient(
    bundle: ad.GradientBundle,
    params: list[ad.Parameter],
    cfg: TrainConfig,
    snapshot: TeacherSnapshot | None,
) -> dict[str, np.ndarray]:
    """Combine per-term gradients into one update gradient per parameter.

    Shared up-projections take ce + lambda_kd * (reassigned) kd; the head and
    trainable shared down-projections take ce + lambda_kd * kd unmodified;
    specific adapters and block weights take ce + lambda_orth * orth.
    Reassignment touches only the kd term and only shared up-projections.
    """
    kd_present = "kd" in bundle.terms
    if kd_present and cfg.gr and snapshot is None:
        raise ProtocolError("gradient reassignment needs a teacher snapshot")
    out: dict[str, np.ndarray] = {}
    for p in params:
        if not p.trainable:
            continue
        ce = bundle.grad("ce", p.name)
        if p.tag == "shared-up":
            kd = bundle.grad("kd", p.name)
            if cfg.gr and snapshot is not None:
                kd = reassign_gradient(kd, snapshot.row_norms[p.name])
            g = ce + cfg.lambda_kd * kd
        elif p.tag in ("head", "shared-down"):
            g = ce + cfg.lambda_kd * bundle.grad("kd", p.name)
        else:  # specific-up, specific-down, block-weight
            g = ce + cfg.lambda_orth * bundle.grad("orth", p.name)
        out[p.name] = g
    return out


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


class PlainGradientDescent:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: dict[str, ad.Parameter], grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            params[name].value -= self.lr * g


class AdaptiveMoments:
    def __init__(self, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, ad.Parameter], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            params[name].value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "plain-gradient-descent":
        return PlainGradientDescent(cfg.learning_rate)
    return AdaptiveMoments(cfg.learning_rate)


# ---------------------------------------------------------------------------
# per-task session and training loop
# ---------------------------------------------------------------------------


@dataclass
class TaskTrainResult:
    epoch_log: list[dict]
    step_records: list[dict]
    duration_s: float


class TaskSession:
    """One task's training state: snapshot, fresh components, head, params."""

    def __init__(self, model: mdl.ContinualModel, task, cfg: TrainConfig, rng):
        if cfg.position_l != model.position_l or cfg.flip_positions != model.flip_positions:
            raise ConfigError("training config disagrees with the model's block layout")
        expected = len(model.tasks) + 1
        if task.task_id != expected:
            raise ProtocolError(
                f"tasks must train in order; expected task {expected}, got {task.task_id}"
            )
        if task.num_train == 0:
            raise DataError(f"task {task.task_id} has no training samples")
        self.model = model
        self.task = task
        self.cfg = cfg
        self.t = task.task_id
        self.kd_active = bool(cfg.kd and self.t > 1 and cfg.position_l >= 1)
        self.orth_active = bool(cfg.bw and self.t > 1 and model.specific_blocks)

        self.snapshot = None
        if self.kd_active:
            self.snapshot = TeacherSnapshot(
                task_id=self.t,
                shared=model.shared.frozen_copy() if model.shared is not None else None,
                row_norms=(
                    {
                        pair.up.name: numerics.row_l2_norms(pair.up.value)
                        for pair in model.shared.pairs.values()
                    }
                    if model.shared is not None
                    else {}
                ),
                prefix_task=(
                    model.components_for(self.t - 1) if model.flip_positions else None
                ),
            )

        specific, weights = None, None
        if model.specific_blocks:
            specific, weights = adp.init_specific(
                self.t,
                model.specific_blocks,
                model.backbone.cfg.attach_set,
                cfg.rank,
                model.width,
                rng,
                block_weights=cfg.bw,
            )
        self.components = mdl.TaskComponents(
            task_id=self.t,
            specific=specific,
            block_weights=weights,
        )
        model.tasks.append(self.components)
        self.head = init_head(model.width, len(task.classes), self.t, rng)
        self.previous_mu = [
            c.block_weights.mu_values() for c in model.tasks[: -1] if c.block_weights is not None
        ]

        self.params: list[ad.Parameter] = []
        if model.shared is not None:
            self.params.extend(model.shared.parameters())
        if specific is not None:
            self.params.extend(specific.parameters())
        if weights is not None:
            self.params.append(weights.rho)
        self.params.extend(self.head.parameters())
        # the teacher is frozen for the whole task, so its readout of the
        # task's training images is taken once; steps index into it
        self.teacher_cls = self.teacher_readout(task.train_images) if self.kd_active else None

    def teacher_readout(self, images) -> np.ndarray:
        """Transition CLS values under the snapshot; constant within the task."""
        if self.snapshot is None:
            raise ProtocolError("no teacher snapshot for the first task")
        return mdl.transition_cls_with(
            self.model,
            images,
            shared=self.snapshot.shared,
            prefix_task=self.snapshot.prefix_task,
        )

    def losses(
        self,
        images,
        labels_local,
        *,
        rows: np.ndarray | None = None,
        pinned_kd_target: np.ndarray | None = None,
    ) -> dict[str, ad.Tensor | None]:
        """The three loss terms for one batch, on a single shared tape.

        ``rows`` gives the batch's indices into the task's training images, so
        the teacher readout is read from :attr:`teacher_cls`; without it the
        teacher reads ``images`` afresh. ``pinned_kd_target`` holds the
        distillation target fixed across calls; gradient verification needs
        that, since the analytic gradient treats the target as a constant by
        design. One image ``(channels, H, W)`` is a batch of one, as it is for
        every forward.
        """
        result = mdl.forward_features(
            self.model, images, self.components, collect_transition_cls=self.kd_active
        )
        ce = local_ce_loss(result.cls_final, self.head, labels_local)
        kd = None
        if self.kd_active:
            target = pinned_kd_target
            teacher_cls = None
            if target is None:
                teacher_cls = (
                    self.teacher_cls[rows] if rows is not None else self.teacher_readout(images)
                )
            kd = kd_loss(
                result.cls_at_l, teacher_cls, self.head, self.cfg.temperature, target=target
            )
        orth = None
        if self.orth_active and self.previous_mu:
            orth = orth_loss(self.components.block_weights.mu_tensor(), self.previous_mu)
        return {"ce": ce, "kd": kd, "orth": orth}

    def step(self, images, labels_local, optimizer, rows: np.ndarray | None = None) -> dict:
        losses = self.losses(images, labels_local, rows=rows)
        bundle = ad.backward_per_term(losses, self.params)
        grads = total_step_gradient(bundle, self.params, self.cfg, self.snapshot)
        optimizer.step({p.name: p for p in self.params}, grads)
        ce = float(losses["ce"].value)
        kd = float(losses["kd"].value) if losses["kd"] is not None else 0.0
        orth = float(losses["orth"].value) if losses["orth"] is not None else 0.0
        return {
            "loss_ce": ce,
            "loss_kd": kd,
            "loss_orth": orth,
            "loss_total": ce + self.cfg.lambda_kd * kd + self.cfg.lambda_orth * orth,
        }

    def finish(self, store: clf.PrototypeStore) -> None:
        if self.components.specific is not None:
            self.components.specific.freeze()
        if self.components.block_weights is not None:
            self.components.block_weights.freeze()
        self.head = None  # discarded; inference is prototype-based
        clf.compute_prototypes(self.model, store, self.task)


def train_task(
    model: mdl.ContinualModel,
    store: clf.PrototypeStore,
    task,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TaskTrainResult:
    """Run one task end to end: epochs of batched steps, then freeze and
    compute prototypes. Returns the per-epoch loss log."""
    started = time.perf_counter()
    session = TaskSession(model, task, cfg, rng)
    optimizer = make_optimizer(cfg)
    labels_local = session.task.train_labels_local
    images = session.task.train_images
    n = images.shape[0]
    epoch_log: list[dict] = []
    step_records: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = {"loss_ce": 0.0, "loss_kd": 0.0, "loss_orth": 0.0, "loss_total": 0.0}
        steps = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rec = session.step(images[idx], labels_local[idx], optimizer, rows=idx)
            step_records.append(rec)
            for k in sums:
                sums[k] += rec[k]
            steps += 1
        entry = {"task": session.t, "epoch": epoch}
        entry.update({k: sums[k] / steps for k in sums})
        epoch_log.append(entry)
    session.finish(store)
    return TaskTrainResult(
        epoch_log=epoch_log,
        step_records=step_records,
        duration_s=time.perf_counter() - started,
    )
