"""Sequential per-task training of the dual-adapter model.

Each task minimizes a local cross-entropy on its own classes plus, from the
second task on, a soft-target distillation loss at the transition block and
an overlap penalty between block-weight vectors of different tasks. The three
terms are backpropagated separately so the distillation gradient on each
shared up-projection can be rescaled row-wise by the teacher's row norms,
fixed for the task, before the terms are combined.

A task trains a copy of the model's shared adapter, which stays its teacher.
It joins the model only when it finishes: its class prototypes are computed
on the model as it will be, then the model keeps frozen copies of that shared
adapter and of the task's own, the store gains the prototypes, and the head is
discarded. A task that stops or fails before that changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import adapters as adp
from . import autodiff as ad
from . import classifier as clf
from . import model as mdl
from . import numerics
from .errors import ConfigError, InvalidInputError, ProtocolError, ShapeError

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


def _soft_ce(x_node: ad.Tensor, target: np.ndarray, head: Head, tau: float) -> ad.Tensor:
    """Mean soft-target cross-entropy of the head's logits of ``x_node``,
    softened by ``tau``, against the constant ``target``, as one node."""
    x = x_node.value
    c = 1.0 / tau
    logp = _log_softmax(head.logits_value(x) * c)
    n = logp.shape[0]
    value = (target * logp).sum(axis=-1).sum() * (1.0 / n) * -1.0

    def bwd(g, needs):
        gl = (g * -1.0 * (1.0 / n)) * target
        return _head_grads(_log_softmax_grad(gl, logp) * c, x, head, needs)

    return ad.node(value, (x_node, ad.leaf(head.W), ad.leaf(head.b)), bwd)


def local_ce_loss(cls: ad.Tensor, head: Head, labels: np.ndarray) -> ad.Tensor:
    """Mean cross-entropy of the head's logits of ``cls`` (b, d) against
    ``labels``, one local class index per row, as one node: the soft-target
    cross-entropy of :func:`kd_loss` with a one-hot target at temperature 1."""
    labels = np.asarray(labels, dtype=np.int64)
    x = cls.value
    if x.ndim != 2:
        raise ShapeError(f"CLS readout must be (batch, width), got {x.shape}")
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"{labels.size} labels for a batch of {x.shape[0]}, shape {labels.shape}")
    n_classes = head.W.value.shape[-1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise InvalidInputError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return _soft_ce(cls, np.eye(n_classes)[labels], head, 1.0)


def kd_target(head: Head, teacher_cls: np.ndarray, tau: float) -> np.ndarray:
    """Softened distribution the head assigns to the teacher readout.

    This is the distillation target; it is recomputed every step because the
    head keeps training, but no gradient ever flows through it.
    """
    return numerics.softmax_temperature(head.logits_value(teacher_cls), tau)


def kd_loss(student_cls: ad.Tensor, target: np.ndarray, head: Head, tau: float) -> ad.Tensor:
    """Soft cross-entropy of the head's temperature-softened distribution of
    ``student_cls`` against ``target`` (see :func:`kd_target`), as one node.

    The target is a constant, so gradient flows only through the student.
    """
    if tau <= 0:
        raise InvalidInputError(f"temperature must be positive, got {tau}")
    logits = student_cls.value.shape[:-1] + head.b.value.shape
    if target.shape != logits:
        raise ShapeError(f"distillation target {target.shape} does not match logits {logits}")
    return _soft_ce(student_cls, target, head, tau)


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
        return (g * (np.sign(dots) @ np.stack(previous)) if previous else None,)

    return ad.node(value, (mu,), bwd)


# Below this total row norm an up-projection (all zeros before training) is
# degenerate, and reassignment leaves the gradient as it is.
DEGENERATE_SUM = 1e-12


def gr_scale(up: np.ndarray) -> np.ndarray:
    """Gradient reassignment's row scale of a ``(width, rank)`` shared
    up-projection of the teacher: its row norms rescaled to mean 1, so rows
    that mattered before get proportionally stronger pull; all ones when the
    norms sum to below ``DEGENERATE_SUM``."""
    n = np.sqrt((up * up).sum(axis=1))
    total = n.sum()
    if total < DEGENERATE_SUM:
        return np.ones_like(n)
    return n.size * n / total


def total_step_gradient(
    grads: dict[str, dict[str, np.ndarray]],
    params: list[ad.Parameter],
    cfg: TrainConfig,
    gr_scale: dict[str, np.ndarray] | None,
) -> dict[str, np.ndarray]:
    """Combine per-term gradients (see :func:`autodiff.backward_per_term`)
    into one update gradient per trainable parameter.

    Shared up-projections take ce + lambda_kd * (reassigned) kd; the head and
    trainable shared down-projections take ce + lambda_kd * kd unmodified;
    specific adapters and block weights take ce + lambda_orth * orth.
    Reassignment touches only the kd term and only shared up-projections,
    scaling rows by ``gr_scale``, the teacher's :func:`gr_scale` by parameter
    name. A term is added only where it reached the parameter.
    """
    ce, kd, orth = (grads.get(term, {}) for term in ("ce", "kd", "orth"))
    out: dict[str, np.ndarray] = {}
    for p in params:
        if not p.trainable:
            continue
        g = ce[p.name] if p.name in ce else np.zeros_like(p.value)
        if p.tag in ("specific-up", "specific-down", "block-weight"):
            if p.name in orth:
                g = g + cfg.lambda_orth * orth[p.name]
        elif p.name in kd:
            g_kd = kd[p.name]
            if p.tag == "shared-up" and cfg.gr:
                if gr_scale is None:
                    raise ProtocolError("gradient reassignment needs the teacher's row scales")
                g_kd = g_kd * gr_scale[p.name][:, None]
            g = g + cfg.lambda_kd * g_kd
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
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(g), np.zeros_like(g)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            params[name].value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------------------------------------------------------------------
# per-task session and training loop
# ---------------------------------------------------------------------------


class TaskSession:
    """One task's training state: its copy of the shared adapter, fresh
    adapter, head, params and optimizer. Its steps move only these; the model,
    whose shared adapter is the teacher, changes only in :meth:`finish`."""

    def __init__(self, model: mdl.ContinualModel, task, cfg: TrainConfig, rng):
        layout = (cfg.position_l, cfg.flip_positions, cfg.fix_b)
        if layout != (model.position_l, model.flip_positions, model.fixed_down):
            raise ConfigError("training config disagrees with the model's adapter layout")
        expected = len(model.tasks) + 1
        if task.task_id != expected:
            raise ProtocolError(
                f"tasks must train in order; expected task {expected}, got {task.task_id}"
            )
        self.labels_local = task.train_labels_local  # DataError for a broken task
        self.model = model
        self.task = task
        self.cfg = cfg
        self.t = task.task_id
        self.kd_active = bool(cfg.kd and self.t > 1 and cfg.position_l >= 1)

        shared = model.shared  # the teacher
        # A flipped layout runs the shared blocks after the transition point, so
        # the teacher prefix never reads them and kd never reaches them.
        self.gr_scale = None  # gr_scale of each of the teacher's up-projections, by name
        if self.kd_active and cfg.gr and not model.flip_positions:
            self.gr_scale = {p.up.name: gr_scale(p.up.value) for p in shared.pairs.values()}
        # the copy of the shared adapter this task trains
        self.shared = shared.copy(train=model.shared_trains)

        self.adapter = adp.init_specific(
            self.t,
            model.specific_blocks,
            model.backbone.cfg.attach_set,
            cfg.rank,
            model.width,
            rng,
            block_weights=cfg.bw,
        )
        self.head = init_head(model.width, len(task.classes), self.t, rng)
        # earlier tasks' block weights, if this task has its own; the overlap
        # term is built exactly when there are any
        earlier = model.tasks if self.adapter.rho is not None else []
        self.previous_mu = [a.mu_tensor().value for a in earlier if a.rho is not None]

        parts = (self.shared, self.adapter, self.head)
        self.params = [p for part in parts for p in part.parameters()]
        plain = cfg.optimizer == "plain-gradient-descent"
        self.optimizer = (PlainGradientDescent if plain else AdaptiveMoments)(cfg.learning_rate)
        # the teacher is frozen for the whole task, so its readout of the
        # task's training images is taken once; steps index into it
        self.teacher_cls = self.teacher_readout(task.train_images) if self.kd_active else None

    def teacher_readout(self, images) -> np.ndarray:
        """Transition CLS values under the teacher, the model as the previous
        task left it, so constant within the task."""
        if not self.kd_active:
            raise ProtocolError("no teacher: distillation is off for this task")
        return mdl.transition_cls_with(self.model, images)

    def losses(
        self, rows, *, pinned_kd_target: np.ndarray | None = None
    ) -> dict[str, ad.Tensor | None]:
        """The three loss terms for one batch, on a single shared tape.

        ``rows`` indexes the task's training set; the batch's images, local
        labels and teacher readout are all taken at those rows.
        ``pinned_kd_target`` holds the distillation target fixed across calls;
        gradient verification needs that, since the analytic gradient treats
        the target as a constant by design.
        """
        cls_final, cls_at_l = mdl.forward_features(
            self.model, self.task.train_images[rows], self.adapter, shared=self.shared
        )
        ce = local_ce_loss(cls_final, self.head, self.labels_local[rows])
        kd = None
        if self.kd_active:
            target = pinned_kd_target
            if target is None:
                target = kd_target(self.head, self.teacher_cls[rows], self.cfg.temperature)
            kd = kd_loss(cls_at_l, target, self.head, self.cfg.temperature)
        orth = None
        if self.previous_mu:
            orth = orth_loss(self.adapter.mu_tensor(), self.previous_mu)
        return {"ce": ce, "kd": kd, "orth": orth}

    def step(self, rows) -> dict:
        losses = self.losses(rows)
        grads = total_step_gradient(
            ad.backward_per_term(losses, self.params), self.params, self.cfg, self.gr_scale
        )
        self.optimizer.step({p.name: p for p in self.params}, grads)
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
        """Commit the task: frozen copies of the shared adapter it trained and
        of its own adapter, and its prototypes. The prototypes are computed on
        the model as it will be, before anything is written, so a failure
        writes nothing."""
        shared, adapter = self.shared.copy(), self.adapter.copy()
        tasks = [*self.model.tasks, adapter]
        clf.compute_prototypes(replace(self.model, shared=shared, tasks=tasks), store, self.task)
        self.model.shared = shared
        self.model.tasks.append(adapter)
        self.head = None  # discarded; inference is prototype-based


def train_task(
    model: mdl.ContinualModel,
    store: clf.PrototypeStore,
    task,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> list[dict]:
    """Run one task end to end: epochs of batched steps, then
    :meth:`TaskSession.finish`. Returns the per-epoch loss log."""
    session = TaskSession(model, task, cfg, rng)
    n = task.num_train
    epoch_log: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = {"loss_ce": 0.0, "loss_kd": 0.0, "loss_orth": 0.0, "loss_total": 0.0}
        steps = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rec = session.step(idx)
            for k in sums:
                sums[k] += rec[k]
            steps += 1
        entry = {"task": session.t, "epoch": epoch}
        entry.update({k: sums[k] / steps for k in sums})
        epoch_log.append(entry)
    session.finish(store)
    return epoch_log
