"""Composition of the frozen backbone with shared and task-specific adapters.

Block routing: with transition position ``l``, blocks 1..l carry the shared
adapter and blocks l+1..N carry the current task's specific adapter. The
``flip_positions`` ablation swaps the two roles while keeping the transition
point (and therefore the early-exit readout) at block ``l``.

The model holds only what finished tasks committed, all of it frozen, so
reading it records no tape: the shared adapter as the last task left it and
each task's adapter. A task in training passes its copy of the shared adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adapters as adp
from . import autodiff as ad
from . import backbone as bb
from .errors import ConfigError, ProtocolError


@dataclass
class ContinualModel:
    backbone: bb.Backbone
    position_l: int
    flip_positions: bool = False
    fixed_down: bool = True  # the shared down-projections keep their initial draw
    # frozen, as the last finished task left it; build_model draws it
    shared: adp.Adapter = field(default_factory=lambda: adp.Adapter(()))
    tasks: list[adp.Adapter] = field(default_factory=list)  # finished task t, frozen, at t - 1

    @property
    def num_blocks(self) -> int:
        return self.backbone.cfg.num_blocks

    @property
    def width(self) -> int:
        return self.backbone.cfg.width

    @property
    def shared_blocks(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.num_blocks + 1) if self.is_shared_block(i))

    @property
    def specific_blocks(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.num_blocks + 1) if not self.is_shared_block(i))

    @property
    def shared_prefix(self) -> int:
        """Blocks 1..k a query runs once for every task. A flipped layout puts
        per-task adapters first, so nothing is shareable and k is 0."""
        return 0 if self.flip_positions else self.position_l

    @property
    def shared_trains(self) -> tuple[str, ...]:
        """Tags of the shared parameters a task trains."""
        return ("shared-up",) if self.fixed_down else ("shared-down", "shared-up")

    def is_shared_block(self, i: int) -> bool:
        return (i <= self.position_l) != self.flip_positions


def build_model(
    backbone: bb.Backbone,
    position_l: int,
    rank: int,
    rng: np.random.Generator,
    *,
    flip_positions: bool = False,
    fixed_down: bool = True,
    shared_down_init: str = "orthogonal",
) -> ContinualModel:
    """Assemble the model and draw its frozen shared adapter, which tasks
    train copies of (with ``fixed_down`` its ``B`` is for keeps). With no
    shared block it is an empty adapter, and nothing is drawn."""
    if not 0 <= position_l <= backbone.cfg.num_blocks:
        raise ConfigError(
            f"position_l must lie in [0, {backbone.cfg.num_blocks}], got {position_l}"
        )
    model = ContinualModel(backbone, position_l, flip_positions, fixed_down)
    model.shared = adp.init_shared(
        model.shared_blocks,
        backbone.cfg.attach_set,
        rank,
        backbone.cfg.width,
        rng,
        fixed_down=fixed_down,
        down_init=shared_down_init,
    ).copy()
    return model


def param_counts(model: ContinualModel) -> dict:
    """The parameter budget of a model with its tasks, counted off the
    parameters it holds: shared scalars a task trains, one task's adapter and block
    weights, their total over the tasks, and the frozen backbone."""
    if not model.tasks:
        raise ProtocolError("no tasks trained yet")
    first = model.tasks[0]
    counts = {
        "shared": sum(p.size for p in model.shared.parameters() if p.tag in model.shared_trains),
        "specific_per_task": sum(pair.down.size + pair.up.size for pair in first.pairs.values()),
        "block_weights_per_task": first.rho.size if first.rho is not None else 0,
        "backbone": model.backbone.param_count(),
    }
    counts["total"] = counts["shared"] + len(model.tasks) * (
        counts["specific_per_task"] + counts["block_weights_per_task"]
    )
    counts["backbone_ratio"] = counts["total"] / counts["backbone"]
    return counts


def _deltas(model, block, adapter: adp.Adapter, mu: ad.Tensor | None = None):
    """``adapter``'s attachments on ``block``, scaled by that block's entry of
    the block-weight vector ``mu`` when given."""
    index = adapter.blocks.index(block) if mu is not None else 0
    return {p: adapter.pairs[(block, p)].attach(mu, index) for p in model.backbone.cfg.attach_set}


def run_blocks(
    model: ContinualModel,
    state: bb.TokenState,
    blocks,
    *,
    task: adp.Adapter | None = None,
    shared: adp.Adapter | None = None,
) -> bb.TokenState:
    """Apply a contiguous run of blocks with their routed adapter deltas.

    ``task`` supplies the specific adapter for specific-role blocks (pass
    None to run those blocks bare, e.g. to show a fresh adapter changes
    nothing). ``shared`` replaces the model's frozen shared adapter on the
    shared-role blocks; a task in training passes the copy it trains there.
    """
    shared = shared if shared is not None else model.shared
    blocks = tuple(blocks)
    mu = None
    if task is not None and any(not model.is_shared_block(i) for i in blocks):
        mu = task.mu_tensor()
    for i in blocks:
        deltas = {}
        if model.is_shared_block(i):
            deltas = _deltas(model, i, shared)
        elif task is not None:
            deltas = _deltas(model, i, task, mu)
        state = bb.block_forward(model.backbone, state, i, deltas)
    return state


def run_prefix(model: ContinualModel, images: np.ndarray, k: int, **routing) -> bb.TokenState:
    """Embed ``images`` and run blocks 1..k; ``routing`` (``task``,
    ``shared``) is passed to :func:`run_blocks`. With ``k = 0`` this is the
    embedded batch alone, so every block is left to the caller."""
    state = bb.patch_embed(images, model.backbone)
    return run_blocks(model, state, range(1, k + 1), **routing)


def forward_features(
    model: ContinualModel,
    images: np.ndarray,
    task: adp.Adapter | None,
    *,
    shared: adp.Adapter | None = None,
) -> tuple[ad.Tensor, ad.Tensor | None]:
    """Full forward: embed, blocks 1..l, blocks l+1..N; ``shared`` as in
    :func:`run_blocks`. Returns the CLS readouts after block N and after
    block l, the latter None at ``l = 0``."""
    l, n = model.position_l, model.num_blocks
    state = run_prefix(model, images, l, task=task, shared=shared)
    cls_at_l = bb.extract_cls(model.backbone, state) if l >= 1 else None
    state = run_blocks(model, state, range(l + 1, n + 1), task=task, shared=shared)
    return bb.extract_cls(model.backbone, state), cls_at_l


def transition_cls_with(model: ContinualModel, images: np.ndarray) -> np.ndarray:
    """CLS readout at the transition point of the model as the last finished
    task left it, as plain values (no gradients): the distillation teacher.
    Its specific-role prefix blocks, which only a flipped layout has, run that
    task's adapter. The batch runs in :func:`~backbone.batch_chunks`."""
    l = model.position_l
    if l < 1:
        raise ProtocolError("no transition readout exists at position 0")
    task = model.tasks[-1] if model.tasks else None
    readouts = [
        bb.extract_cls(model.backbone, run_prefix(model, images[rows], l, task=task)).value
        for rows in bb.batch_chunks(model.backbone.cfg, len(images))
    ]
    return np.concatenate(readouts)
