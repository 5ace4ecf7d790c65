"""Composition of the frozen backbone with shared and task-specific adapters.

Block routing: with transition position ``l``, blocks 1..l carry the shared
adapter and blocks l+1..N carry the current task's specific adapter. The
``flip_positions`` ablation swaps the two roles while keeping the transition
point (and therefore the early-exit readout) at block ``l``.

Forward passes run on the autodiff tape. The teacher prefix and inference
pass a frozen copy of the shared adapter, so with every task's components
frozen they record no tape at all. A pass counter, when supplied, increments
once per block that is executed with an adapter attached, which is what makes
the shared prefix measurably cheaper at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adapters as adp
from . import autodiff as ad
from . import backbone as bb
from .errors import ConfigError, InvalidInputError, MissingAdapterError


@dataclass
class TaskComponents:
    """Everything learned for one task that survives training."""

    task_id: int
    classes: tuple[int, ...]
    specific: adp.Adapter | None
    block_weights: adp.BlockWeights | None


@dataclass
class PassCounter:
    """Counts adapter-bearing block applications for one query."""

    applications: int = 0

    def bump(self) -> None:
        self.applications += 1


@dataclass
class ContinualModel:
    backbone: bb.Backbone
    position_l: int
    rank: int
    flip_positions: bool = False
    shared: adp.Adapter | None = None
    tasks: list[TaskComponents] = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        return self.backbone.cfg.num_blocks

    @property
    def width(self) -> int:
        return self.backbone.cfg.width

    @property
    def shared_blocks(self) -> tuple[int, ...]:
        n, l = self.num_blocks, self.position_l
        rng_ = range(l + 1, n + 1) if self.flip_positions else range(1, l + 1)
        return tuple(rng_)

    @property
    def specific_blocks(self) -> tuple[int, ...]:
        n, l = self.num_blocks, self.position_l
        rng_ = range(1, l + 1) if self.flip_positions else range(l + 1, n + 1)
        return tuple(rng_)

    @property
    def shared_prefix(self) -> int:
        """Blocks 1..k a query runs once for every task. A flipped layout puts
        per-task adapters first, so nothing is shareable and k is 0."""
        return 0 if self.flip_positions else self.position_l

    def is_shared_block(self, i: int) -> bool:
        return (i <= self.position_l) != self.flip_positions

    def components_for(self, task_id: int) -> TaskComponents:
        for c in self.tasks:
            if c.task_id == task_id:
                return c
        raise MissingAdapterError(f"no adapter trained for task {task_id}")


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
    """Assemble the model and draw the shared adapter (its ``B`` is for keeps)."""
    if not 0 <= position_l <= backbone.cfg.num_blocks:
        raise ConfigError(
            f"position_l must lie in [0, {backbone.cfg.num_blocks}], got {position_l}"
        )
    model = ContinualModel(
        backbone=backbone, position_l=position_l, rank=rank, flip_positions=flip_positions
    )
    if model.shared_blocks:
        model.shared = adp.init_shared(
            model.shared_blocks,
            backbone.cfg.attach_set,
            rank,
            backbone.cfg.width,
            rng,
            fixed_down=fixed_down,
            down_init=shared_down_init,
        )
    return model


def _deltas(model, block, adapter: adp.Adapter, mu: ad.Tensor | None = None):
    """``adapter``'s attachments on ``block``, scaled by that block's entry of
    the block-weight vector ``mu`` when given."""
    index = adapter.blocks.index(block) if mu is not None else 0
    return {p: adapter.pair(block, p).attach(mu, index) for p in model.backbone.cfg.attach_set}


def run_blocks(
    model: ContinualModel,
    state: bb.TokenState,
    blocks,
    *,
    task: TaskComponents | None = None,
    shared: adp.Adapter | None = None,
    counter: PassCounter | None = None,
    cls_only: bool = False,
) -> bb.TokenState:
    """Apply a contiguous run of blocks with their routed adapter deltas.

    ``task`` supplies the specific adapter for specific-role blocks (pass
    None to run those blocks bare, e.g. to show a fresh adapter changes
    nothing). ``shared`` replaces the model's live shared adapter on the
    shared-role blocks; a :meth:`~adapters.Adapter.frozen_copy` there is
    how the teacher prefix and inference run without gradients. ``cls_only``
    runs the last block readout-only, for a caller that reads only the CLS row.
    """
    shared = shared if shared is not None else model.shared
    blocks = tuple(blocks)
    mu = None
    if (
        task is not None
        and task.block_weights is not None
        and any(not model.is_shared_block(i) for i in blocks)
    ):
        mu = task.block_weights.mu_tensor()
    for i in blocks:
        deltas = {}
        if model.is_shared_block(i):
            if shared is not None:
                deltas = _deltas(model, i, shared)
        elif task is not None and task.specific is not None:
            deltas = _deltas(model, i, task.specific, mu)
        state = bb.block_forward(
            model.backbone, state, i, deltas, cls_only=cls_only and i == blocks[-1]
        )
        if deltas and counter is not None:
            counter.bump()
    return state


@dataclass
class ForwardResult:
    cls_final: ad.Tensor
    cls_at_l: ad.Tensor | None


def forward_features(
    model: ContinualModel,
    images: np.ndarray,
    task: TaskComponents | None,
    *,
    collect_transition_cls: bool = False,
    counter: PassCounter | None = None,
    shared: adp.Adapter | None = None,
) -> ForwardResult:
    """Full forward: embed, prefix blocks 1..l, suffix blocks l+1..N, CLS."""
    l, n = model.position_l, model.num_blocks
    state = bb.patch_embed(images, model.backbone)
    state = run_blocks(
        model,
        state,
        range(1, l + 1),
        task=task,
        shared=shared,
        counter=counter,
        cls_only=l == n,
    )
    cls_at_l = None
    if collect_transition_cls:
        if l < 1:
            raise InvalidInputError("no transition readout exists at position 0")
        cls_at_l = bb.extract_cls(model.backbone, state)
    state = run_blocks(
        model,
        state,
        range(l + 1, n + 1),
        task=task,
        shared=shared,
        counter=counter,
        cls_only=True,
    )
    return ForwardResult(
        cls_final=bb.extract_cls(model.backbone, state),
        cls_at_l=cls_at_l,
    )


def transition_cls_with(
    model: ContinualModel,
    images: np.ndarray,
    *,
    shared: adp.Adapter | None = None,
    prefix_task: TaskComponents | None = None,
) -> np.ndarray:
    """CLS readout at the transition point, as plain values (no gradients).

    The teacher pass uses this with the previous task's snapshot: a frozen
    copy of the shared adapter when the prefix is shared, or the previous
    task's frozen components when positions are flipped.
    """
    l = model.position_l
    if l < 1:
        raise InvalidInputError("no transition readout exists at position 0")
    state = bb.patch_embed(images, model.backbone)
    state = run_blocks(
        model,
        state,
        range(1, l + 1),
        task=prefix_task,
        shared=shared,
        cls_only=True,
    )
    return bb.extract_cls(model.backbone, state).value
