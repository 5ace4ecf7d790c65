"""Task-shared and task-specific low-rank adapters with block-wise weights.

Each attached projection of each covered block gets its own low-rank pair:
a down-projection ``B`` (rank x width) and an up-projection ``A``
(width x rank). The shared adapter keeps ``B`` fixed (random orthogonal rows
by default) and trains only ``A``, which starts at zero so a fresh adapter is
exactly transparent. Task-specific adapters train both matrices. The model
holds only frozen copies: a task trains a copy of the shared adapter next to
its own, and when it finishes the model keeps frozen copies of both.

A task's adapter also holds its block-wise weights: one positive scaling
factor per block it covers. Positivity is guaranteed by storing an
unconstrained vector ``rho`` and mapping it through softplus; the documented
uniform(0, 2) initialization is drawn in scale space and inverted through the
map.

A pair is a weight update, as in LoRA (Hu et al., 2021). Tokens are rows and
weights apply on the right, so the update of a frozen projection ``W`` is
``W + s * B.T @ A.T``, with ``s`` the block's weight or 1. The attention
sublayer multiplies its tokens by that sum once; the pair's gradients are
formed at rank r.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import numerics
from .backbone import PROJECTIONS
from .errors import InvalidInputError, InvalidRankError


def _ordered(attach_set) -> tuple[str, ...]:
    return tuple(p for p in PROJECTIONS if p in attach_set)


@dataclass(frozen=True)
class Attachment:
    """One low-rank pair on one projection, entered on the tape: the weight
    update ``s * down.T @ up.T`` with ``s = mu[index]``, or 1 without ``mu``.

    The fused attention sublayer multiplies its tokens by :meth:`merged`
    once and takes the pair's gradients from :meth:`gradients`.
    """

    down: ad.Tensor  # (rank, width)
    up: ad.Tensor  # (width, rank)
    mu: ad.Tensor | None = None
    index: int = 0

    @property
    def tensors(self) -> tuple[ad.Tensor, ...]:
        return (self.down, self.up) if self.mu is None else (self.down, self.up, self.mu)

    @property
    def scale(self) -> float:
        return 1.0 if self.mu is None else float(self.mu.value[self.index])

    def merged(self, weight: np.ndarray) -> np.ndarray:
        """The frozen projection ``weight`` (width x width) plus this update."""
        return weight + self.scale * (self.down.value.T @ self.up.value.T)

    def gradients(self, rows: np.ndarray, g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        """One gradient per entry of :attr:`tensors` (None where that tensor
        takes none), given the projection's ``(n, width)`` input rows and the
        gradient ``g`` of its output; formed at rank r from ``rows @ down.T``
        and ``g @ up``, never from the width x width ``rows.T @ g``."""
        down, up, mu, s = self.down, self.up, self.mu, self.scale
        need_mu = mu is not None and mu.requires_grad
        low = rows @ down.value.T if up.requires_grad or need_mu else None
        g_low = g @ up.value if down.requires_grad or need_mu else None
        g_down = (g_low.T @ rows) * s if down.requires_grad else None
        g_up = (g.T @ low) * s if up.requires_grad else None
        if mu is None:
            return g_down, g_up
        g_mu = None
        if need_mu:
            g_mu = np.zeros_like(mu.value)
            g_mu[self.index] = (low * g_low).sum()
        return g_down, g_up, g_mu

    def delta(self, x: ad.Tensor) -> ad.Tensor:
        """The update's output for tokens ``x``, at rank r, as a node of its own."""
        rows = x.value.reshape(-1, x.shape[-1])
        out = ((rows @ self.down.value.T) @ self.up.value.T) * self.scale

        def bwd(g, needs):
            g = g.reshape(rows.shape)
            g_x = (g @ self.up.value) @ self.down.value * self.scale
            return (g_x.reshape(x.shape),) + self.gradients(rows, g)

        return ad.node(out.reshape(x.shape), (x,) + self.tensors, bwd)


@dataclass
class LowRankPair:
    down: ad.Parameter  # (rank, width)
    up: ad.Parameter  # (width, rank)

    def attach(self, mu: ad.Tensor | None = None, index: int = 0) -> Attachment:
        return Attachment(ad.leaf(self.down), ad.leaf(self.up), mu, index)


@dataclass
class Adapter:
    """Low-rank pairs on a run of blocks, one per attached projection, and
    optionally the block-wise weights ``rho``, one entry per block.

    The shared adapter and every task's adapter are this type. They differ only
    in which blocks they cover, whether ``B`` trains and whether they carry
    block weights.
    """

    blocks: tuple[int, ...]
    pairs: dict[tuple[int, str], LowRankPair] = field(default_factory=dict)
    rho: ad.Parameter | None = None

    def parameters(self) -> list[ad.Parameter]:
        out = []
        for key in sorted(self.pairs):
            out.extend((self.pairs[key].down, self.pairs[key].up))
        if self.rho is not None:
            out.append(self.rho)
        return out

    def mu_tensor(self) -> ad.Tensor | None:
        """The block weights (softplus of ``rho``) on the tape; None without."""
        return None if self.rho is None else ad.softplus(ad.leaf(self.rho))

    def copy(self, train: Collection[str] = ()) -> Adapter:
        """The adapter as it is now, with copied values; a parameter trains
        only if its tag is in ``train``, so by default none does. The model
        keeps only such frozen copies, which no later update reaches."""

        def copied(p: ad.Parameter) -> ad.Parameter:
            return ad.Parameter(p.name, p.value.copy(), trainable=p.tag in train, tag=p.tag)

        pairs = {k: LowRankPair(copied(v.down), copied(v.up)) for k, v in self.pairs.items()}
        rho = copied(self.rho) if self.rho is not None else None
        return Adapter(self.blocks, pairs, rho)

    def content_hash(self) -> str:
        """SHA-256 of the parameter bytes in :meth:`parameters` order, so a
        freeze audit can compare an adapter with itself over time."""
        import hashlib

        digest = hashlib.sha256()
        for p in self.parameters():
            digest.update(p.value.tobytes())
        return digest.hexdigest()


def _pairs(owner, role, blocks, attach_set, rank, width, draw_down, train_down) -> Adapter:
    """An adapter on ``blocks`` with one pair per projection of
    ``attach_set``, drawn block-major: ``<owner>.b<i>.<p>.down`` (tag
    ``<role>-down``) from ``draw_down()``, trainable when ``train_down``, and
    the zeroed trainable ``<owner>.b<i>.<p>.up`` (tag ``<role>-up``)."""
    if rank < 1:
        raise InvalidRankError(f"rank must be >= 1, got {rank}")
    if rank > width:
        raise InvalidRankError(f"rank {rank} exceeds projection width {width}")
    adapter = Adapter(tuple(blocks))
    for i in adapter.blocks:
        for p in _ordered(attach_set):
            name = f"{owner}.b{i}.{p}"
            down = ad.Parameter(f"{name}.down", draw_down(), trainable=train_down, tag=f"{role}-down")
            up = ad.Parameter(f"{name}.up", np.zeros((width, rank)), trainable=True, tag=f"{role}-up")
            adapter.pairs[(i, p)] = LowRankPair(down, up)
    return adapter


def init_shared(
    blocks,
    attach_set,
    rank: int,
    width: int,
    rng: np.random.Generator,
    *,
    fixed_down: bool = True,
    down_init: str = "orthogonal",
) -> Adapter:
    """Create the shared adapter with zeroed up-projections.

    ``down_init`` selects how the fixed down-projections are drawn:
    ``"orthogonal"`` (rows orthonormal via SVD) or ``"random"`` (plain
    standard-normal entries, the degraded comparison variant). When
    ``fixed_down`` is false the down-projections are trainable instead and
    use the same scaled Gaussian init as task-specific ones.
    """

    def draw():
        if not fixed_down:
            return rng.standard_normal((rank, width)) / np.sqrt(rank)
        if down_init == "orthogonal":
            return numerics.sample_orthogonal_rows(rank, width, rng)
        return rng.standard_normal((rank, width))

    adapter = _pairs("shared", "shared", blocks, attach_set, rank, width, draw, not fixed_down)
    if down_init not in ("orthogonal", "random"):  # after the pairs: a bad rank is named first
        raise InvalidInputError(f"unknown down_init {down_init!r}")
    return adapter


def init_specific(
    task_id: int,
    blocks,
    attach_set,
    rank: int,
    width: int,
    rng: np.random.Generator,
    *,
    block_weights: bool = True,
) -> Adapter:
    """Create task ``task_id``'s adapter: zero up, Gaussian down and, with
    ``block_weights``, one scaling factor per block.

    Down-projections draw i.i.d. N(0, 1/rank); scaling factors draw
    uniform(0, 2) and are stored through the softplus inverse. An empty
    ``blocks`` gives an empty adapter and draws nothing.
    """
    owner = f"task{task_id}"

    def draw():
        return rng.standard_normal((rank, width)) / np.sqrt(rank)

    adapter = _pairs(owner, "specific", blocks, attach_set, rank, width, draw, True)
    if block_weights and adapter.blocks:
        mu = rng.uniform(0.0, 2.0, size=len(adapter.blocks))
        mu = np.clip(mu, 1e-9, None)  # a zero draw has no softplus preimage
        rho = np.log(np.expm1(mu))
        adapter.rho = ad.Parameter(f"{owner}.blockw", rho, trainable=True, tag="block-weight")
    return adapter


def specific_delta(
    adapter: Adapter,
    x: ad.Tensor,
    block: int,
    proj: str,
    mu: ad.Tensor | None = None,
) -> ad.Tensor:
    """Delta of a task adapter, scaled by that block's factor when it has
    block weights.

    ``mu`` may carry the precomputed softplus tensor for the whole block
    vector; otherwise it is derived here.
    """
    if mu is None:
        mu = adapter.mu_tensor()
    index = adapter.blocks.index(block) if mu is not None else 0
    return adapter.pairs[(block, proj)].attach(mu, index).delta(x)
