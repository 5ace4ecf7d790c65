"""Task-shared and task-specific low-rank adapters with block-wise weights.

Each attached projection of each covered block gets its own low-rank pair:
a down-projection ``B`` (rank x width) and an up-projection ``A``
(width x rank). The shared adapter keeps ``B`` fixed (random orthogonal rows
by default) and trains only ``A``, which starts at zero so a fresh adapter is
exactly transparent. Task-specific adapters train both matrices and are
frozen when their task finishes.

A task's adapter also holds its block-wise weights: one positive scaling
factor per block it covers. Positivity is guaranteed by storing an
unconstrained vector ``rho`` and mapping it through softplus; the documented
uniform(0, 2) initialization is drawn in scale space and inverted through the
map.

Token convention is row-major, so the delta for input ``x`` is
``(x @ B.T) @ A.T`` (optionally scaled), matching a weight update ``A @ B``
applied on the right as ``x @ (A @ B).T``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import numerics
from .errors import InvalidInputError, InvalidRankError

_PROJ_ORDER = ("q", "k", "v")


def _ordered(attach_set) -> tuple[str, ...]:
    return tuple(p for p in _PROJ_ORDER if p in attach_set)


@dataclass(frozen=True)
class Attachment:
    """One low-rank pair on one projection, entered on the tape.

    Its delta for normalized tokens ``h`` is ``(h @ down.T) @ up.T``, scaled
    by ``mu[index]`` when the block-weight vector ``mu`` is given. The fused
    attention sublayer reads it through :meth:`forward` and :meth:`backward`.
    """

    down: ad.Tensor  # (rank, width)
    up: ad.Tensor  # (width, rank)
    mu: ad.Tensor | None = None
    index: int = 0

    @property
    def tensors(self) -> tuple[ad.Tensor, ...]:
        return (self.down, self.up) if self.mu is None else (self.down, self.up, self.mu)

    def forward(self, h: np.ndarray):
        """The delta for ``h``, plus what :meth:`backward` needs."""
        low = h @ self.down.value.T
        out = low @ self.up.value.T
        if self.mu is None:
            return out, (low, out)
        return self.mu.value[self.index] * out, (low, out)

    def backward(self, g: np.ndarray, h: np.ndarray, saved, need_h: bool):
        """Given the gradient ``g`` of the delta, the gradient of ``h`` (None
        unless ``need_h``) and one gradient per entry of :attr:`tensors` (None
        where that tensor takes none)."""
        low, out = saved
        down, up, mu = self.down, self.up, self.mu
        g_mu = None
        if mu is not None:
            if mu.requires_grad:
                s = g * out
                g_mu = np.zeros_like(mu.value)
                g_mu[self.index] = s.sum(axis=tuple(range(s.ndim)))
            g = g * mu.value[self.index]
        g_up = None
        if up.requires_grad:
            g_up = (low.reshape(-1, low.shape[-1]).T @ g.reshape(-1, g.shape[-1])).T
        g_h = g_down = None
        if need_h or down.requires_grad:
            g_low = g @ up.value
            if need_h:
                g_h = g_low @ down.value
            if down.requires_grad:
                g_down = (h.reshape(-1, h.shape[-1]).T @ g_low.reshape(-1, g_low.shape[-1])).T
        return g_h, ((g_down, g_up) if mu is None else (g_down, g_up, g_mu))

    def delta(self, x: ad.Tensor) -> ad.Tensor:
        """The delta for tokens ``x`` as a node of its own."""
        out, saved = self.forward(x.value)

        def bwd(g, needs):
            g_x, grads = self.backward(g, x.value, saved, needs[0])
            return (g_x,) + grads

        return ad.node(out, (x,) + self.tensors, bwd)


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
    in which blocks they cover, whether ``B`` trains, whether they carry block
    weights and when they freeze.
    """

    blocks: tuple[int, ...]
    attach_set: tuple[str, ...]
    pairs: dict[tuple[int, str], LowRankPair] = field(default_factory=dict)
    rho: ad.Parameter | None = None

    def pair(self, block: int, proj: str) -> LowRankPair:
        if (block, proj) not in self.pairs:
            raise InvalidInputError(
                f"no adapter on block {block} projection {proj!r}; "
                f"the adapter covers blocks {self.blocks}"
            )
        return self.pairs[(block, proj)]

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

    def mu_values(self) -> np.ndarray:
        return np.logaddexp(0.0, self.rho.value)

    def frozen_copy(self) -> Adapter:
        """The adapter as it is now, with copied values that take no gradient.

        The teacher prefix and inference both run on such a snapshot, so
        neither sees later updates nor records a tape.
        """

        def frozen(p: ad.Parameter) -> ad.Parameter:
            return ad.Parameter(p.name, p.value.copy(), trainable=False, tag=p.tag)

        pairs = {k: LowRankPair(frozen(v.down), frozen(v.up)) for k, v in self.pairs.items()}
        rho = frozen(self.rho) if self.rho is not None else None
        return Adapter(self.blocks, self.attach_set, pairs, rho)

    def freeze(self) -> None:
        for p in self.parameters():
            p.trainable = False

    def content_hash(self) -> str:
        """SHA-256 of the parameter bytes in :meth:`parameters` order, so a
        freeze audit can compare an adapter with itself over time."""
        digest = hashlib.sha256()
        for p in self.parameters():
            digest.update(p.value.tobytes())
        return digest.hexdigest()


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
    if rank < 1:
        raise InvalidRankError(f"rank must be >= 1, got {rank}")
    if rank > width:
        raise InvalidRankError(f"rank {rank} exceeds projection width {width}")
    if down_init not in ("orthogonal", "random"):
        raise InvalidInputError(f"unknown down_init {down_init!r}")
    adapter = Adapter(tuple(blocks), _ordered(attach_set))
    for i in adapter.blocks:
        for p in adapter.attach_set:
            if not fixed_down:
                down_val = rng.standard_normal((rank, width)) / np.sqrt(rank)
            elif down_init == "orthogonal":
                down_val = numerics.sample_orthogonal_rows(rank, width, rng)
            else:
                down_val = rng.standard_normal((rank, width))
            down = ad.Parameter(
                f"shared.b{i}.{p}.down", down_val, trainable=not fixed_down, tag="shared-down"
            )
            up = ad.Parameter(
                f"shared.b{i}.{p}.up", np.zeros((width, rank)), trainable=True, tag="shared-up"
            )
            adapter.pairs[(i, p)] = LowRankPair(down=down, up=up)
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
    if rank < 1:
        raise InvalidRankError(f"rank must be >= 1, got {rank}")
    if rank > width:
        raise InvalidRankError(f"rank {rank} exceeds projection width {width}")
    adapter = Adapter(tuple(blocks), _ordered(attach_set))
    for i in adapter.blocks:
        for p in adapter.attach_set:
            down = ad.Parameter(
                f"task{task_id}.b{i}.{p}.down",
                rng.standard_normal((rank, width)) / np.sqrt(rank),
                trainable=True,
                tag="specific-down",
            )
            up = ad.Parameter(
                f"task{task_id}.b{i}.{p}.up",
                np.zeros((width, rank)),
                trainable=True,
                tag="specific-up",
            )
            adapter.pairs[(i, p)] = LowRankPair(down=down, up=up)
    if block_weights and adapter.blocks:
        mu = rng.uniform(0.0, 2.0, size=len(adapter.blocks))
        mu = np.clip(mu, 1e-9, None)  # a zero draw has no softplus preimage
        rho = np.log(np.expm1(mu))
        adapter.rho = ad.Parameter(f"task{task_id}.blockw", rho, trainable=True, tag="block-weight")
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
    return adapter.pair(block, proj).attach(mu, index).delta(x)
