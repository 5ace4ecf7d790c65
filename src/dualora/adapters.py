"""Task-shared and task-specific low-rank adapters with block-wise weights.

Each attached projection of each covered block gets its own low-rank pair:
a down-projection ``B`` (rank x width) and an up-projection ``A``
(width x rank). The shared adapter keeps ``B`` fixed (random orthogonal rows
by default) and trains only ``A``, which starts at zero so a fresh adapter is
exactly transparent. Task-specific adapters train both matrices and are
frozen when their task finishes.

Block-wise weights hold one positive scaling factor per specific block.
Positivity is guaranteed by storing an unconstrained vector ``rho`` and
mapping it through softplus; the documented uniform(0, 2) initialization is
drawn in scale space and inverted through the map.

Token convention is row-major, so the delta for input ``x`` is
``(x @ B.T) @ A.T`` (optionally scaled), matching a weight update ``A @ B``
applied on the right as ``x @ (A @ B).T``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import numerics
from .errors import FormatError, InvalidInputError, InvalidRankError

CHECKPOINT_MAGIC = b"CLAD"
CHECKPOINT_VERSION = 1
_PROJ_ORDER = ("q", "k", "v")


def _ordered(attach_set) -> tuple[str, ...]:
    return tuple(p for p in _PROJ_ORDER if p in attach_set)


@dataclass
class LowRankPair:
    down: ad.Parameter  # (rank, width)
    up: ad.Parameter  # (width, rank)

    def delta(self, x: ad.Tensor, mu: ad.Tensor | None = None) -> ad.Tensor:
        low = ad.matmul(x, ad.swap_last2(ad.leaf(self.down)))
        out = ad.matmul(low, ad.swap_last2(ad.leaf(self.up)))
        if mu is not None:
            out = ad.mul(mu, out)
        return out


@dataclass
class SharedAdapter:
    """Cross-task adapter on the shared blocks; ``B`` fixed, ``A`` cumulative."""

    blocks: tuple[int, ...]
    attach_set: tuple[str, ...]
    rank: int
    width: int
    pairs: dict[tuple[int, str], LowRankPair] = field(default_factory=dict)
    fixed_down: bool = True

    def pair(self, block: int, proj: str) -> LowRankPair:
        if (block, proj) not in self.pairs:
            raise InvalidInputError(
                f"no shared adapter on block {block} projection {proj!r}; "
                f"shared blocks are {self.blocks}"
            )
        return self.pairs[(block, proj)]

    def parameters(self) -> list[ad.Parameter]:
        out = []
        for key in sorted(self.pairs):
            out.extend((self.pairs[key].down, self.pairs[key].up))
        return out

    def frozen_copy(self) -> SharedAdapter:
        """The adapter as it is now, with copied values that take no gradient.

        The teacher prefix and inference both run on such a snapshot, so
        neither sees later updates nor records a tape.
        """

        def frozen(p: ad.Parameter) -> ad.Parameter:
            return ad.Parameter(p.name, p.value.copy(), trainable=False, tag=p.tag)

        pairs = {k: LowRankPair(frozen(v.down), frozen(v.up)) for k, v in self.pairs.items()}
        return SharedAdapter(
            self.blocks, self.attach_set, self.rank, self.width, pairs, self.fixed_down
        )

    def content_hash(self) -> str:
        return hashlib.sha256(_payload(self)).hexdigest()


@dataclass
class SpecificAdapter:
    """Per-task adapter on the specific blocks; frozen after its task."""

    task_id: int
    blocks: tuple[int, ...]
    attach_set: tuple[str, ...]
    rank: int
    width: int
    pairs: dict[tuple[int, str], LowRankPair] = field(default_factory=dict)
    frozen: bool = False

    def pair(self, block: int, proj: str) -> LowRankPair:
        if (block, proj) not in self.pairs:
            raise InvalidInputError(
                f"task {self.task_id} has no adapter on block {block} projection {proj!r}"
            )
        return self.pairs[(block, proj)]

    def parameters(self) -> list[ad.Parameter]:
        out = []
        for key in sorted(self.pairs):
            out.extend((self.pairs[key].down, self.pairs[key].up))
        return out

    def freeze(self) -> None:
        self.frozen = True
        for p in self.parameters():
            p.trainable = False

    def content_hash(self) -> str:
        return hashlib.sha256(_payload(self)).hexdigest()


@dataclass
class BlockWeights:
    """One positive scaling factor per specific block (softplus of ``rho``)."""

    task_id: int
    blocks: tuple[int, ...]
    rho: ad.Parameter

    def mu_tensor(self) -> ad.Tensor:
        return ad.softplus(ad.leaf(self.rho))

    def mu_values(self) -> np.ndarray:
        return np.logaddexp(0.0, self.rho.value)

    def mu_for_block(self, mu: ad.Tensor, block: int) -> ad.Tensor:
        return ad.take_index(mu, self.blocks.index(block))

    def freeze(self) -> None:
        self.rho.trainable = False

    def content_hash(self) -> str:
        return hashlib.sha256(self.rho.value.tobytes()).hexdigest()


def init_shared(
    blocks,
    attach_set,
    rank: int,
    width: int,
    rng: np.random.Generator,
    *,
    fixed_down: bool = True,
    down_init: str = "orthogonal",
) -> SharedAdapter:
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
    adapter = SharedAdapter(
        blocks=tuple(blocks),
        attach_set=_ordered(attach_set),
        rank=rank,
        width=width,
        fixed_down=fixed_down,
    )
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
) -> tuple[SpecificAdapter, BlockWeights | None]:
    """Create task ``task_id``'s adapter (zero up, Gaussian down) and weights.

    Down-projections draw i.i.d. N(0, 1/rank); scaling factors draw
    uniform(0, 2) and are stored through the softplus inverse.
    """
    if rank < 1:
        raise InvalidRankError(f"rank must be >= 1, got {rank}")
    adapter = SpecificAdapter(
        task_id=task_id,
        blocks=tuple(blocks),
        attach_set=_ordered(attach_set),
        rank=rank,
        width=width,
    )
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
    weights = None
    if block_weights and adapter.blocks:
        mu = rng.uniform(0.0, 2.0, size=len(adapter.blocks))
        mu = np.clip(mu, 1e-9, None)  # a zero draw has no softplus preimage
        rho = np.log(np.expm1(mu))
        weights = BlockWeights(
            task_id=task_id,
            blocks=adapter.blocks,
            rho=ad.Parameter(f"task{task_id}.blockw", rho, trainable=True, tag="block-weight"),
        )
    return adapter, weights


def shared_delta(adapter: SharedAdapter, x: ad.Tensor, block: int, proj: str) -> ad.Tensor:
    """Delta of the shared adapter at (block, projection): ``(x B.T) A.T``."""
    return adapter.pair(block, proj).delta(x)


def specific_delta(
    adapter: SpecificAdapter,
    weights: BlockWeights | None,
    x: ad.Tensor,
    block: int,
    proj: str,
    mu: ad.Tensor | None = None,
) -> ad.Tensor:
    """Delta of a task adapter, scaled by that block's factor when present.

    ``mu`` may carry the precomputed softplus tensor for the whole block
    vector so one forward shares a single node; otherwise it is derived here.
    """
    pair = adapter.pair(block, proj)
    if weights is None:
        return pair.delta(x)
    if mu is None:
        mu = weights.mu_tensor()
    return pair.delta(x, mu=weights.mu_for_block(mu, block))


@dataclass
class ParamCount:
    shared: int
    specific_per_task: int
    block_weights_per_task: int
    num_tasks: int
    backbone: int

    @property
    def total(self) -> int:
        return self.shared + self.num_tasks * (
            self.specific_per_task + self.block_weights_per_task
        )

    @property
    def backbone_ratio(self) -> float:
        return self.total / self.backbone


def count_trainable_params(
    num_blocks: int,
    width: int,
    attach_count: int,
    rank: int,
    position_l: int,
    num_tasks: int,
    *,
    block_weights: bool = True,
    fixed_down: bool = True,
    flip_positions: bool = False,
    backbone_params: int | None = None,
    mlp_hidden: int | None = None,
    patch_dim: int | None = None,
) -> ParamCount:
    """Closed-form trainable-parameter accounting.

    One low-rank pair on a width-d projection costs rank*(d + d) trainable
    scalars when both matrices train; the shared adapter trains only its
    up-projections (rank*d each) unless ``fixed_down`` is false. Each specific
    block adds one block weight per task when enabled. The backbone total for
    the ratio defaults to the standard block closed form for this shape.
    """
    if rank < 1:
        raise InvalidRankError(f"rank must be >= 1, got {rank}")
    if not 0 <= position_l <= num_blocks:
        raise InvalidInputError(f"position must lie in [0, {num_blocks}], got {position_l}")
    if num_tasks < 0:
        raise InvalidInputError(f"num_tasks must be nonnegative, got {num_tasks}")
    d = width
    shared_blocks = num_blocks - position_l if flip_positions else position_l
    specific_blocks = num_blocks - shared_blocks
    per_shared_pair = rank * d + (0 if fixed_down else rank * d)
    shared = shared_blocks * attach_count * per_shared_pair
    specific = specific_blocks * attach_count * rank * (d + d)
    bw = specific_blocks if block_weights else 0
    if backbone_params is None:
        h = mlp_hidden if mlp_hidden is not None else 4 * d
        pd = patch_dim if patch_dim is not None else d
        backbone_params = pd * d + d + num_blocks * (4 * d * d + 2 * d * h + h + 9 * d) + 2 * d
    return ParamCount(
        shared=shared,
        specific_per_task=specific,
        block_weights_per_task=bw,
        num_tasks=num_tasks,
        backbone=backbone_params,
    )


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# Binary, little-endian:
#   magic "CLAD" | version u32 | kind u32 (0 shared, 1 specific)
#   task_id i64 (-1 for shared) | l u32 | N u32 | r u32 | d u32
#   attach count u32, then one ascii byte per projection
#   block count u32, then u32 block indices
#   per (block, projection) in ascending (block, q<k<v) order:
#       down matrix f64 row-major, then up matrix f64 row-major
#   has_block_weights u8; if 1, rho vector f64 (one per block)
#   frozen u8
#   sha256 of all preceding bytes (32 bytes)


def _payload(
    adapter: SharedAdapter | SpecificAdapter,
    weights: BlockWeights | None = None,
    l: int = 0,
    n: int = 0,
) -> bytes:
    shared = isinstance(adapter, SharedAdapter)
    out = bytearray(CHECKPOINT_MAGIC)
    out += struct.pack("<II", CHECKPOINT_VERSION, 0 if shared else 1)
    task_id = -1 if shared else adapter.task_id
    out += struct.pack("<qIIII", task_id, l, n, adapter.rank, adapter.width)
    out += struct.pack("<I", len(adapter.attach_set))
    out += "".join(adapter.attach_set).encode("ascii")
    out += struct.pack(f"<I{len(adapter.blocks)}I", len(adapter.blocks), *adapter.blocks)
    for key in ((i, p) for i in adapter.blocks for p in adapter.attach_set):
        out += adapter.pairs[key].down.value.astype("<f8").tobytes()
        out += adapter.pairs[key].up.value.astype("<f8").tobytes()
    out += struct.pack("<B", weights is not None)
    if weights is not None:
        out += weights.rho.value.astype("<f8").tobytes()
    out += struct.pack("<B", adapter.fixed_down if shared else adapter.frozen)
    return bytes(out)


def save_checkpoint(
    path,
    adapter: SharedAdapter | SpecificAdapter,
    weights: BlockWeights | None = None,
    *,
    position_l: int = 0,
    num_blocks: int = 0,
) -> str:
    """Write an adapter checkpoint; returns its content hash (hex)."""
    body = _payload(adapter, weights, position_l, num_blocks)
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as f:
        f.write(body + digest)
    return digest.hex()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise FormatError(f"truncated checkpoint: needed {n} bytes at offset {self.off}")
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path):
    """Read a checkpoint; returns (adapter, weights_or_None, header_dict)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 32:
        raise FormatError(f"truncated checkpoint: only {len(raw)} bytes")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError(f"content hash mismatch at offset {len(body)}")
    r = _Reader(body)
    magic = r.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r} at offset 0")
    version, kind = r.unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at offset 4")
    task_id, l, n, rank, d = r.unpack("<qIIII")
    (n_attach,) = r.unpack("<I")
    attach = tuple(r.take(n_attach).decode("ascii"))
    (n_blocks,) = r.unpack("<I")
    blocks = r.unpack(f"<{n_blocks}I") if n_blocks else ()
    header = {
        "kind": kind,
        "task_id": task_id,
        "position_l": l,
        "num_blocks": n,
        "rank": rank,
        "width": d,
        "attach_set": attach,
        "blocks": blocks,
    }
    if kind not in (0, 1):
        raise FormatError(f"unknown checkpoint kind {kind} at offset 8")
    shared = kind == 0
    name, tag = ("shared", "shared") if shared else (f"task{task_id}", "specific")

    def read(rows, cols):
        return np.frombuffer(r.take(rows * cols * 8), dtype="<f8").reshape(rows, cols).copy()

    pairs = {}
    for i in blocks:
        for p in attach:
            down, up = read(rank, d), read(d, rank)
            pairs[(i, p)] = LowRankPair(
                down=ad.Parameter(f"{name}.b{i}.{p}.down", down, not shared, f"{tag}-down"),
                up=ad.Parameter(f"{name}.b{i}.{p}.up", up, True, f"{tag}-up"),
            )
    (has_bw,) = r.unpack("<B")
    weights = None
    if has_bw:
        rho = read(1, len(blocks))[0]
        weights = BlockWeights(
            task_id, blocks, ad.Parameter(f"{name}.blockw", rho, True, "block-weight")
        )
    (flag,) = r.unpack("<B")  # shared: fixed down-projections; specific: frozen
    if shared:
        adapter = SharedAdapter(blocks, attach, rank, d, pairs, fixed_down=bool(flag))
        for pair in pairs.values():
            pair.down.trainable = not flag
        return adapter, weights, header
    adapter = SpecificAdapter(task_id, blocks, attach, rank, d, pairs)
    if flag:
        adapter.freeze()
        if weights is not None:
            weights.freeze()
    return adapter, weights, header
