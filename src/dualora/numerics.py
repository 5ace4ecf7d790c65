"""Float64 matrix validation, orthogonal sampling, softmax and norm utilities.

Matrices throughout the package are 2-D ``numpy.float64`` arrays in row-major
order. Every function here is a pure function of its inputs and returns fully
finite values; non-finite results raise immediately rather than propagating.

Randomness always flows through an explicitly seeded ``numpy.random.Generator``
backed by PCG64 (see :func:`make_rng`), so a seed fully determines every draw
sequence on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, InvalidRankError, ShapeError

# Below this total mass the normalizer input is treated as degenerate and the
# neutral all-ones vector is returned instead of dividing by ~0.
DEGENERATE_SUM = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Create the package-wide deterministic generator (PCG64) for a seed."""
    return np.random.Generator(np.random.PCG64(seed))


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``m`` to a 2-D float64 array with finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def sample_orthogonal_rows(r: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Sample an r x k matrix with orthonormal rows.

    Draws an r x k matrix with i.i.d. standard-normal entries, factors it with
    a thin SVD M = U S Vt, and returns U @ Vt. The result satisfies
    B @ B.T == I_r to within 1e-6 in max-absolute-entry norm.
    """
    if r < 1 or k < 1:
        raise InvalidRankError(f"dimensions must be positive, got r={r}, k={k}")
    if r > k:
        raise InvalidRankError(f"cannot draw {r} orthonormal rows of length {k}")
    m = rng.standard_normal((r, k))
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    out = u @ vt
    if not np.isfinite(out).all():
        raise InvalidInputError("orthogonal sampling produced non-finite entries")
    return out


def softmax_temperature(logits, tau: float) -> np.ndarray:
    """Temperature-scaled softmax of each row of a 2-D batch of logits.

    Computed with max-subtraction so arbitrarily large logits cannot overflow.
    """
    if tau <= 0:
        raise InvalidInputError(f"temperature must be positive, got {tau}")
    z = as_matrix(logits, "logits")
    z = z / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def row_l2_norms(m) -> np.ndarray:
    """Per-row Euclidean norms of a matrix, as a 1-D vector."""
    a = as_matrix(m)
    return np.sqrt((a * a).sum(axis=1))


def dimension_preserving_normalize(w) -> np.ndarray:
    """Rescale a nonnegative vector so its entries sum to its length.

    For a length-d input the output is d * w / sum(w), so the mean entry is
    exactly 1. An all-zero (or sub-1e-12 total) input is degenerate and maps
    to the all-ones vector, which makes downstream rescaling a no-op.
    """
    v = np.asarray(w, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInputError("vector contains non-finite entries")
    if (v < 0).any():
        raise InvalidInputError("vector entries must be nonnegative")
    total = v.sum()
    if total < DEGENERATE_SUM:
        return np.ones_like(v)
    return v.size * v / total
