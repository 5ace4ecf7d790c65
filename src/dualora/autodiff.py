"""Reverse-mode automatic differentiation over float64 numpy arrays.

A forward pass builds an implicit tape of :class:`Tensor` nodes. Each loss
term (``ce``, ``kd``, ``orth``) is a scalar node on that shared tape, and
:func:`backward_per_term` walks the tape once per term so the gradient of
each loss with respect to every trainable parameter is attributed exactly,
never approximated by differencing combined gradients.

Gradients are only computed along paths that reach a trainable leaf; frozen
parameters participate in the chain rule by value but never receive (or
trigger computation of) a stored gradient.

Token tensors are batched, ``(batch, tokens, features)``, and a CLS readout
is ``(batch, features)``; weight matrices are stored ``(in, out)`` and
applied on the right.

The tape holds leaves and fused nodes only. Each fused node is made with
:func:`node` and a hand-written backward, however many array operations it
runs: a transformer block's attention and MLP sublayers, the CLS readout,
each loss term with the classifier head inside it, and the softplus that
maps block-weight parameters to their positive scales. So a block costs two
nodes and a loss term one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DeterminismError, GraphError, InvalidInputError

LOSS_TERMS = ("ce", "kd", "orth")

PARAMETER_TAGS = (
    "shared-up",
    "shared-down",
    "specific-up",
    "specific-down",
    "block-weight",
    "head",
    "backbone",
)


@dataclass
class Parameter:
    """A named model weight with a training role tag.

    ``backbone`` weights are frozen by construction; attempting to mark one
    trainable is rejected. ``shared-down`` weights are frozen in the default
    architecture and only become trainable in the explicit ablation that
    replaces the fixed orthogonal down-projection with a learned one.
    """

    name: str
    value: np.ndarray
    trainable: bool
    tag: str

    def __post_init__(self):
        if self.tag not in PARAMETER_TAGS:
            raise InvalidInputError(f"unknown parameter tag {self.tag!r}")
        if self.tag == "backbone" and self.trainable:
            raise InvalidInputError(f"backbone parameter {self.name!r} cannot be trainable")
        self.value = np.ascontiguousarray(np.asarray(self.value, dtype=np.float64))

    @property
    def size(self) -> int:
        return self.value.size

    def byte_hash(self) -> str:
        import hashlib

        return hashlib.sha256(self.value.tobytes()).hexdigest()


class Tensor:
    """One node of the recorded computation."""

    __slots__ = ("value", "parents", "bwd", "requires_grad", "param")

    def __init__(self, value, parents=(), bwd=None, requires_grad=False, param=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.bwd = bwd
        self.requires_grad = requires_grad
        self.param = param

    @property
    def shape(self):
        return self.value.shape


def constant(x) -> Tensor:
    return Tensor(x)


def leaf(param: Parameter) -> Tensor:
    """Enter a parameter onto the tape; gradient flows only if trainable."""
    return Tensor(param.value, requires_grad=param.trainable, param=param)


def node(value, parents: Sequence[Tensor], bwd) -> Tensor:
    """A tape node with a hand-written backward.

    ``bwd(g, needs)`` receives the gradient of the node's value and one flag
    per parent telling whether that parent takes a gradient; it returns one
    gradient (or None) per parent. The node keeps its parents and ``bwd`` only
    when a gradient can reach it, so a forward with nothing trainable records
    no tape.
    """
    if any(p.requires_grad for p in parents):
        return Tensor(value, parents=tuple(parents), bwd=bwd, requires_grad=True)
    return Tensor(value)


def softplus(a: Tensor) -> Tensor:
    """``log(1 + exp(a))`` elementwise, as one node."""
    v = a.value
    out = np.logaddexp(0.0, v)
    with np.errstate(over="ignore"):  # exp(-v) is inf below v = -709; sig is then 0.0
        sig = 1.0 / (1.0 + np.exp(-v))

    def bwd(g, needs):
        return (g * sig if needs[0] else None,)

    return node(out, (a,), bwd)


def layer_norm_values(v: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-6):
    """Layer norm over the last axis on plain arrays.

    Returns the output and the normalized input and inverse deviation that
    :func:`layer_norm_input_grad` needs.
    """
    mu = v.mean(axis=-1, keepdims=True)
    xc = v - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_input_grad(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray):
    """Gradient of a layer norm's input, given the gradient ``g`` of its output."""
    gl = g * gain
    return inv * (
        gl - gl.mean(axis=-1, keepdims=True) - xhat * (gl * xhat).mean(axis=-1, keepdims=True)
    )


# ---------------------------------------------------------------------------
# backward traversal and per-term attribution
# ---------------------------------------------------------------------------


def _topo(root: Tensor) -> list[Tensor]:
    """Post-order over the gradient-carrying subgraph, iteratively."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> dict[str, np.ndarray]:
    """Gradients of a scalar node with respect to every trainable parameter.

    Returns a map from parameter name to gradient array. A parameter used at
    several tape positions accumulates across all of them.
    """
    if root.value.shape != ():
        raise GraphError(f"backward needs a scalar root, got shape {root.value.shape}")
    if not root.requires_grad:
        return {}
    grads: dict[int, np.ndarray] = {id(root): np.asarray(1.0)}
    out: dict[str, np.ndarray] = {}
    for node in reversed(_topo(root)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.param is not None:
            if g.shape != node.param.value.shape:
                raise GraphError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{node.param.name!r} of shape {node.param.value.shape}"
                )
            prev = out.get(node.param.name)
            out[node.param.name] = g if prev is None else prev + g
            continue
        if node.bwd is None:
            continue
        needs = tuple(p.requires_grad for p in node.parents)
        pgrads = node.bwd(g, needs)
        for p, pg in zip(node.parents, pgrads):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return out


@dataclass
class GradientBundle:
    """Per-loss-term gradients keyed by parameter name.

    Terms that were not computed this step are simply absent; :meth:`grad`
    reads them as exact zeros.
    """

    params: dict[str, Parameter]
    terms: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def grad(self, term: str, name: str) -> np.ndarray:
        if term not in LOSS_TERMS:
            raise GraphError(f"unknown loss term {term!r}")
        if name not in self.params:
            raise GraphError(f"unknown parameter {name!r}")
        g = self.terms.get(term, {}).get(name)
        if g is None:
            return np.zeros_like(self.params[name].value)
        return g


def backward_per_term(
    losses: Mapping[str, Tensor | None], params: Sequence[Parameter]
) -> GradientBundle:
    """Attribute gradients of each loss term separately on the shared tape."""
    by_name: dict[str, Parameter] = {}
    for p in params:
        if p.name in by_name:
            raise GraphError(f"duplicate parameter name {p.name!r}")
        by_name[p.name] = p
    bundle = GradientBundle(params=by_name)
    for term, loss in losses.items():
        if term not in LOSS_TERMS:
            raise GraphError(f"unknown loss term {term!r}")
        if loss is None:
            continue
        grads = backward(loss)
        for name in grads:
            if name not in by_name:
                raise GraphError(f"tape produced gradient for unknown parameter {name!r}")
        bundle.terms[term] = grads
    return bundle


@dataclass
class FiniteDifferenceReport:
    """Outcome of a central finite-difference gradient verification."""

    max_rel_error: float
    num_checked: int
    per_param: dict[str, float]


def finite_difference_check(
    forward: Callable[[], Mapping[str, Tensor | None]],
    params: Iterable[Parameter],
    step: float,
) -> dict[str, FiniteDifferenceReport]:
    """Compare analytic gradients of a closure's loss terms to central differences.

    The closure returns a mapping from term name to a scalar tensor or
    ``None`` (a term not computed). Every scalar of every trainable parameter
    is perturbed by +-step once, and every term is read from the same two
    forwards, so the closure runs ``2 + 2 * n`` times for ``n`` checked
    scalars however many terms it returns. Each term's value becomes a float
    right after its forward, so one tape is alive at a time. The relative
    error uses denominator max(|analytic|, |numeric|, 1e-8). Frozen
    parameters are skipped and excluded from the reported count. The closure
    is evaluated twice up front; a different value or a different set of
    present terms raises :class:`DeterminismError`. A perturbed scalar is put
    back even when the closure raises.

    Returns a dict of reports keyed by the terms that are not ``None``.
    """
    if step <= 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    first = forward()
    roots = _fd_terms(first)
    reference = _fd_values(first)
    again = _fd_values(forward())
    if again.keys() != reference.keys():
        raise DeterminismError(
            f"closure not deterministic: terms {list(reference)} vs {list(again)}"
        )
    for term, value in reference.items():
        if again[term] != value:
            raise DeterminismError(f"closure not deterministic: {value!r} vs {again[term]!r}")
    analytic = {term: backward(root) for term, root in roots.items()}
    del first, roots
    per_param: dict = {term: {} for term in analytic}
    worst = dict.fromkeys(analytic, 0.0)
    checked = 0
    for p in params:
        if not p.trainable:
            continue
        flat = p.value.reshape(-1)
        gflat = {t: g.get(p.name, np.zeros_like(p.value)).reshape(-1) for t, g in analytic.items()}
        p_worst = dict.fromkeys(analytic, 0.0)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + step
                f_plus = _fd_values(forward())
                flat[i] = orig - step
                f_minus = _fd_values(forward())
            finally:
                flat[i] = orig
            for term, g in gflat.items():
                numeric = (f_plus[term] - f_minus[term]) / (2.0 * step)
                denom = max(abs(g[i]), abs(numeric), 1e-8)
                p_worst[term] = max(p_worst[term], abs(g[i] - numeric) / denom)
            checked += 1
        for term, err in p_worst.items():
            per_param[term][p.name] = err
            worst[term] = max(worst[term], err)
    return {
        term: FiniteDifferenceReport(
            max_rel_error=worst[term], num_checked=checked, per_param=per_param[term]
        )
        for term in analytic
    }


def _fd_terms(out: Mapping[str, Tensor | None]) -> dict[str, Tensor]:
    """The present terms of a closure's result."""
    if not isinstance(out, Mapping):
        raise GraphError(f"the closure must return a mapping of terms, got {type(out).__name__}")
    roots = {term: root for term, root in out.items() if root is not None}
    if any(root.value.shape != () for root in roots.values()):
        raise GraphError("finite_difference_check needs scalar closure terms")
    return roots


def _fd_values(out: Mapping[str, Tensor | None]) -> dict[str, float]:
    return {term: float(root.value) for term, root in _fd_terms(out).items()}
