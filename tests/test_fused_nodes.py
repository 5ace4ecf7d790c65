"""Property tests of the fused loss and readout nodes.

Each node is checked two ways over drawn shapes: its gradients against
central differences, and its value and per-parent gradients bit for bit
against a plain-numpy evaluation of the op-by-op chain it replaced. Those
chains are kept below as references: every op's forward, then every op's
backward from the root gradient 1.0, in tape order.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dualora import autodiff as ad
from dualora import backbone as bb
from dualora import trainer as tr

from conftest import project

ONE = np.asarray(1.0)  # the root gradient ``backward`` starts from


# ---------------------------------------------------------------------------
# the op chains the nodes replaced, in plain numpy
# ---------------------------------------------------------------------------


def _chain_log_softmax(v):
    z = v - v.max(axis=-1, keepdims=True)
    ls = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return ls, np.exp(ls)


def _chain_head_backward(g, x, W):
    """matmul then add of ``x @ W + b``, backward: add passes ``g`` on and sums
    it down to ``b``'s shape; matmul forms both products."""
    gb = g.sum(axis=(0,))
    gx = g @ W.T
    gW = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return gx, gW, gb


def chain_ce(x, W, b, labels):
    """matmul, add, log_softmax_last, gather_labels, sum_all, scale(1/n), neg."""
    n = len(labels)
    rows = np.arange(n)
    ls, y = _chain_log_softmax(x @ W + b)
    value = ls[rows, labels].sum() * float(1.0 / n) * -1.0
    g = ONE * -1.0  # neg
    g = g * float(1.0 / n)  # scale
    g = np.broadcast_to(g, (n,)).copy()  # sum_all
    gp = np.zeros_like(ls)  # gather_labels
    gp[rows, labels] = g
    gl = gp - y * gp.sum(axis=-1, keepdims=True)  # log_softmax_last
    return value, _chain_head_backward(gl, x, W)


def chain_kd(x, W, b, target, tau):
    """matmul, add, scale(1/tau), log_softmax_last, mul by the constant target,
    sum_last, sum_all, scale(1/n), neg."""
    c = float(1.0 / tau)
    ls, y = _chain_log_softmax((x @ W + b) * c)
    per_sample = (target * ls).sum(axis=-1)
    n = per_sample.size
    value = per_sample.sum() * float(1.0 / n) * -1.0
    g = ONE * -1.0 * float(1.0 / n)  # neg, scale
    g = np.broadcast_to(g, per_sample.shape).copy()  # sum_all
    g = np.broadcast_to(g[..., None], ls.shape).copy()  # sum_last
    g = g * target  # mul
    g = g - y * g.sum(axis=-1, keepdims=True)  # log_softmax_last
    g = g * c  # scale
    return value, _chain_head_backward(g, x, W)


def chain_orth(mu, previous):
    """Per earlier vector: mul, sum_all, abs_, add onto a running total that
    starts at the constant 0.0. The tape accumulated mu's gradient in the
    order of ``previous``."""
    total = np.asarray(0.0)
    g_mu = None
    for prev in previous:
        dot = np.asarray((mu * prev).sum())
        total = total + np.abs(dot)
        g = np.broadcast_to(ONE * np.sign(dot), mu.shape).copy() * prev
        g_mu = g if g_mu is None else g_mu + g
    return total, g_mu


def chain_readout(tokens, gain, bias, g):
    """layer_norm over every token, then take_row(0); ``g`` is the CLS rows'
    gradient."""
    out, xhat, inv = ad.layer_norm_values(tokens, gain, bias)
    g_full = np.zeros_like(out)
    g_full[..., 0, :] = g
    return out[..., 0, :], ad.layer_norm_input_grad(g_full, gain, xhat, inv)


# ---------------------------------------------------------------------------
# drawn cases
# ---------------------------------------------------------------------------


@st.composite
def head_cases(draw):
    """A CLS batch, a head, local labels, a temperature and a soft target."""
    batch = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 5))
    width = draw(st.integers(2, 8))
    tau = draw(st.floats(0.5, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = ad.Parameter("x", rng.standard_normal((batch, width)), True, "shared-up")
    head = tr.Head(
        ad.Parameter("W", rng.standard_normal((width, classes)), True, "head"),
        ad.Parameter("b", rng.standard_normal(classes), True, "head"),
    )
    labels = rng.integers(0, classes, batch)
    target = rng.dirichlet(np.ones(classes), batch)
    return x, head, labels, tau, target


@st.composite
def orth_cases(draw):
    """A block-weight vector and 0-3 earlier ones; with any earlier vector,
    one of them is orthogonal to mu, so its overlap's sign is 0."""
    width = draw(st.integers(2, 8))
    count = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = ad.Parameter("mu", np.logaddexp(0.0, rng.standard_normal(width)), True, "block-weight")
    previous = [np.logaddexp(0.0, rng.standard_normal(width)) for _ in range(count)]
    if previous:
        # mu0 * mu1 + mu1 * (-mu0) is exactly 0.0
        orthogonal = np.zeros(width)
        orthogonal[:2] = mu.value[1], -mu.value[0]
        previous[draw(st.integers(0, count - 1))] = orthogonal
    return mu, previous


@st.composite
def readout_cases(draw):
    """A token state (one token or several) and a final layer norm with a
    positive gain, as the frozen backbone's is."""
    batch = draw(st.integers(1, 4))
    tokens = draw(st.sampled_from([1, 2, 5]))
    width = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = bb.BackboneConfig(num_blocks=1, width=width, heads=1, image_side=2, patch_side=1)
    backbone = bb.init_backbone(cfg, rng)
    backbone.params["lnf.g"][:] = rng.uniform(0.5, 1.5, width)
    backbone.params["lnf.b"][:] = rng.standard_normal(width)
    x = ad.Parameter("x", rng.standard_normal((batch, tokens, width)), True, "shared-up")
    c = rng.standard_normal((batch, width))
    return backbone, x, c


def assert_central_differences(build, params, step=1e-6):
    """Every trainable scalar's gradient against ``(f(+step) - f(-step)) / 2 step``.

    The tolerance has an absolute part: the overlap penalty has a kink where
    an overlap is 0, and there a central difference is rounding error only.
    """
    analytic = ad.backward(build())
    for p in params:
        flat = p.value.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + step
                f_plus = float(build().value)
                flat[i] = orig - step
                f_minus = float(build().value)
            finally:
                flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * step)
        got = analytic.get(p.name, np.zeros_like(p.value)).reshape(-1)
        np.testing.assert_allclose(got, numeric, rtol=1e-5, atol=1e-8, err_msg=p.name)


# ---------------------------------------------------------------------------
# central differences
# ---------------------------------------------------------------------------


class TestCentralDifferences:
    @given(head_cases())
    def test_ce(self, case):
        x, head, labels, _, _ = case
        assert_central_differences(
            lambda: tr.local_ce_loss(ad.leaf(x), head, labels), [x, *head.parameters()]
        )

    @given(head_cases())
    def test_kd(self, case):
        x, head, _, tau, target = case
        assert_central_differences(
            lambda: tr.kd_loss(ad.leaf(x), target, head, tau),
            [x, *head.parameters()],
        )

    @given(orth_cases())
    def test_orth(self, case):
        mu, previous = case
        assert_central_differences(lambda: tr.orth_loss(ad.leaf(mu), previous), [mu])

    @given(readout_cases())
    def test_readout(self, case):
        backbone, x, c = case
        state = lambda: bb.TokenState(ad.leaf(x), 1)  # noqa: E731
        assert_central_differences(lambda: project(bb.extract_cls(backbone, state()), c), [x])


# ---------------------------------------------------------------------------
# bit for bit against the replaced chains
# ---------------------------------------------------------------------------


def _assert_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestBitwiseAgainstReplacedChain:
    @given(head_cases())
    def test_ce(self, case):
        x, head, labels, _, _ = case
        loss = tr.local_ce_loss(ad.leaf(x), head, labels)
        value, grads = chain_ce(x.value, head.W.value, head.b.value, labels)
        assert np.array_equal(loss.value, value)
        _assert_equal(loss.bwd(ONE, (True, True, True)), grads)

    @given(head_cases())
    def test_kd(self, case):
        x, head, _, tau, target = case
        loss = tr.kd_loss(ad.leaf(x), target, head, tau)
        value, grads = chain_kd(x.value, head.W.value, head.b.value, target, tau)
        assert np.array_equal(loss.value, value)
        _assert_equal(loss.bwd(ONE, (True, True, True)), grads)

    @given(orth_cases().filter(lambda case: case[1]))
    def test_orth(self, case):
        mu, previous = case
        loss = tr.orth_loss(ad.leaf(mu), previous)
        value, g_mu = chain_orth(mu.value, previous)
        assert np.array_equal(loss.value, value)
        _assert_equal(loss.bwd(ONE, (True,)), [g_mu])

    @given(readout_cases())
    def test_readout(self, case):
        backbone, x, c = case
        cls = bb.extract_cls(backbone, bb.TokenState(ad.leaf(x), 1))
        gain, bias = backbone.params["lnf.g"], backbone.params["lnf.b"]
        value, g_x = chain_readout(x.value, gain, bias, c)
        assert np.array_equal(cls.value, value)
        _assert_equal(cls.bwd(c, (True,)), [g_x])

    def test_orth_gradient_sums_in_the_order_of_previous(self):
        # three overlaps, all positive, whose gradient terms round differently
        # when summed first to last and last to first
        mu = ad.Parameter("mu", np.array([0.5, 0.5]), True, "block-weight")
        previous = [np.array([1.0, 3.0]), np.array([2.0**-53, 1.0]), np.array([2.0**-53, 0.5])]
        backwards = previous[2] + previous[1] + previous[0]
        forwards = previous[0] + previous[1] + previous[2]
        assert not np.array_equal(backwards, forwards)  # the data tells the orders apart
        (g_mu,) = tr.orth_loss(ad.leaf(mu), previous).bwd(ONE, (True,))
        assert np.array_equal(g_mu, chain_orth(mu.value, previous)[1])
        assert np.array_equal(g_mu, forwards)

