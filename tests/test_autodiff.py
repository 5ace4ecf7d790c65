import numpy as np
import pytest

from dualora import autodiff as ad
from dualora import numerics as nm
from dualora import trainer as tr
from dualora.errors import DeterminismError, GraphError, InvalidInputError

from conftest import project


def _param(name, value, trainable=True, tag="head"):
    return ad.Parameter(name, np.asarray(value, dtype=np.float64), trainable, tag)


class TestParameter:
    def test_backbone_never_trainable(self):
        with pytest.raises(InvalidInputError):
            _param("w", np.ones((2, 2)), trainable=True, tag="backbone")

    def test_unknown_tag(self):
        with pytest.raises(InvalidInputError):
            _param("w", np.ones(2), tag="mystery")

    def test_value_cast_to_float64(self):
        p = _param("w", np.ones((2, 2), dtype=np.float32))
        assert p.value.dtype == np.float64


def _product(a, b):
    """``a * b`` elementwise, as one node."""
    return ad.node(a.value * b.value, (a, b), lambda g, needs: (g * b.value, g * a.value))


def _matmul(a, b):
    """``a @ b`` for 2-D operands, as one node."""
    return ad.node(a.value @ b.value, (a, b), lambda g, needs: (g @ b.value.T, a.value.T @ g))


def _weighted_sum(parts):
    """``sum(w * t)`` over ``(tensor, weight)`` pairs of one shape, as one node."""
    value = sum(w * t.value for t, w in parts)
    parents = tuple(t for t, _ in parts)
    return ad.node(value, parents, lambda g, needs: tuple(g * w for _, w in parts))


class TestBackward:
    def test_quadratic_gradient_is_value(self):
        p = _param("p", [[1.0, -2.0], [0.5, 4.0]])
        t = ad.leaf(p)
        loss = project(_product(t, t), 0.5)
        grads = ad.backward(loss)
        assert np.allclose(grads["p"], p.value, atol=1e-14)

    def test_independent_parameter_gets_no_entry(self):
        p = _param("p", [1.0, 2.0])
        q = _param("q", [3.0])
        loss = project(_product(ad.leaf(p), ad.leaf(p)), 1.0)
        bundle = ad.backward_per_term({"ce": loss}, [p, q])
        assert not bundle.has_entry("ce", "q")
        assert np.array_equal(bundle.grad("ce", "q"), np.zeros(1))

    def test_frozen_leaf_gets_no_gradient(self):
        p = _param("p", [2.0], trainable=False)
        loss = project(_product(ad.leaf(p), ad.leaf(p)), 1.0)
        assert ad.backward(loss) == {}

    def test_reused_parameter_accumulates(self):
        p = _param("p", [3.0])
        loss = project(_weighted_sum([(ad.leaf(p), 1.0), (ad.leaf(p), 1.0)]), 1.0)
        grads = ad.backward(loss)
        assert np.array_equal(grads["p"], [2.0])

    def test_parents_run_after_every_consumer(self):
        # h feeds two nodes, one of them through a chain; its backward must
        # see the sum of both before passing a gradient on to p
        p = _param("p", [1.5, -0.5])
        h = _product(ad.leaf(p), ad.leaf(p))
        longer = _weighted_sum([(_weighted_sum([(h, 2.0)]), 3.0)])
        loss = project(_weighted_sum([(h, 1.0), (longer, 1.0)]), 1.0)
        grads = ad.backward(loss)
        assert np.array_equal(grads["p"], 7.0 * 2.0 * p.value)

    def test_non_scalar_root_rejected(self):
        p = _param("p", [1.0, 2.0])
        with pytest.raises(GraphError):
            ad.backward(ad.leaf(p))

    def test_unknown_term_rejected(self):
        p = _param("p", [1.0])
        loss = project(ad.leaf(p), 1.0)
        with pytest.raises(GraphError):
            ad.backward_per_term({"extra": loss}, [p])

    def test_duplicate_parameter_name_rejected(self):
        p1, p2 = _param("p", [1.0]), _param("p", [2.0])
        loss = project(ad.leaf(p1), 1.0)
        with pytest.raises(GraphError):
            ad.backward_per_term({"ce": loss}, [p1, p2])


class TestOpGradients:
    """Central finite differences as the oracle for softplus and the layer-norm
    helpers the fused nodes use."""

    def _check(self, build, params, tol=1e-6):
        rep = ad.finite_difference_check(build, params, step=1e-5)
        assert rep.max_rel_error <= tol, rep.per_param

    def test_layer_norm(self):
        rng = nm.make_rng(2)
        x = _param("x", rng.standard_normal((3, 6)))
        gain, bias = rng.uniform(0.5, 1.5, 6), rng.standard_normal(6)
        c = rng.standard_normal((3, 6))

        def closure():
            t = ad.leaf(x)
            out, xhat, inv = ad.layer_norm_values(t.value, gain, bias)
            normed = ad.node(
                out, (t,), lambda g, needs: (ad.layer_norm_input_grad(g, gain, xhat, inv),)
            )
            return project(normed, c)

        self._check(closure, [x], tol=1e-5)

    def test_softplus(self):
        rng = nm.make_rng(4)
        x = _param("x", rng.standard_normal(12) * 2)
        self._check(lambda: project(ad.softplus(ad.leaf(x)), 1.0), [x])

    def test_softplus_slope_far_below_zero_is_zero(self):
        v = np.array([-1000.0, -3.0, 0.0, 0.5, 40.0])
        x = _param("x", v)
        grads = ad.backward(project(ad.softplus(ad.leaf(x)), 1.0))  # any warning fails the test
        assert grads["x"][0] == 0.0
        assert np.array_equal(grads["x"][1:], 1.0 / (1.0 + np.exp(-v[1:])))


def _toy_terms(x, w1, w2, mu, frozen):
    """Three scalar terms on one tape: ce reaches w1 and w2, kd reaches w1
    only, and orth reaches mu only."""
    h1 = ad.softplus(_matmul(ad.constant(x), ad.leaf(w1)))
    logits = _matmul(h1, ad.leaf(w2))
    weights = np.linspace(-1.0, 1.0, logits.value.size).reshape(logits.shape)
    ce = project(ad.softplus(logits), weights)
    kd = project(_product(h1, h1), 1.0 / h1.value.size)
    orth = project(ad.softplus(_product(ad.leaf(mu), ad.leaf(frozen))), 1.0)
    return {"ce": ce, "kd": kd, "orth": orth}


class TestAttribution:
    def _toy_losses(self):
        rng = nm.make_rng(10)
        w1 = _param("w1", rng.standard_normal((3, 3)), tag="shared-up")
        w2 = _param("w2", rng.standard_normal((3, 2)), tag="specific-up")
        mu = _param("mu", rng.uniform(0.5, 1.5, 2), tag="block-weight")
        frozen = _param("f", np.array([1.0, 0.5]), trainable=False)
        x = rng.standard_normal((4, 3))
        return (w1, w2, mu), _toy_terms(x, w1, w2, mu, frozen)

    def test_additivity_of_bundles(self):
        params, losses = self._toy_losses()
        lam1, lam2 = 5.0, 1e-4
        total = _weighted_sum([(losses["ce"], 1.0), (losses["kd"], lam1), (losses["orth"], lam2)])
        combined = ad.backward(total)
        bundle = ad.backward_per_term(losses, list(params))
        for p in params:
            expected = (
                bundle.grad("ce", p.name)
                + lam1 * bundle.grad("kd", p.name)
                + lam2 * bundle.grad("orth", p.name)
            )
            assert np.abs(combined.get(p.name, np.zeros_like(p.value)) - expected).max() <= 1e-12

    def test_term_isolation(self):
        params, losses = self._toy_losses()
        w1, w2, mu = params
        bundle = ad.backward_per_term(losses, list(params))
        assert not bundle.has_entry("kd", w2.name)
        assert not bundle.has_entry("kd", mu.name)
        assert not bundle.has_entry("orth", w1.name)
        assert not bundle.has_entry("orth", w2.name)
        assert bundle.has_entry("orth", mu.name)

    def test_absent_term_reads_zero(self):
        params, losses = self._toy_losses()
        bundle = ad.backward_per_term({"ce": losses["ce"], "kd": None, "orth": None}, list(params))
        assert np.array_equal(bundle.grad("kd", params[0].name), np.zeros_like(params[0].value))


class TestFiniteDifferenceCheck:
    def test_linear_model_near_exact(self):
        w = _param("w", [0.7, -1.3, 2.0])
        x = np.array([1.5, 0.5, -2.0])
        rep = ad.finite_difference_check(lambda: project(ad.leaf(w), x), [w], step=1e-5)
        assert rep.max_rel_error <= 1e-10

    def test_softmax_cross_entropy_head(self):
        rng = nm.make_rng(20)
        head = tr.Head(_param("w", rng.standard_normal((4, 3))), _param("b", np.zeros(3)))
        x = rng.standard_normal((6, 4))
        labels = rng.integers(0, 3, 6)
        rep = ad.finite_difference_check(
            lambda: tr.local_ce_loss(x, head, labels), head.parameters(), step=1e-5
        )
        assert rep.max_rel_error <= 1e-6

    def test_frozen_parameter_skipped(self):
        w = _param("w", [1.0, 2.0])
        frozen = _param("f", [[3.0]], trainable=False)
        rep = ad.finite_difference_check(
            lambda: project(_product(ad.leaf(w), ad.leaf(w)), 1.0), [w, frozen], step=1e-5
        )
        assert rep.num_checked == 2
        assert "f" not in rep.per_param

    def test_nondeterministic_closure_detected(self):
        rng = nm.make_rng(21)
        w = _param("w", [1.0])

        def closure():
            return project(ad.leaf(w), rng.standard_normal(1))

        with pytest.raises(DeterminismError):
            ad.finite_difference_check(closure, [w])

    def test_bad_step_rejected(self):
        w = _param("w", [1.0])
        with pytest.raises(InvalidInputError):
            ad.finite_difference_check(lambda: project(ad.leaf(w), 1.0), [w], step=0.0)

    def test_check_leaves_parameters_bit_identical(self):
        rng = nm.make_rng(30)
        w = _param("w", rng.standard_normal((3, 3)))
        before = w.byte_hash()
        ad.finite_difference_check(
            lambda: project(ad.softplus(_product(ad.leaf(w), ad.leaf(w))), 1.0), [w], step=1e-5
        )
        assert w.byte_hash() == before

    def test_parameter_restored_when_closure_raises(self):
        w = _param("w", [1.0, 2.0])
        calls = []

        def closure():
            calls.append(w.value.copy())
            if len(calls) > 2:  # the two determinism calls pass, the first perturbed one fails
                raise RuntimeError("forward failed")
            return project(ad.leaf(w), 1.0)

        with pytest.raises(RuntimeError):
            ad.finite_difference_check(closure, [w], step=1e-3)
        assert np.array_equal(calls[-1], [1.001, 2.0])  # it did run perturbed
        assert np.array_equal(w.value, [1.0, 2.0])


def _three_term_closure():
    """Parameters and a closure returning three loss terms on one tape, plus
    a term that is not computed."""
    rng = nm.make_rng(40)
    w1 = _param("w1", rng.standard_normal((3, 3)), tag="shared-up")
    w2 = _param("w2", rng.standard_normal((3, 2)), tag="specific-up")
    mu = _param("mu", rng.uniform(0.5, 1.5, 2), tag="block-weight")
    frozen = _param("f", rng.standard_normal(2), trainable=False)
    x = rng.standard_normal((4, 3))

    def closure():
        return {**_toy_terms(x, w1, w2, mu, frozen), "unused": None}

    return [w1, w2, mu, frozen], closure


class TestOneSweepCheck:
    def test_each_term_bitwise_equal_to_its_own_scalar_check(self):
        params, closure = _three_term_closure()
        reports = ad.finite_difference_check(closure, params, step=1e-5)
        assert list(reports) == ["ce", "kd", "orth"]
        for term, rep in reports.items():
            alone = ad.finite_difference_check(lambda: closure()[term], params, step=1e-5)
            assert isinstance(alone, ad.FiniteDifferenceReport)
            assert repr(rep) == repr(alone), term
            assert rep.num_checked == 9 + 6 + 2
            assert rep.max_rel_error <= 1e-6

    def test_closure_runs_twice_per_checked_scalar_plus_two(self):
        params, closure = _three_term_closure()
        calls = []

        def counted():
            calls.append(None)
            return closure()

        reports = ad.finite_difference_check(counted, params, step=1e-5)
        assert len(calls) == 2 + 2 * reports["ce"].num_checked

    def test_term_present_in_one_up_front_call_only_detected(self):
        params, closure = _three_term_closure()
        calls = []

        def flaky():
            calls.append(None)
            out = closure()
            if len(calls) == 2:
                out["orth"] = None
            return out

        with pytest.raises(DeterminismError, match="terms"):
            ad.finite_difference_check(flaky, params)

    def test_parameter_restored_when_mapping_closure_raises(self):
        params, closure = _three_term_closure()
        w1 = params[0]
        before = w1.value.copy()
        calls = []

        def failing():
            calls.append(w1.value.copy())
            if len(calls) > 3:  # fails on the first scalar's minus forward
                raise RuntimeError("forward failed")
            return closure()

        with pytest.raises(RuntimeError):
            ad.finite_difference_check(failing, params, step=1e-3)
        assert calls[-1].reshape(-1)[0] == before.reshape(-1)[0] - 1e-3
        assert np.array_equal(w1.value, before)
