import numpy as np
import pytest

from dualora import autodiff as ad
from dualora import numerics as nm
from dualora.errors import DeterminismError, GraphError, InvalidInputError


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


class TestBackward:
    def test_quadratic_gradient_is_value(self):
        p = _param("p", [[1.0, -2.0], [0.5, 4.0]])
        t = ad.leaf(p)
        loss = ad.scale(ad.sum_all(ad.mul(t, t)), 0.5)
        grads = ad.backward(loss)
        assert np.allclose(grads["p"], p.value, atol=1e-14)

    def test_independent_parameter_gets_no_entry(self):
        p = _param("p", [1.0, 2.0])
        q = _param("q", [3.0])
        loss = ad.sum_all(ad.mul(ad.leaf(p), ad.leaf(p)))
        bundle = ad.backward_per_term({"ce": loss}, [p, q])
        assert not bundle.has_entry("ce", "q")
        assert np.array_equal(bundle.grad("ce", "q"), np.zeros(1))

    def test_frozen_leaf_gets_no_gradient(self):
        p = _param("p", [2.0], trainable=False)
        loss = ad.sum_all(ad.mul(ad.leaf(p), ad.leaf(p)))
        assert ad.backward(loss) == {}

    def test_reused_parameter_accumulates(self):
        p = _param("p", [3.0])
        loss = ad.sum_all(ad.add(ad.leaf(p), ad.leaf(p)))
        grads = ad.backward(loss)
        assert np.array_equal(grads["p"], [2.0])

    def test_non_scalar_root_rejected(self):
        p = _param("p", [1.0, 2.0])
        with pytest.raises(GraphError):
            ad.backward(ad.leaf(p))

    def test_unknown_term_rejected(self):
        p = _param("p", [1.0])
        loss = ad.sum_all(ad.leaf(p))
        with pytest.raises(GraphError):
            ad.backward_per_term({"extra": loss}, [p])

    def test_duplicate_parameter_name_rejected(self):
        p1, p2 = _param("p", [1.0]), _param("p", [2.0])
        loss = ad.sum_all(ad.leaf(p1))
        with pytest.raises(GraphError):
            ad.backward_per_term({"ce": loss}, [p1, p2])


class TestOpGradients:
    """Central finite differences as the oracle for each primitive."""

    def _check(self, build, params, tol=1e-6):
        rep = ad.finite_difference_check(build, params, step=1e-5)
        assert rep.max_rel_error <= tol, rep.per_param

    def test_matmul_weight(self):
        rng = nm.make_rng(0)
        w = _param("w", rng.standard_normal((4, 3)))
        x = rng.standard_normal((2, 5, 4))
        self._check(lambda: ad.sum_all(ad.mul(t := ad.matmul(ad.constant(x), ad.leaf(w)), t)), [w])

    def test_layer_norm(self):
        rng = nm.make_rng(2)
        x = _param("x", rng.standard_normal((3, 6)))
        g = _param("g", rng.uniform(0.5, 1.5, 6))
        b = _param("b", rng.standard_normal(6))
        self._check(
            lambda: ad.sum_all(
                ad.mul(t := ad.layer_norm(ad.leaf(x), ad.leaf(g), ad.leaf(b)), t)
            ),
            [x, g, b],
            tol=1e-5,
        )

    def test_log_softmax(self):
        rng = nm.make_rng(3)
        x = _param("x", rng.standard_normal((4, 5)))
        c = rng.uniform(0.2, 1.0, (4, 5))
        self._check(
            lambda: ad.sum_all(ad.mul(ad.constant(c), ad.log_softmax_last(ad.leaf(x)))), [x]
        )

    def test_softplus_abs(self):
        rng = nm.make_rng(4)
        x = _param("x", rng.standard_normal(12) * 2)
        self._check(lambda: ad.sum_all(ad.softplus(ad.leaf(x))), [x])
        self._check(lambda: ad.sum_all(ad.abs_(ad.leaf(x))), [x])

    def test_softplus_slope_far_below_zero_is_zero(self):
        v = np.array([-1000.0, -3.0, 0.0, 0.5, 40.0])
        x = _param("x", v)
        grads = ad.backward(ad.sum_all(ad.softplus(ad.leaf(x))))  # any warning fails the test
        assert grads["x"][0] == 0.0
        assert np.array_equal(grads["x"][1:], 1.0 / (1.0 + np.exp(-v[1:])))

    def test_row_selection(self):
        rng = nm.make_rng(6)
        x = _param("x", rng.standard_normal((3, 5, 4)))
        self._check(lambda: ad.sum_all(ad.take_row(ad.leaf(x), 0)), [x])

    def test_gather_labels(self):
        rng = nm.make_rng(7)
        x = _param("x", rng.standard_normal((4, 3)))
        labels = np.array([0, 2, 1, 2])
        self._check(
            lambda: ad.mean_all(ad.gather_labels(ad.log_softmax_last(ad.leaf(x)), labels)), [x]
        )

    def test_broadcast_add_and_mul(self):
        rng = nm.make_rng(8)
        b = _param("b", rng.standard_normal(4))
        s = _param("s", rng.standard_normal(()))
        x = rng.standard_normal((3, 5, 4))
        self._check(lambda: ad.sum_all(ad.add(ad.constant(x), ad.leaf(b))), [b])
        self._check(lambda: ad.sum_all(ad.mul(ad.leaf(s), ad.constant(x))), [s])


class TestAttribution:
    def _toy_losses(self):
        rng = nm.make_rng(10)
        self_w1 = _param("w1", rng.standard_normal((3, 3)), tag="shared-up")
        self_w2 = _param("w2", rng.standard_normal((3, 2)), tag="specific-up")
        self_mu = _param("mu", rng.uniform(0.5, 1.5, 2), tag="block-weight")
        x = ad.constant(rng.standard_normal((4, 3)))
        h1 = ad.softplus(ad.matmul(x, ad.leaf(self_w1)))
        logits = ad.matmul(h1, ad.leaf(self_w2))
        ce = ad.neg(ad.mean_all(ad.gather_labels(ad.log_softmax_last(logits), np.array([0, 1, 0, 1]))))
        kd = ad.mean_all(ad.mul(h1, h1))  # touches w1 only
        orth = ad.abs_(ad.sum_all(ad.mul(ad.leaf(self_mu), ad.constant(np.array([1.0, 0.5])))))
        return (self_w1, self_w2, self_mu), {"ce": ce, "kd": kd, "orth": orth}

    def test_additivity_of_bundles(self):
        params, losses = self._toy_losses()
        lam1, lam2 = 5.0, 1e-4
        total = ad.add(
            ad.add(losses["ce"], ad.scale(losses["kd"], lam1)),
            ad.scale(losses["orth"], lam2),
        )
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
        rep = ad.finite_difference_check(
            lambda: ad.sum_all(ad.mul(ad.leaf(w), ad.constant(x))), [w], step=1e-5
        )
        assert rep.max_rel_error <= 1e-10

    def test_softmax_cross_entropy_head(self):
        rng = nm.make_rng(20)
        w = _param("w", rng.standard_normal((4, 3)))
        x = rng.standard_normal((6, 4))
        labels = rng.integers(0, 3, 6)

        def closure():
            logits = ad.matmul(ad.constant(x), ad.leaf(w))
            return ad.neg(ad.mean_all(ad.gather_labels(ad.log_softmax_last(logits), labels)))

        rep = ad.finite_difference_check(closure, [w], step=1e-5)
        assert rep.max_rel_error <= 1e-6

    def test_frozen_parameter_skipped(self):
        w = _param("w", [1.0, 2.0])
        frozen = _param("f", [[3.0]], trainable=False)
        rep = ad.finite_difference_check(
            lambda: ad.sum_all(ad.mul(ad.leaf(w), ad.leaf(w))), [w, frozen], step=1e-5
        )
        assert rep.num_checked == 2
        assert "f" not in rep.per_param

    def test_nondeterministic_closure_detected(self):
        rng = nm.make_rng(21)
        w = _param("w", [1.0])

        def closure():
            return ad.sum_all(ad.mul(ad.leaf(w), ad.constant(rng.standard_normal(1))))

        with pytest.raises(DeterminismError):
            ad.finite_difference_check(closure, [w])

    def test_bad_step_rejected(self):
        w = _param("w", [1.0])
        with pytest.raises(InvalidInputError):
            ad.finite_difference_check(lambda: ad.sum_all(ad.leaf(w)), [w], step=0.0)

    def test_check_leaves_parameters_bit_identical(self):
        rng = nm.make_rng(30)
        w = _param("w", rng.standard_normal((3, 3)))
        before = w.byte_hash()
        ad.finite_difference_check(
            lambda: ad.sum_all(ad.softplus(ad.mul(ad.leaf(w), ad.leaf(w)))), [w], step=1e-5
        )
        assert w.byte_hash() == before

    def test_parameter_restored_when_closure_raises(self):
        w = _param("w", [1.0, 2.0])
        calls = []

        def closure():
            calls.append(w.value.copy())
            if len(calls) > 2:  # the two determinism calls pass, the first perturbed one fails
                raise RuntimeError("forward failed")
            return ad.sum_all(ad.leaf(w))

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
    labels = np.array([0, 1, 0, 1])

    def closure():
        h1 = ad.softplus(ad.matmul(ad.constant(x), ad.leaf(w1)))
        logits = ad.matmul(h1, ad.leaf(w2))
        ce = ad.neg(ad.mean_all(ad.gather_labels(ad.log_softmax_last(logits), labels)))
        kd = ad.mean_all(ad.mul(h1, h1))
        orth = ad.sum_all(ad.softplus(ad.mul(ad.leaf(mu), ad.leaf(frozen))))
        return {"ce": ce, "kd": kd, "orth": orth, "unused": None}

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
