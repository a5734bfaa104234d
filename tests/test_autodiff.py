import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscity import autodiff as ad
from crosscity.autodiff import ShapeError, Tensor

import composed
from conftest import assert_grads_close


class TestForward:
    def test_matmul_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_matmul_hand_value(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_sigmoid_at_zero(self):
        assert composed.sigmoid(Tensor(0.0)).data == 0.5

    def test_tanh_at_zero(self):
        assert composed.tanh(Tensor(0.0)).data == 0.0

    def test_log_domain_error(self):
        with pytest.raises(ValueError, match="non-positive"):
            composed.log(Tensor([1.0, 0.0]))

    def test_concat_vectors(self):
        out = composed.concat(Tensor([1.0]), Tensor([2.0, 3.0]), axis=0)
        assert out.data.tolist() == [1.0, 2.0, 3.0]

    def test_concat_shape_arithmetic(self):
        out = composed.concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 5))), axis=1)
        assert out.shape == (2, 8)

    def test_concat_axis_out_of_range(self):
        with pytest.raises(ShapeError, match="axis"):
            composed.concat(Tensor([1.0]), Tensor([2.0]), axis=3)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Tensor(rng.standard_normal((4, 4)) * 50)
        for op in (composed.sigmoid, composed.tanh, composed.relu,
                   composed.softmax_rows, ad.absolute):
            assert np.isfinite(op(x).data).all()


class TestSoftmax:
    def test_uniform(self):
        out = composed.softmax_rows(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 1 / 3, atol=1e-15)

    def test_no_overflow(self):
        out = composed.softmax_rows(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        assert out.data[0] > 0.999999

    def test_sums_to_one(self, rng):
        for _ in range(10):
            out = composed.softmax_rows(Tensor(rng.standard_normal(7)))
            assert abs(out.data.sum() - 1.0) < 1e-12
            assert (out.data > 0).all()

    def test_shift_invariance(self, rng):
        x = rng.standard_normal(5)
        a = composed.softmax_rows(Tensor(x)).data
        b = composed.softmax_rows(Tensor(x + 123.456)).data
        assert np.allclose(a, b, atol=1e-9)


class TestGradReverse:
    def test_forward_identity(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        assert np.array_equal(composed.grad_reverse(x, 0.5).data, x.data)

    def test_backward_negates(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        ad.tsum(composed.grad_reverse(x, 1.0)).backward()
        assert x.grad.tolist() == [-1.0, -1.0]

    def test_factor_zero_annihilates(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        ad.tsum(composed.grad_reverse(x, 0.0)).backward()
        assert x.grad.tolist() == [0.0, 0.0]

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            composed.grad_reverse(Tensor([1.0]), -0.1)

    def test_matches_negated_identity_path(self, rng):
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 3)))
        factor = 0.7

        def grads(with_reversal):
            w.grad = None
            h = ad.matmul(x, w)
            if with_reversal:
                h = composed.grad_reverse(h, factor)
            ad.tsum(composed.sigmoid(h)).backward()
            return w.grad.copy()

        assert np.allclose(grads(True), -factor * grads(False), atol=1e-12)


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        composed.mul(x, x).backward()
        assert x.grad == 6.0

    def test_mean(self):
        x = Tensor([1.0, 5.0], requires_grad=True)
        ad.tmean(x).backward()
        assert x.grad.tolist() == [0.5, 0.5]

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_unused_parameter_has_no_grad(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(4.0, requires_grad=True)
        composed.mul(x, x).backward()
        assert y.grad is None  # callers treat missing grads as zero

    def test_matmul_constant_operand_gets_no_grad(self, rng):
        agg = Tensor(rng.standard_normal((3, 3)))
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        ad.tsum(ad.matmul(agg, x)).backward()
        assert agg.grad is None
        assert np.array_equal(x.grad, agg.data.T @ np.ones((3, 2)))

    def test_accumulation_on_fanout(self):
        x = Tensor(2.0, requires_grad=True)
        ad.add(composed.mul(x, x), composed.mul(x, x)).backward()  # d/dx 2x^2 = 4x
        assert x.grad == 8.0

    def test_concat_backward_splits_ones(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        ad.tsum(composed.concat(a, b, axis=1)).backward()
        assert np.array_equal(a.grad, np.ones((2, 2)))
        assert np.array_equal(b.grad, np.ones((2, 3)))

    def test_matmul_grad_vs_finite_diff(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        assert_grads_close(lambda: ad.tsum(ad.matmul(a, b)), {"a": a, "b": b},
                           rel_tol=1e-6)

    def test_sigmoid_derivative_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        composed.sigmoid(x).backward()
        assert abs(x.grad - 0.25) < 1e-12
        assert_grads_close(lambda: composed.sigmoid(x), {"x": x})

    @pytest.mark.parametrize("op", [composed.sigmoid, composed.tanh,
                                    composed.relu, ad.absolute,
                                    composed.softmax_rows])
    def test_elementwise_grads_vs_finite_diff(self, op, rng):
        # 10 random points per op, rel err < 1e-4 against central differences
        for _ in range(10):
            x = Tensor(rng.standard_normal(6) + 0.05, requires_grad=True)
            assert_grads_close(lambda: ad.tmean(op(x)), {"x": x})

    def test_log_and_clamp_grads(self, rng):
        x = Tensor(rng.random(5) + 0.5, requires_grad=True)
        assert_grads_close(lambda: ad.tsum(composed.log(x)), {"x": x})
        assert_grads_close(lambda: ad.tsum(composed.clamp_min(x, 0.9)), {"x": x})

    def test_structured_op_grads(self, rng):
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def loss():
            h = ad.add_rowvec(composed.transpose(composed.transpose(w)), b)
            return ad.tmean(ad.gather_rows(h, [0, 2, 2, 1]))

        assert_grads_close(loss, {"w": w, "b": b})


class TestDeterminism:
    def test_replay_determinism(self, rng):
        w_init = rng.standard_normal((5, 5))
        x_init = rng.standard_normal((3, 5))

        def run():
            w = Tensor(w_init.copy(), requires_grad=True)
            x = Tensor(x_init.copy())
            loss = ad.tmean(composed.tanh(ad.matmul(x, w)))
            loss.backward()
            return float(loss.data), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_normalization_property(vals):
    out = composed.softmax_rows(Tensor(np.array(vals)))
    assert abs(out.data.sum() - 1.0) < 1e-12
    shifted = composed.softmax_rows(Tensor(np.array(vals) + 7.25))
    assert np.allclose(out.data, shifted.data, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0))
def test_grad_reverse_scaling_property(seed, factor):
    r = np.random.default_rng(seed)
    w = Tensor(r.standard_normal((2, 2)), requires_grad=True)
    x = Tensor(r.standard_normal((2, 2)))

    def grad(rev):
        w.grad = None
        h = ad.matmul(x, w)
        h = composed.grad_reverse(h, factor) if rev else h
        ad.tsum(composed.tanh(h)).backward()
        return w.grad.copy()

    assert np.allclose(grad(True), -factor * grad(False), atol=1e-12)
