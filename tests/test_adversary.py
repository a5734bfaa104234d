import numpy as np
import pytest

from crosscity import autodiff as ad
from crosscity.adversary import (DomainClassifier, adaptation_factor,
                                 adversarial_loss)
from crosscity.autodiff import Tensor

import composed
from conftest import assert_grads_close


def zeroed_classifier(in_dim=4, n_domains=3):
    clf = DomainClassifier(in_dim, n_domains, 32, np.random.default_rng(0))
    for p in clf.params().values():
        p.data = np.zeros_like(p.data)
    return clf


class TestClassify:
    def test_zero_weights_give_uniform(self, rng):
        clf = zeroed_classifier(n_domains=3)
        probs = composed.classify(clf, rng.standard_normal((5, 4)))
        assert np.allclose(probs.data, 1 / 3, atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        clf = DomainClassifier(4, 3, 32, rng)
        probs = composed.classify(clf, rng.standard_normal((6, 4)))
        assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)
        assert (probs.data > 0).all()

    def test_argmax_shift_stable(self, rng):
        clf = DomainClassifier(4, 3, 32, rng)
        x = rng.standard_normal((5, 4))
        base = composed.classify(clf, x).data.argmax(axis=1)
        clf.b2.data = clf.b2.data + 42.0  # constant shift of all logits
        assert np.array_equal(composed.classify(clf, x).data.argmax(axis=1), base)


class TestAdversarialLoss:
    def test_uniform_predictions_give_ln_domains_each(self, rng):
        clf = zeroed_classifier(n_domains=3)
        groups = [(Tensor(rng.standard_normal((4, 4))), d) for d in range(3)]
        loss = adversarial_loss(clf, groups)
        assert abs(float(loss.data) - 3 * np.log(3)) < 1e-12

    def test_hand_value_two_domains(self):
        # predictions [0.9, 0.1] on true 0 and [0.4, 0.6] on true 1;
        # identity layers with a large hidden bias keep the relu linear and
        # the softmax shift-invariance cancels the bias again
        clf = DomainClassifier(2, 2, hidden_dim=2, rng=np.random.default_rng(0))
        clf.w1.data = np.eye(2)
        clf.b1.data = np.full(2, 10.0)
        clf.w2.data = np.eye(2)
        clf.b2.data = np.zeros(2)
        x0 = np.log([[0.9, 0.1]])
        x1 = np.log([[0.4, 0.6]])
        loss = adversarial_loss(clf, [(Tensor(x0), 0), (Tensor(x1), 1)])
        assert abs(float(loss.data) - (-np.log(0.9) - np.log(0.6))) < 1e-12

    def test_empty_group_rejected(self):
        clf = zeroed_classifier()
        with pytest.raises(ValueError, match="empty group"):
            adversarial_loss(clf, [(Tensor(np.zeros((0, 4))), 0)])
        with pytest.raises(ValueError, match="no domain groups"):
            adversarial_loss(clf, [])

    def test_nonnegative(self, rng):
        clf = DomainClassifier(4, 3, 32, rng)
        groups = [(Tensor(rng.standard_normal((3, 4))), d) for d in range(3)]
        assert float(adversarial_loss(clf, groups).data) >= 0.0

    def test_classifier_gradient_is_plain_cross_entropy(self, rng):
        # reversal sits before the classifier: theta_d grads identical with
        # and without grad_reverse on the embeddings
        clf = DomainClassifier(4, 2, 32, rng)
        emb = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def clf_grads(factor):
            for p in clf.params().values():
                p.grad = None
            adversarial_loss(clf, [(emb, 0)], reversal_factor=factor).backward()
            return {k: p.grad.copy() for k, p in clf.params().items()}

        with_rev = clf_grads(0.75)
        without = clf_grads(None)
        for k in with_rev:
            assert np.allclose(with_rev[k], without[k], atol=1e-12)

    def test_embedding_gradient_is_scaled_negation(self, rng):
        clf = DomainClassifier(4, 2, 32, rng)
        emb = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        for factor in (0.0, 0.5, 0.9866):
            emb.grad = None
            adversarial_loss(clf, [(emb, 0)], reversal_factor=factor).backward()
            reversed_g = emb.grad.copy() if emb.grad is not None else 0
            emb.grad = None
            adversarial_loss(clf, [(emb, 0)]).backward()
            plain_g = emb.grad.copy()
            assert np.allclose(reversed_g, -factor * plain_g, atol=1e-9)

    def test_loss_gradient_vs_finite_diff(self, rng):
        clf = DomainClassifier(3, 2, 32, rng)
        groups = [(Tensor(rng.standard_normal((3, 3))), 0),
                  (Tensor(rng.standard_normal((2, 3))), 1)]
        assert_grads_close(lambda: adversarial_loss(clf, groups), clf.params())


def assert_head_equals_composed(clf, groups, factor, upstream=1.0):
    """The value and every gradient (classifier, then each group's
    embeddings) of upstream * loss equal the composed ops' bit for bit."""
    tensors = {**clf.params(),
               **{f"group{i}": emb for i, (emb, _) in enumerate(groups)}}
    runs = []
    for loss_fn in (adversarial_loss, composed.adversarial_loss):
        for t in tensors.values():
            t.grad = None
        loss = loss_fn(clf, groups, reversal_factor=factor)
        ad.scale(loss, upstream).backward()
        runs.append((loss.data, {k: t.grad for k, t in tensors.items()}))
    (got, got_g), (want, want_g) = runs
    assert np.array_equal(got, want)
    for k, g in want_g.items():
        assert got_g[k] is None if g is None else np.array_equal(got_g[k], g), k


class TestFusedHead:
    @pytest.mark.parametrize("n_groups", [1, 2, 3, 4])
    @pytest.mark.parametrize("factor", [None, 0.0, 0.5, 0.9866])
    def test_equals_composed_exactly(self, n_groups, factor, rng):
        clf = DomainClassifier(5, 4, 7, rng)
        clf.b1.data = rng.standard_normal(7) * 0.3
        clf.b2.data = rng.standard_normal(4)
        # group 1 is a single row; groups 1 and 3 need no gradient
        sizes = (6, 1, 4, 5)[:n_groups]
        groups = [(Tensor(rng.standard_normal((n, 5)) * 2.0,
                          requires_grad=i % 2 == 0), i)
                  for i, n in enumerate(sizes)]
        assert_head_equals_composed(clf, groups, factor, upstream=0.75)

    def test_saturated_probabilities_equal_composed(self, rng):
        # logits far apart push probabilities under LOG_FLOOR, where the
        # clamp cuts the gradient
        clf = DomainClassifier(3, 3, 4, rng)
        clf.w2.data = clf.w2.data * 400.0
        groups = [(Tensor(rng.standard_normal((5, 3)), requires_grad=True), d)
                  for d in range(3)]
        assert_head_equals_composed(clf, groups, 0.5)

    def test_negative_factor_rejected(self, rng):
        clf = DomainClassifier(4, 2, 8, rng)
        groups = [(Tensor(rng.standard_normal((3, 4)), requires_grad=True), 0)]
        with pytest.raises(ValueError, match="reversal_factor"):
            adversarial_loss(clf, groups, reversal_factor=-0.1)


class TestAdaptationFactor:
    def test_zero_at_start(self):
        assert adaptation_factor(0.0, 10.0) == 0.0

    def test_endpoint_value(self):
        assert abs(adaptation_factor(1.0, 10.0) - 0.999909) < 1e-4
        assert abs(adaptation_factor(1.0, 10.0) - (2 / (1 + np.exp(-10)) - 1)) < 1e-15

    def test_midpoint_value(self):
        assert abs(adaptation_factor(0.5, 10.0) - 0.986614) < 1e-6

    def test_monotone_and_bounded(self):
        grid = np.linspace(0, 1, 1000)
        vals = [adaptation_factor(p, 10.0) for p in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert vals[-1] < 1.0

    def test_out_of_range_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            assert adaptation_factor(1.5, 10.0) == adaptation_factor(1.0, 10.0)
