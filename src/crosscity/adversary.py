"""Domain classifier, gradient-reversal coupling and the adaptation factor.

The classifier itself minimizes plain cross-entropy over domain labels;
encoders see the loss through gradient reversal, so their gradients are the
negated, factor-scaled classifier gradients. The factor ramps from 0
towards 1 as training progresses: F(P) = 2 / (1 + exp(-eta * P)) - 1.
``adversarial_loss`` computes all of it, over every domain, as one autodiff
node with a hand-written backward pass that equals the composed ops bit for
bit (the test suite keeps them as the reference).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, affine_backward, needs_grad
from .gin import affine_params

LOG_FLOOR = 1e-12


class DomainClassifier:
    """Two affine layers with ReLU, one output per domain."""

    def __init__(self, in_dim, n_domains, hidden_dim, rng):
        self.n_domains = n_domains
        self.w1, self.b1 = affine_params(rng, in_dim, hidden_dim)
        self.w2, self.b2 = affine_params(rng, hidden_dim, n_domains)

    def params(self):
        return {
            "classifier.w1": self.w1,
            "classifier.b1": self.b1,
            "classifier.w2": self.w2,
            "classifier.b2": self.b2,
        }


def adversarial_loss(classifier, groups, reversal_factor=None):
    """Sum over domains of that domain's mean cross-entropy.

    groups: list of (embeddings Tensor (N_d, D_f), domain index). When
    reversal_factor is given the gradient reaching each group's embeddings
    is multiplied by -reversal_factor, wiring the adversarial saddle point;
    the classifier's own gradients do not depend on it.
    """
    if not groups:
        raise ValueError("adversarial_loss: no domain groups")
    if reversal_factor is not None and reversal_factor < 0:
        raise ValueError("adversarial_loss: reversal_factor must be >= 0")
    c = classifier
    w1, b1, w2, b2 = c.w1.data, c.b1.data, c.w2.data, c.b2.data
    saved, total = [], None
    for x, domain in groups:
        if x.shape[0] == 0:
            raise ValueError(f"adversarial_loss: empty group for domain {domain}")
        pre = x.data @ w1 + b1[None, :]
        relu = pre > 0
        h = pre * relu
        logits = h @ w2 + b2[None, :]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        safe = np.maximum(probs, LOG_FLOOR)
        onehot = np.zeros((x.shape[0], c.n_domains))
        onehot[:, domain] = 1.0
        scale = -1.0 / x.shape[0]
        ce = (np.log(safe) * onehot).sum() * scale
        total = ce if total is None else total + ce
        saved.append((x, relu, h, probs, safe, onehot, scale))

    def backward(g):
        # the last group first, as the tape of composed ops reached them:
        # that order fixes how the classifier gradients add up
        for x, relu, h, probs, safe, onehot, scale in reversed(saved):
            dprobs = np.full_like(safe, float(g * scale)) * onehot / safe
            dprobs = dprobs * (probs > LOG_FLOOR)
            dot = (dprobs * probs).sum(axis=1, keepdims=True)
            dlogits = probs * (dprobs - dot)
            dpre = affine_backward(dlogits, h, c.w2, c.b2) * relu
            dx = affine_backward(dpre, x.data, c.w1, c.b1)
            if needs_grad(x):
                x._accum(dx if reversal_factor is None else dx * -float(reversal_factor))

    parents = (*(x for x, *_ in saved), c.w1, c.b1, c.w2, c.b2)
    return Tensor._result(np.asarray(total), parents, backward)


def adaptation_factor(progress, eta):
    """Schedule F in [0, 2/(1+e^-eta)-1) for progress in [0, 1); exact 0
    at progress 0."""
    return 2.0 / (1.0 + np.exp(-eta * progress)) - 1.0
