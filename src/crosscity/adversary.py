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

import warnings

import numpy as np

from .autodiff import Tensor, needs_grad
from .gin import glorot

LOG_FLOOR = 1e-12


class DomainClassifier:
    """Two affine layers with ReLU, one output per domain."""

    def __init__(self, in_dim, n_domains, hidden_dim, rng):
        self.n_domains = n_domains
        self.w1 = Tensor(glorot(rng, in_dim, hidden_dim), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.w2 = Tensor(glorot(rng, hidden_dim, n_domains), requires_grad=True)
        self.b2 = Tensor(np.zeros(n_domains), requires_grad=True)

    def params(self, prefix="classifier"):
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
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
    for emb, domain in groups:
        if emb.shape[0] == 0:
            raise ValueError(f"adversarial_loss: empty group for domain {domain}")
        x = emb if isinstance(emb, Tensor) else Tensor(emb)
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
            c.b2._accum(dlogits.sum(axis=0))
            c.w2._accum(h.T @ dlogits)
            dpre = (dlogits @ w2.T) * relu
            c.b1._accum(dpre.sum(axis=0))
            if needs_grad(x):
                dx = dpre @ w1.T
                x._accum(dx if reversal_factor is None else dx * -float(reversal_factor))
            c.w1._accum(x.data.T @ dpre)

    parents = (*(x for x, *_ in saved), c.w1, c.b1, c.w2, c.b2)
    return Tensor._result(np.asarray(total), parents, backward)


def adaptation_factor(progress, eta=10.0):
    """Schedule F in [0, 2/(1+e^-eta)-1); exact 0 at progress 0."""
    if progress < 0.0 or progress > 1.0:
        warnings.warn(f"adaptation progress {progress} outside [0,1]; clamped")
        progress = min(1.0, max(0.0, progress))
    return 2.0 / (1.0 + np.exp(-eta * progress)) - 1.0
