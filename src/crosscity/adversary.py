"""Domain classifier, gradient-reversal coupling and the adaptation factor.

The classifier itself minimizes plain cross-entropy over domain labels;
encoders see the loss through grad_reverse, so their gradients are the
negated, factor-scaled classifier gradients. The factor ramps from 0
towards 1 as training progresses: F(P) = 2 / (1 + exp(-eta * P)) - 1.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gin import glorot

LOG_FLOOR = 1e-12


class DomainClassifier:
    """Two affine layers with ReLU, one output per domain."""

    def __init__(self, in_dim, n_domains, hidden_dim=32, rng=None):
        rng = rng or np.random.default_rng(0)
        self.n_domains = n_domains
        self.w1 = Tensor(glorot(rng, in_dim, hidden_dim), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.w2 = Tensor(glorot(rng, hidden_dim, n_domains), requires_grad=True)
        self.b2 = Tensor(np.zeros(n_domains), requires_grad=True)

    def logits(self, f_v):
        x = f_v if isinstance(f_v, Tensor) else Tensor(f_v)
        h = ad.relu(ad.add_rowvec(ad.matmul(x, self.w1), self.b1))
        return ad.add_rowvec(ad.matmul(h, self.w2), self.b2)

    def classify(self, f_v):
        """Probability rows for each input embedding."""
        return ad.softmax_rows(self.logits(f_v))

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
    reversal_factor is given each group's embeddings pass through
    grad_reverse(., factor) first, wiring the adversarial saddle point.
    """
    if not groups:
        raise ValueError("adversarial_loss: no domain groups")
    total = None
    for emb, domain in groups:
        if emb.shape[0] == 0:
            raise ValueError(f"adversarial_loss: empty group for domain {domain}")
        x = emb if isinstance(emb, Tensor) else Tensor(emb)
        if reversal_factor is not None:
            x = ad.grad_reverse(x, reversal_factor)
        probs = classifier.classify(x)
        safe = ad.clamp_min(probs, LOG_FLOOR)
        mask = np.zeros((x.shape[0], classifier.n_domains))
        mask[:, domain] = 1.0
        picked = ad.mul(ad.log(safe), Tensor(mask))
        ce = ad.scale(ad.tsum(picked), -1.0 / x.shape[0])
        total = ce if total is None else ad.add(total, ce)
    return total


def adaptation_factor(progress, eta=10.0):
    """Schedule F in [0, 2/(1+e^-eta)-1); exact 0 at progress 0."""
    if progress < 0.0 or progress > 1.0:
        warnings.warn(f"adaptation progress {progress} outside [0,1]; clamped")
        progress = min(1.0, max(0.0, progress))
    return 2.0 / (1.0 + np.exp(-eta * progress)) - 1.0
