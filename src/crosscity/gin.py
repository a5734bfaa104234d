"""Graph-isomorphism-network spatial encoder with mean aggregation.

Per layer each node becomes MLP((1+eps) * own + mean over neighbors); the
empty neighborhood contributes a zero vector. The same structure serves the
per-source encoders, the target encoder, and the fine-tuning private encoder.
Each layer is one autodiff node with a hand-written backward pass that
equals the composed ops bit for bit (the test suite keeps them as the
reference).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class GinLayer:
    def __init__(self, in_dim, out_dim, rng):
        self.eps = Tensor(np.zeros(()), requires_grad=True)
        self.w1 = Tensor(glorot(rng, in_dim, out_dim), requires_grad=True)
        self.b1 = Tensor(np.zeros(out_dim), requires_grad=True)
        self.w2 = Tensor(glorot(rng, out_dim, out_dim), requires_grad=True)
        self.b2 = Tensor(np.zeros(out_dim), requires_grad=True)

    def forward(self, x, agg_matrix):
        """x: (N, in_dim) tensor; agg_matrix: constant (N, N) mean aggregator.
        Returns the (N, out_dim) output as one tape node."""
        agg, xd = agg_matrix.data, x.data
        w1, w2 = self.w1.data, self.w2.data
        scale = self.eps.data + 1.0
        mixed = xd * scale + agg @ xd
        pre = mixed @ w1 + self.b1.data[None, :]
        mask = pre > 0
        h = pre * mask
        out = h @ w2 + self.b2.data[None, :]

        def backward(g):
            self.b2._accum(g.sum(axis=0))
            self.w2._accum(h.T @ g)
            dpre = (g @ w2.T) * mask
            self.b1._accum(dpre.sum(axis=0))
            self.w1._accum(mixed.T @ dpre)
            dmixed = dpre @ w1.T
            self.eps._accum((dmixed * xd).sum())
            if ad.needs_grad(x):
                x._accum(dmixed * scale + agg.T @ dmixed)

        return Tensor._result(out, (x, self.eps, self.w1, self.b1, self.w2, self.b2),
                              backward)

    def params(self, prefix):
        return {
            f"{prefix}.eps": self.eps,
            f"{prefix}.mlp.w1": self.w1,
            f"{prefix}.mlp.b1": self.b1,
            f"{prefix}.mlp.w2": self.w2,
            f"{prefix}.mlp.b2": self.b2,
        }


class SpatialEncoder:
    """K stacked GIN layers mapping raw features to node embeddings."""

    def __init__(self, in_dim, out_dim, n_layers, rng):
        self.layers = []
        d = in_dim
        for _ in range(n_layers):
            self.layers.append(GinLayer(d, out_dim, rng=rng))
            d = out_dim

    def forward(self, features, graph):
        """features: (N, D_e) Tensor or ndarray; returns (N, D_f) Tensor."""
        x = features if isinstance(features, Tensor) else Tensor(features)
        if x.shape[0] != graph.n_nodes:
            raise ad.ShapeError(
                f"features have {x.shape[0]} rows for a {graph.n_nodes}-node graph")
        agg = Tensor(graph.mean_aggregation_matrix())
        for layer in self.layers:
            x = layer.forward(x, agg)
        return x

    def params(self, prefix):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.layer{i}"))
        return out
