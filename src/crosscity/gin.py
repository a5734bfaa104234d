"""Graph-isomorphism-network spatial encoder with mean aggregation.

Per layer each node becomes MLP((1+eps) * own + mean over neighbors); the
empty neighborhood contributes a zero vector. The same structure serves the
per-source encoders, the target encoder, and the fine-tuning private encoder.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class GinLayer:
    def __init__(self, in_dim, out_dim, rng=None):
        rng = rng or np.random.default_rng(0)
        self.eps = Tensor(np.zeros(()), requires_grad=True)
        self.w1 = Tensor(glorot(rng, in_dim, out_dim), requires_grad=True)
        self.b1 = Tensor(np.zeros(out_dim), requires_grad=True)
        self.w2 = Tensor(glorot(rng, out_dim, out_dim), requires_grad=True)
        self.b2 = Tensor(np.zeros(out_dim), requires_grad=True)

    def forward(self, x, agg_matrix):
        """x: (N, in_dim) tensor; agg_matrix: constant (N, N) mean aggregator."""
        own = ad.mul(x, ad.add(self.eps, Tensor(1.0)))
        mixed = ad.add(own, ad.matmul(agg_matrix, x))
        h = ad.relu(ad.add_rowvec(ad.matmul(mixed, self.w1), self.b1))
        return ad.add_rowvec(ad.matmul(h, self.w2), self.b2)

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

    def __init__(self, in_dim, out_dim, n_layers=1, rng=None):
        rng = rng or np.random.default_rng(0)
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

    def params(self, prefix="encoder"):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.layer{i}"))
        return out
