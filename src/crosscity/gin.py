"""Graph-isomorphism-network spatial encoder with mean aggregation.

Per layer each node becomes MLP((1+eps) * own + mean over neighbors); the
empty neighborhood contributes a zero vector. The same structure serves the
per-source encoders, the target encoder, and the fine-tuning private encoder.
Each layer is one autodiff node with a hand-written backward pass that
equals the composed ops bit for bit (the test suite keeps them as the
reference).

The mean over neighbors is the graph's dense aggregation matrix times the
layer input. The first layer's input, a city's raw features, does not
change, so the city (``train.DomainData``) holds that product, and the
matrix for any later layer; an encoder holds nothing but its layers.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def affine_params(rng, fan_in, fan_out):
    """Weight and bias Tensors of a fan_in -> fan_out affine map: a glorot
    draw from rng and zeros."""
    return (Tensor(glorot(rng, fan_in, fan_out), requires_grad=True),
            Tensor(np.zeros(fan_out), requires_grad=True))


class GinLayer:
    def __init__(self, in_dim, out_dim, rng):
        self.eps = Tensor(np.zeros(()), requires_grad=True)
        self.w1, self.b1 = affine_params(rng, in_dim, out_dim)
        self.w2, self.b2 = affine_params(rng, out_dim, out_dim)

    def forward(self, x, agg_matrix, x_agg=None):
        """x: (N, in_dim) tensor; agg_matrix: constant (N, N) mean aggregator.
        x_agg, if given, is agg_matrix.data @ x.data taken beforehand; the
        matrix is then read only to pass a gradient to x, and may be None
        for an x that needs none. Returns the (N, out_dim) output as one
        tape node."""
        xd = x.data
        if x_agg is None:
            x_agg = agg_matrix.data @ xd
        scale = self.eps.data + 1.0
        mixed = xd * scale + x_agg
        pre = mixed @ self.w1.data + self.b1.data[None, :]
        mask = pre > 0
        h = pre * mask
        out = h @ self.w2.data + self.b2.data[None, :]

        def backward(g):
            dpre = ad.affine_backward(g, h, self.w2, self.b2) * mask
            dmixed = ad.affine_backward(dpre, mixed, self.w1, self.b1)
            self.eps._accum((dmixed * xd).sum())
            if ad.needs_grad(x):
                x._accum(dmixed * scale + agg_matrix.data.T @ dmixed)

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

    def forward(self, city):
        """The (N, D_f) embedding Tensor of city, a ``train.DomainData``;
        its raw features are data and get no gradient."""
        first, *rest = self.layers
        agg = city.aggregation if rest else None
        x = first.forward(Tensor(city.raw_features), agg, city.neighbor_mean)
        for layer in rest:
            x = layer.forward(x, agg)
        return x

    def params(self, prefix):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.layer{i}"))
        return out
