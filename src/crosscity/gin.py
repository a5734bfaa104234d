"""Graph-isomorphism-network spatial encoder with mean aggregation.

Per layer each node becomes MLP((1+eps) * own + mean over neighbors); the
empty neighborhood contributes a zero vector. The same structure serves the
per-source encoders, the target encoder, and the fine-tuning private encoder.
Each layer is one autodiff node with a hand-written backward pass that
equals the composed ops bit for bit (the test suite keeps them as the
reference).

The mean over neighbors is the graph's dense aggregation matrix times the
layer input. The first layer's input, a city's raw features, does not
change, so an encoder takes that product once per graph and keeps it while
the features hold the same bits; it keeps the matrix itself only when a
later layer needs it.
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
        self._matrices = {}  # graph -> its aggregation matrix as a Tensor, if kept
        self._aggregates = {}  # graph -> (features, their bytes, matrix @ them)

    def forward(self, features, graph):
        """features: (N, D_e) array of a city's raw features, which are
        data and get no gradient; returns the (N, D_f) embedding Tensor."""
        x = Tensor(features)
        if x.shape[0] != graph.n_nodes:
            raise ad.ShapeError(
                f"features have {x.shape[0]} rows for a {graph.n_nodes}-node graph")
        first, *rest = self.layers
        if rest and graph not in self._matrices:
            self._matrices[graph] = Tensor(graph.mean_aggregation_matrix())
        agg = self._matrices.get(graph)
        x = first.forward(x, agg, self._first_aggregate(graph, x.data, agg))
        for layer in rest:
            x = layer.forward(x, agg)
        return x

    def _first_aggregate(self, graph, xd, agg):
        """graph.mean_aggregation_matrix() @ xd, read-only; agg is that
        matrix as a Tensor, or None. It is taken again only when xd is not
        the array of the last call with graph, or its bits changed since."""
        hit, bits = self._aggregates.get(graph), xd.tobytes()
        if hit is None or hit[0] is not xd or hit[1] != bits:
            matrix = graph.mean_aggregation_matrix() if agg is None else agg.data
            product = matrix @ xd
            product.flags.writeable = False
            hit = self._aggregates[graph] = (xd, bits, product)
        return hit[2]

    def params(self, prefix):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.layer{i}"))
        return out
