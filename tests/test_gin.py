import numpy as np
import pytest

from crosscity import autodiff as ad
from crosscity.autodiff import Tensor
from crosscity.gin import SpatialEncoder
from crosscity.graph import RoadGraph

import composed
from conftest import assert_grads_close


def identity_encoder(dim, n_layers=1):
    """ε=0, both MLP affines set to identity (relu is identity on >=0)."""
    enc = SpatialEncoder(dim, dim, n_layers, np.random.default_rng(0))
    for layer in enc.layers:
        layer.eps.data = np.zeros(())
        layer.w1.data = np.eye(dim)
        layer.b1.data = np.zeros(dim)
        layer.w2.data = np.eye(dim)
        layer.b2.data = np.zeros(dim)
    return enc


def test_isolated_node_identity_mlp_passes_through():
    g = RoadGraph(1, [])
    enc = identity_encoder(2)
    out = enc.forward(np.array([[3.0, 4.0]]), g)
    assert np.allclose(out.data, [[3.0, 4.0]], atol=1e-15)


def test_two_node_path_hand_value():
    # e_0=[1], e_1=[3]: each node becomes own + mean of the other -> 4
    g = RoadGraph(2, [(0, 1)])
    enc = identity_encoder(1)
    out = enc.forward(np.array([[1.0], [3.0]]), g)
    assert np.allclose(out.data, [[4.0], [4.0]], atol=1e-15)


def test_output_dim_matches_embedding_dim(rng):
    g = RoadGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    enc = SpatialEncoder(64, 64, 1, rng)
    out = enc.forward(rng.standard_normal((5, 64)), g)
    assert out.shape == (5, 64)


def test_row_count_mismatch_rejected(rng):
    g = RoadGraph(3, [(0, 1)])
    enc = SpatialEncoder(4, 4, 1, rng)
    with pytest.raises(ad.ShapeError):
        enc.forward(rng.standard_normal((2, 4)), g)


def test_param_names_and_determinism():
    enc = SpatialEncoder(8, 8, 1, np.random.default_rng(0))
    names = list(enc.params("encoder").keys())
    assert names == ["encoder.layer0.eps", "encoder.layer0.mlp.w1",
                     "encoder.layer0.mlp.b1", "encoder.layer0.mlp.w2",
                     "encoder.layer0.mlp.b2"]
    assert names == list(enc.params("encoder").keys())


def test_param_count_formula():
    d = 8
    enc = SpatialEncoder(d, d, 2, np.random.default_rng(0))
    count = sum(p.data.size for p in enc.params().values())
    per_layer = 1 + d * d + d + d * d + d  # eps + two affine maps
    assert count == 2 * per_layer


def test_permutation_equivariance(rng):
    for trial in range(20):
        n = int(rng.integers(3, 11))
        edges = [(int(a), int(b)) for a, b in rng.integers(0, n, (2 * n, 2))
                 if a != b]
        g = RoadGraph(n, edges)
        feats = rng.standard_normal((n, 6))
        enc = SpatialEncoder(6, 6, 2, np.random.default_rng(trial))
        perm = rng.permutation(n)
        base = enc.forward(feats, g).data
        permuted_feats = np.empty_like(feats)
        permuted_feats[perm] = feats
        permuted = enc.forward(permuted_feats, g.permuted(perm)).data
        assert np.allclose(permuted[perm], base, atol=1e-9)


def test_regular_graph_constant_feature_doubles():
    # ring is 2-regular; identical rows c give own + mean(c, c) = 2c
    n = 6
    g = RoadGraph(n, [(i, (i + 1) % n) for i in range(n)])
    enc = identity_encoder(3)
    c = np.array([0.5, 1.5, 2.5])
    out = enc.forward(np.tile(c, (n, 1)), g)
    assert np.allclose(out.data, 2 * np.tile(c, (n, 1)), atol=1e-12)


def test_epsilon_gradient_vs_finite_diff(rng):
    g = RoadGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    feats = rng.standard_normal((4, 5))
    enc = SpatialEncoder(5, 5, 1, rng)
    enc.layers[0].eps.data = np.asarray(0.3)
    params = enc.params()
    assert_grads_close(lambda: ad.tmean(composed.tanh(enc.forward(feats, g))),
                       params)


def _encoder_grads(enc, x, graph, forward, weights):
    """Output and every gradient (parameters, then x) of
    sum(weights * forward(x, graph)) on a fresh tape."""
    for p in [x, *enc.params().values()]:
        p.grad = None
    out = forward(x, graph)
    ad.tsum(composed.mul(out, Tensor(weights))).backward()
    grads = {k: p.grad for k, p in enc.params().items()}
    grads["x"] = x.grad
    return out.data, grads


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("x_grad", [True, False])
def test_fused_layer_equals_composed_exactly(n_layers, x_grad, rng):
    # nodes 5 and 6 are isolated: their aggregation row is zero
    graph = RoadGraph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    enc = SpatialEncoder(5, 6, n_layers, rng)
    for i, layer in enumerate(enc.layers):
        layer.eps.data = np.asarray(0.3 - 0.5 * i)
        layer.b1.data = rng.standard_normal(6) * 0.5
        layer.b2.data = rng.standard_normal(6)
    x = Tensor(rng.standard_normal((7, 5)), requires_grad=x_grad)
    weights = rng.standard_normal((7, 6))
    got, got_g = _encoder_grads(enc, x, graph, enc.forward, weights)
    want, want_g = _encoder_grads(
        enc, x, graph, lambda f, g: composed.spatial_encoder(enc, f, g), weights)
    assert np.array_equal(got, want)
    if not x_grad:
        # a constant gets no gradient; the composed mul gave it one anyway
        assert got_g.pop("x") is None
        want_g.pop("x")
    assert got_g.keys() == want_g.keys()
    for k in want_g:
        assert np.array_equal(got_g[k], want_g[k]), k

