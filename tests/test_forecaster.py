import numpy as np
import pytest

from crosscity import autodiff as ad
from crosscity import forecaster as fc
from crosscity.autodiff import Tensor

from conftest import assert_grads_close


def zero_params(hidden=4, embed=4, horizon=2, n_features=1):
    p = fc.ForecasterParams(n_features, hidden, embed, horizon)
    for t in p.params().values():
        t.data = np.zeros_like(t.data)
    return p


def test_all_zero_step_gives_zero_state():
    p = zero_params()
    h = fc.gru_step(p, Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 4))),
                    Tensor(np.zeros((1, 4))))
    assert np.array_equal(h.data, np.zeros((1, 4)))


def test_reduces_to_standard_gru_with_projection_mix(rng):
    # mix layer drops the embedding block and is identity on the state block
    hidden, embed = 3, 2
    p = fc.ForecasterParams(1, hidden, embed, 1, rng)
    p.mix_w.data = np.vstack([np.zeros((embed, hidden)), np.eye(hidden)])
    p.mix_b.data = np.zeros(hidden)
    x = rng.standard_normal((1, 1))
    h_prev = rng.standard_normal((1, hidden))

    h = fc.gru_step(p, Tensor(x), Tensor(h_prev), Tensor(rng.standard_normal((1, embed))))

    xh = np.concatenate([x, h_prev], axis=1)
    u = 1 / (1 + np.exp(-(xh @ p.theta_u.data.T + p.b_u.data)))
    r = 1 / (1 + np.exp(-(xh @ p.theta_r.data.T + p.b_r.data)))
    c = np.tanh(np.concatenate([x, r * h_prev], axis=1) @ p.theta_c.data.T + p.b_c.data)
    assert np.allclose(h.data, u * h_prev + (1 - u) * c, atol=1e-12)


def test_gru_step_gradient_vs_finite_diff(rng):
    p = fc.ForecasterParams(1, 4, 3, 2, rng)
    x = Tensor(rng.standard_normal((2, 1)))
    h0 = Tensor(rng.standard_normal((2, 4)))
    f_v = Tensor(rng.standard_normal((2, 3)))
    params = p.params()

    def loss():
        h = fc.gru_step(p, x, h0, f_v)
        return ad.tsum(ad.mul(h, h))

    assert_grads_close(loss, params)


def test_forecast_output_length(rng):
    for horizon in (3, 6, 12):
        p = fc.ForecasterParams(1, 8, 4, horizon, rng)
        out = fc.forecast(p, rng.standard_normal((5, 12, 1)),
                          rng.standard_normal((5, 4)))
        assert out.shape == (5, horizon, 1)


def test_zero_parameters_predict_head_bias(rng):
    p = zero_params(horizon=3)
    out = fc.forecast(p, rng.standard_normal((2, 5, 1)), rng.standard_normal((2, 4)))
    assert np.array_equal(out.data, np.zeros((2, 3, 1)))


def test_batch_decomposition_invariance(rng):
    p = fc.ForecasterParams(1, 6, 4, 3, rng)
    inputs = rng.standard_normal((4, 7, 1))
    f_v = rng.standard_normal((4, 4))
    batched = fc.forecast(p, inputs, f_v).data
    for i in range(4):
        single = fc.forecast(p, inputs[i:i + 1], f_v[i:i + 1]).data
        assert np.allclose(single, batched[i:i + 1], atol=1e-12)


def test_source_loss_values():
    preds = Tensor(np.array([[[1.0], [0.0]]]))  # H=2 block as (1,2,1)
    assert float(fc.source_loss(preds, preds.data).data) == 0.0
    # errors [1, -1]: mean |.| = 1.0
    targets = preds.data - np.array([[[1.0], [-1.0]]])
    assert float(fc.source_loss(preds, targets).data) == 1.0
    doubled = preds.data - 2 * np.array([[[1.0], [-1.0]]])
    assert float(fc.source_loss(preds, doubled).data) == 2.0


def test_source_loss_nonnegative_and_zero_iff_equal(rng):
    p = rng.standard_normal((3, 2, 1))
    t = rng.standard_normal((3, 2, 1))
    loss = float(fc.source_loss(Tensor(p), t).data)
    assert loss > 0
    assert float(fc.source_loss(Tensor(p), p).data) == 0.0


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ad.ShapeError):
        fc.source_loss(Tensor(np.zeros((2, 2, 1))), np.zeros((2, 3, 1)))


def test_end_to_end_gradient_through_encoder(rng):
    # loss -> forecast -> SpatialEncoder.forward chain on a 4-node instance
    from crosscity.gin import SpatialEncoder
    from crosscity.graph import RoadGraph

    g = RoadGraph(4, [(0, 1), (1, 2), (2, 3)])
    feats = rng.standard_normal((4, 4))
    enc = SpatialEncoder(4, 4, 1, rng)
    p = fc.ForecasterParams(1, 8, 4, 2, rng)
    inputs = rng.standard_normal((4, 3, 1))
    targets = rng.standard_normal((4, 2, 1))
    params = {**enc.params(), **p.params()}

    def loss():
        emb = enc.forward(feats, g)
        preds = fc.forecast(p, inputs, emb)
        return fc.source_loss(preds, targets)

    assert_grads_close(loss, params)
