import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscity import autodiff as ad
from crosscity import forecaster as fc
from crosscity.autodiff import Tensor

import composed
from conftest import assert_grads_close


def zero_params(hidden=4, embed=4, horizon=2, n_features=1):
    p = fc.ForecasterParams(n_features, hidden, embed, horizon,
                            np.random.default_rng(0))
    for t in p.params().values():
        t.data = np.zeros_like(t.data)
    return p


def test_all_zero_step_gives_zero_state():
    p = zero_params()
    h = composed.gru_step(p, Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 4))),
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

    h = composed.gru_step(p, Tensor(x), Tensor(h_prev), Tensor(rng.standard_normal((1, embed))))

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
        h = composed.gru_step(p, x, h0, f_v)
        return ad.tsum(composed.mul(h, h))

    assert_grads_close(loss, params)


def test_forecast_output_length(rng):
    for horizon in (3, 6, 12):
        p = fc.ForecasterParams(1, 8, 4, horizon, rng)
        out = fc.forecast(p, rng.standard_normal((5, 12, 1)),
                          Tensor(rng.standard_normal((5, 4))))
        assert out.shape == (5, horizon, 1)


def test_zero_parameters_predict_head_bias(rng):
    p = zero_params(horizon=3)
    out = fc.forecast(p, rng.standard_normal((2, 5, 1)),
                      Tensor(rng.standard_normal((2, 4))))
    assert np.array_equal(out.data, np.zeros((2, 3, 1)))


def test_batch_decomposition_invariance(rng):
    p = fc.ForecasterParams(1, 6, 4, 3, rng)
    inputs = rng.standard_normal((4, 7, 1))
    f_v = rng.standard_normal((4, 4))
    batched = fc.forecast(p, inputs, Tensor(f_v)).data
    for i in range(4):
        single = fc.forecast(p, inputs[i:i + 1], Tensor(f_v[i:i + 1])).data
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


def test_source_loss_equals_composed_exactly(rng):
    preds = rng.standard_normal((5, 3, 2))
    targets = rng.standard_normal((5, 3, 2))
    targets[0] = preds[0]  # exact ties take subgradient 0
    runs = []
    for source_loss in (fc.source_loss, composed.source_loss):
        p = Tensor(preds.copy(), requires_grad=True)
        loss = source_loss(p, targets)
        loss.backward()
        runs.append((loss.data, p.grad))
    (got, got_grad), (want, want_grad) = runs
    assert np.array_equal(got, want) and np.array_equal(got_grad, want_grad)
    assert not got_grad[0].any() and got_grad[1:].all()


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ad.ShapeError):
        fc.source_loss(Tensor(np.zeros((2, 2, 1))), np.zeros((2, 3, 1)))
    p = fc.ForecasterParams(1, 4, 3, 2, rng)
    for inputs, f_v in [(np.zeros((2, 5)), np.zeros((2, 3))),
                        (np.zeros((2, 5, 2)), np.zeros((2, 3))),
                        (np.zeros((2, 5, 1)), np.zeros((3, 3))),
                        (np.zeros((2, 5, 1)), np.zeros((2, 4)))]:
        with pytest.raises(ad.ShapeError):
            fc.forecast(p, inputs, Tensor(f_v))


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
    params = {**enc.params("encoder"), **p.params()}

    def loss():
        emb = enc.forward(feats, g)
        preds = fc.forecast(p, inputs, emb)
        return fc.source_loss(preds, targets)

    assert_grads_close(loss, params)


# -- the fused window op against finite differences and the composed oracle --

def test_fused_forecast_gradient_vs_finite_diff(rng):
    p = fc.ForecasterParams(2, 4, 3, 2, rng)
    inputs = rng.standard_normal((3, 4, 2))
    f_v = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    targets = rng.standard_normal((3, 2, 2))
    params = {**p.params(), "f_v": f_v}

    def loss():
        preds = fc.forecast(p, inputs, f_v)
        return ad.tsum(composed.mul(preds, Tensor(targets)))

    assert_grads_close(loss, params)


def _forecast_and_grads(forecast, p, inputs, emb, node_ids, targets):
    """Loss through gather_rows -> forecast -> source_loss; returns the
    prediction, every parameter grad and the embedding grad."""
    for t in p.params().values():
        t.grad = None
    emb_t = Tensor(emb.copy(), requires_grad=True)
    preds = forecast(p, inputs.copy(), ad.gather_rows(emb_t, node_ids))
    fc.source_loss(preds, targets).backward()
    grads = {name: t.grad.copy() for name, t in p.params().items()}
    return preds.data.copy(), grads, emb_t.grad.copy()


def assert_matches_composed(p, batch, hist, r):
    n_nodes = 7
    emb = r.standard_normal((n_nodes, p.embed_dim))
    node_ids = r.integers(0, n_nodes, batch)
    inputs = r.standard_normal((batch, hist, p.n_features))
    targets = r.standard_normal((batch, p.horizon, p.n_features))
    fused = _forecast_and_grads(fc.forecast, p, inputs, emb, node_ids, targets)
    ref = _forecast_and_grads(composed.forecast, p, inputs, emb, node_ids, targets)
    assert np.array_equal(fused[0], ref[0])
    for name in ref[1]:
        assert np.array_equal(fused[1][name], ref[1][name]), name
    assert np.array_equal(fused[2], ref[2])


@pytest.mark.parametrize("batch,hist,hidden,embed,horizon,n_features", [
    (64, 12, 16, 8, 3, 1),    # the acceptance transfer config
    (64, 12, 64, 64, 12, 1),  # the 64-wide defaults
    (1, 1, 16, 8, 3, 1),
    (9, 5, 6, 4, 3, 2),
])
def test_fused_forecast_equals_composed_exactly(batch, hist, hidden, embed,
                                                horizon, n_features, rng):
    p = fc.ForecasterParams(n_features, hidden, embed, horizon, rng)
    assert_matches_composed(p, batch, hist, rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_fused_forecast_equals_composed_property(batch, hist, hidden, embed,
                                                 horizon, n_features, seed):
    r = np.random.default_rng(seed)
    p = fc.ForecasterParams(n_features, hidden, embed, horizon, r)
    for t in p.params().values():  # nonzero biases and larger gate inputs
        t.data = t.data + r.standard_normal(t.data.shape)
    assert_matches_composed(p, batch, hist, r)


def perturbed_params(hidden, embed, horizon, n_features, r):
    p = fc.ForecasterParams(n_features, hidden, embed, horizon, r)
    for t in p.params().values():  # nonzero biases and larger gate inputs
        t.data = t.data + r.standard_normal(t.data.shape)
    return p


@pytest.mark.parametrize("batch", [1, 9])
def test_long_window_of_one_unit_states_equals_composed(batch, rng):
    # hidden 1: every bias gradient step is a single value, which numpy would
    # sum pairwise over a window of eight steps or more
    p = perturbed_params(1, 1, 2, 1, rng)
    assert_matches_composed(p, batch, 12, rng)


# -- the tape-free inference path --

def assert_predict_matches(p, batch, hist, r):
    inputs = r.standard_normal((batch, hist, p.n_features))
    f_v = r.standard_normal((batch, p.embed_dim))
    got = fc.predict(p, inputs, f_v)
    assert type(got) is np.ndarray
    assert np.array_equal(got, fc.forecast(p, inputs, Tensor(f_v)).data)
    assert np.array_equal(got, composed.forecast(p, Tensor(inputs), Tensor(f_v)).data)


@pytest.mark.parametrize("batch,hist,hidden,embed,horizon,n_features", [
    (64, 12, 16, 8, 3, 1),
    (64, 12, 64, 64, 12, 1),
    (1, 1, 16, 8, 3, 1),
    (9, 5, 6, 4, 3, 2),
    (512, 12, 16, 8, 3, 1),    # validation and test batches, acceptance config
    (512, 12, 64, 64, 12, 1),  # ... and the 64-wide defaults
])
def test_predict_equals_forecast_and_composed(batch, hist, hidden, embed,
                                              horizon, n_features, rng):
    p = fc.ForecasterParams(n_features, hidden, embed, horizon, rng)
    assert_predict_matches(p, batch, hist, rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_predict_equals_forecast_and_composed_property(batch, hist, hidden, embed,
                                                       horizon, n_features, seed):
    r = np.random.default_rng(seed)
    assert_predict_matches(perturbed_params(hidden, embed, horizon, n_features, r),
                           batch, hist, r)


def test_predict_returns_array_and_records_no_gradient(rng):
    p = fc.ForecasterParams(1, 4, 3, 2, rng)
    out = fc.predict(p, rng.standard_normal((5, 6, 1)), rng.standard_normal((5, 3)))
    assert type(out) is np.ndarray and out.shape == (5, 2, 1)
    assert all(t.grad is None for t in p.params().values())


def test_constant_embeddings_get_no_gradient(rng):
    # temporal_forecaster: the embeddings are a constant zero block
    p = fc.ForecasterParams(1, 4, 3, 2, rng)
    zeros = Tensor(np.zeros((5, 3)))
    f_v = ad.gather_rows(zeros, [0, 1, 4])
    inputs = rng.standard_normal((3, 6, 1))
    fc.source_loss(fc.forecast(p, inputs, f_v), np.zeros((3, 2, 1))).backward()
    assert zeros.grad is None and f_v.grad is None
    assert all(t.grad is not None for t in p.params().values())


def test_sigmoid_saturates_finitely_and_equals_masked_formula():
    z = np.array([-800.0, -40.0, -1e-300, -0.0, 0.0, 1e-300, 40.0, 800.0])
    # the kernel's call: a gate pair's pre-activations in slots 2-3 of the
    # 4-slot gate buffer, the logistic and one minus it written over them
    pair = np.stack([z, z[::-1]])
    gates = np.full((4,) + z.shape, np.nan)
    gates[2:] = pair
    fc._sigmoid(gates)
    fused = gates[0]
    assert np.isfinite(gates).all()
    assert fused[0] == 0.0 and fused[-1] == 1.0
    assert np.array_equal(fused, composed.sigmoid(Tensor(z)).data)
    assert np.array_equal(gates[:2], composed.sigmoid(Tensor(pair)).data)
    assert np.array_equal(gates[2:], 1.0 - gates[:2])
