"""Embedding-augmented GRU forecaster with a direct multi-horizon head.

The recurrent update is the classical gated cell except that the blended
state u*h + (1-u)*c is concatenated with the node embedding and passed
through a shared affine map to produce the next hidden state. A single
affine output layer maps the final hidden state to all H horizon steps.

``forecast`` runs the whole history window and the head as one fused
autodiff node with hand-written backpropagation through time; the per-step
composition of autodiff ops it replaces is kept in the test suite as the
reference it must equal bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gin import glorot


class ForecasterParams:
    """All trainable state of the temporal forecaster.

    theta_u/r/c are (hidden, n_features + hidden) as in the gate equations;
    the embedding mix layer consumes [f_v; blended state] and the output
    head maps hidden -> horizon * n_features.
    """

    def __init__(self, n_features=1, hidden_dim=64, embed_dim=64, horizon=12, rng=None):
        rng = rng or np.random.default_rng(0)
        self.n_features = n_features
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        self.horizon = horizon
        gate_in = n_features + hidden_dim

        def gate():
            return Tensor(glorot(rng, hidden_dim, gate_in), requires_grad=True)

        self.theta_u, self.theta_r, self.theta_c = gate(), gate(), gate()
        self.b_u = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.b_r = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.b_c = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.mix_w = Tensor(glorot(rng, embed_dim + hidden_dim, hidden_dim),
                            requires_grad=True)
        self.mix_b = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.head_w = Tensor(glorot(rng, hidden_dim, horizon * n_features),
                             requires_grad=True)
        self.head_b = Tensor(np.zeros(horizon * n_features), requires_grad=True)

    def params(self, prefix="forecaster"):
        return {
            f"{prefix}.theta_u": self.theta_u,
            f"{prefix}.theta_r": self.theta_r,
            f"{prefix}.theta_c": self.theta_c,
            f"{prefix}.b_u": self.b_u,
            f"{prefix}.b_r": self.b_r,
            f"{prefix}.b_c": self.b_c,
            f"{prefix}.mix.w": self.mix_w,
            f"{prefix}.mix.b": self.mix_b,
            f"{prefix}.head.w": self.head_w,
            f"{prefix}.head.b": self.head_b,
        }


def forecast(params, inputs, f_v):
    """Roll the cell over a window and apply the output head.

    inputs: (B, H', N_f) Tensor/ndarray; f_v: (B, D_f). Returns a
    (B, H, N_f) prediction Tensor on the normalized scale. h_0 = 0.

    One tape node: the forward pass caches each step's gates for a hand-
    written backpropagation through time. Array operations and gradient sums
    run in the order of the per-step composition of autodiff ops, so values
    and gradients equal it bit for bit.
    """
    x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    fv = f_v if isinstance(f_v, Tensor) else Tensor(f_v)
    p = params
    batch, hist, n_f = x.shape if x.data.ndim == 3 else (0, 0, None)
    if n_f != p.n_features or fv.shape != (batch, p.embed_dim):
        raise ad.ShapeError(f"forecast: inputs must be (B, H', {p.n_features}) and f_v "
                            f"(B, {p.embed_dim}), got {x.shape} and {fv.shape}")
    tu, tr, tc = (w.data.T.copy() for w in (p.theta_u, p.theta_r, p.theta_c))

    h = np.zeros((batch, p.hidden_dim))
    steps = []
    for t in range(hist):
        x_t = x.data[:, t, :]
        xh = np.concatenate([x_t, h], axis=1)
        u = _sigmoid(xh @ tu + p.b_u.data[None, :])
        r = _sigmoid(xh @ tr + p.b_r.data[None, :])
        xrh = np.concatenate([x_t, r * h], axis=1)
        c = np.tanh(xrh @ tc + p.b_c.data[None, :])
        fe = np.concatenate([fv.data, u * h + (1.0 - u) * c], axis=1)
        steps.append((xh, xrh, u, r, c, h, fe))
        h = fe @ p.mix_w.data + p.mix_b.data[None, :]
    out = h @ p.head_w.data + p.head_b.data[None, :]

    def backward(g):
        dout = g.reshape(batch, -1)
        p.head_b._accum(dout.sum(axis=0))
        p.head_w._accum(h.T @ dout)
        dh = dout @ p.head_w.data.T
        # sums over time run from the last step back, as the tape would
        dtu, dtr, dtc = np.zeros_like(tu), np.zeros_like(tr), np.zeros_like(tc)
        dbu, dbr, dbc = (np.zeros(p.hidden_dim) for _ in range(3))
        dmix_w, dmix_b = np.zeros_like(p.mix_w.data), np.zeros(p.hidden_dim)
        dfv = np.zeros_like(fv.data) if ad.needs_grad(fv) else None
        dx = np.zeros_like(x.data) if ad.needs_grad(x) else None
        for t in range(hist - 1, -1, -1):
            xh, xrh, u, r, c, h_prev, fe = steps[t]
            dmix_b += dh.sum(axis=0)
            dmix_w += fe.T @ dh
            dfe = dh @ p.mix_w.data.T
            if dfv is not None:
                dfv += dfe[:, :p.embed_dim]
            dblend = dfe[:, p.embed_dim:]
            dzc = dblend * (1.0 - u) * (1.0 - c * c)
            dbc += dzc.sum(axis=0)
            dtc += xrh.T @ dzc
            dxrh = dzc @ tc.T
            drh = dxrh[:, n_f:]
            dzr = drh * h_prev * r * (1.0 - r)
            dzu = (dblend * h_prev - dblend * c) * u * (1.0 - u)
            dbr += dzr.sum(axis=0)
            dtr += xh.T @ dzr
            dbu += dzu.sum(axis=0)
            dtu += xh.T @ dzu
            dxh = dzu @ tu.T + dzr @ tr.T
            dh = (dblend * u + drh * r) + dxh[:, n_f:]  # the tape's grouping
            if dx is not None:
                dx[:, t, :] = dxh[:, :n_f] + dxrh[:, :n_f]
        for param, grad in ((p.theta_u, dtu.T), (p.theta_r, dtr.T),
                            (p.theta_c, dtc.T), (p.b_u, dbu), (p.b_r, dbr),
                            (p.b_c, dbc), (p.mix_w, dmix_w), (p.mix_b, dmix_b)):
            param._accum(grad)
        if dfv is not None:
            fv._accum(dfv)
        if dx is not None:
            x._accum(dx)

    return Tensor._result(out.reshape(batch, p.horizon, n_f),
                          (x, fv, *p.params().values()), backward)


def _sigmoid(z):
    """Logistic function; exp only ever sees -|z|, so it cannot overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def source_loss(predictions, targets):
    """Mean absolute error over horizon steps and batch entries (Eq.-style
    L1 average); differentiable with subgradient 0 at exact ties."""
    t = targets if isinstance(targets, Tensor) else Tensor(targets)
    if predictions.shape != t.shape:
        raise ad.ShapeError(
            f"source_loss: shapes {predictions.shape} vs {t.shape}")
    return ad.tmean(ad.absolute(ad.sub(predictions, t)))
