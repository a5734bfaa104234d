"""Embedding-augmented GRU forecaster with a direct multi-horizon head.

The recurrent update is the classical gated cell except that the blended
state u*h + (1-u)*c is concatenated with the node embedding and passed
through a shared affine map to produce the next hidden state. A single
affine output layer maps the final hidden state to all H horizon steps.

``forecast`` runs the whole history window and the head as one fused
autodiff node with hand-written backpropagation through time. ``predict``
runs the same forward pass with no tape and no stored steps, for
validation and test batches. Both share one roll over the window that
writes each step into one block of preallocated buffers rather than
concatenating arrays, and keeps every matrix product and every sum as the
per-step composition of autodiff ops had it. That composition is kept in
the test suite as the reference both must equal bit for bit. ``predict``
reads the parameters and writes only buffers of its own, so each worker
process of ``train.predict_windows`` runs it on its own batches.
``source_loss``, the L1 training loss, is one tape node too.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gin import affine_params, glorot


class ForecasterParams:
    """All trainable state of the temporal forecaster.

    theta_u/r/c are (hidden, n_features + hidden) as in the gate equations;
    the embedding mix layer consumes [f_v; blended state] and the output
    head maps hidden -> horizon * n_features.
    """

    def __init__(self, n_features, hidden_dim, embed_dim, horizon, rng):
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
        self.mix_w, self.mix_b = affine_params(rng, embed_dim + hidden_dim, hidden_dim)
        self.head_w, self.head_b = affine_params(rng, hidden_dim, horizon * n_features)

    def params(self):
        return {
            "forecaster.theta_u": self.theta_u,
            "forecaster.theta_r": self.theta_r,
            "forecaster.theta_c": self.theta_c,
            "forecaster.b_u": self.b_u,
            "forecaster.b_r": self.b_r,
            "forecaster.b_c": self.b_c,
            "forecaster.mix.w": self.mix_w,
            "forecaster.mix.b": self.mix_b,
            "forecaster.head.w": self.head_w,
            "forecaster.head.b": self.head_b,
        }


def forecast(params, inputs, f_v):
    """Roll the cell over a window and apply the output head.

    inputs: (B, H', N_f) array of traffic windows, which are data and get
    no gradient; f_v: (B, D_f) Tensor of node embeddings. Returns a
    (B, H, N_f) prediction Tensor on the normalized scale. h_0 = 0.

    One tape node: the forward pass keeps every step's inputs and gates in
    time-major stacks for a hand-written backpropagation through time. Only
    the recurrent chain runs step by step backwards; each weight gradient is
    one batched product after it. Every matrix product keeps the shapes and
    operand layouts of the per-step composition of autodiff ops, and every
    sum its order, so values and gradients equal it bit for bit.
    """
    p = params
    out, (xh, xrh, fe, gates, hc, tr, tu, tc) = _roll(p, inputs, f_v.data, keep=True)
    batch, hist, n_f = inputs.shape
    hid, emb = p.hidden_dim, p.embed_dim

    def backward(g):
        dout = g.reshape(batch, -1)
        dfv = np.zeros(f_v.shape) if ad.needs_grad(f_v) else None
        mix_wt, trt, tut, tct = p.mix_w.data.T, tr.T, tu.T, tc.T
        gate_in = n_f + hid
        # dhs[t + 1] is the gradient reaching step t's output, dhs[0] h_0's
        (dhs, dfe, dzc, dz, omc2, db, dg, prod, dxrh, dxh, dxh_r, dbias,
         products) = _buffers(
            (hist + 1, batch, hid), (batch, emb + hid),
            (hist, batch, hid), (hist, 2, batch, hid), (hist, batch, hid),
            (2, batch, hid), (2, batch, hid), (2, batch, hid),
            (batch, gate_in), (batch, gate_in), (batch, gate_in),
            (hist, 4, hid), (hist * max(gate_in, emb + hid) * hid,))
        ad.affine_backward(dout, hc[hist, 0], p.head_w, p.head_b, out=dhs[hist])
        np.multiply(hc[:hist, 1], hc[:hist, 1], out=omc2)
        np.subtract(1.0, omc2, out=omc2)
        for t in range(hist - 1, -1, -1):
            g_t, q = gates[t], hc[t]  # r, u, 1 - r, 1 - u; h_prev, c
            np.matmul(dhs[t + 1], mix_wt, out=dfe)
            if dfv is not None:
                dfv += dfe[:, :emb]
            db[1] = dfe[:, emb:]  # d blended state
            np.multiply(db[1], g_t[3], out=dzc[t])
            dzc[t] *= omc2[t]
            np.matmul(dzc[t], tct, out=dxrh)
            db[0] = dxrh[:, n_f:]  # d (r * h_prev)
            np.multiply(db[0], q[0], out=dg[0])
            np.multiply(db[1], q[0], out=dg[1])
            np.multiply(db[1], q[1], out=prod[1])
            dg[1] -= prod[1]
            np.multiply(dg, g_t[:2], out=dz[t])  # reset, update pre-activations
            dz[t] *= g_t[2:]
            np.matmul(dz[t, 1], tut, out=dxh)
            np.matmul(dz[t, 0], trt, out=dxh_r)
            dxh += dxh_r
            np.multiply(db, g_t[:2], out=prod)
            np.add(prod[0], prod[1], out=dhs[t])
            dhs[t] += dxh[:, n_f:]
        # sums over time run from the last step back, as the tape's would
        np.sum(dz, axis=2, out=dbias[:, :2])
        np.sum(dzc, axis=1, out=dbias[:, 2])
        np.sum(dhs[1:], axis=1, out=dbias[:, 3])
        dbr, dbu, dbc, dmix_b = _sum_back(dbias)
        for param, grad in ((p.theta_u, _sum_products(xh, dz[:, 1], products).T),
                            (p.theta_r, _sum_products(xh, dz[:, 0], products).T),
                            (p.theta_c, _sum_products(xrh, dzc, products).T),
                            (p.b_u, dbu), (p.b_r, dbr), (p.b_c, dbc),
                            (p.mix_w, _sum_products(fe, dhs[1:], products)),
                            (p.mix_b, dmix_b)):
            param._accum(grad)
        if dfv is not None:
            f_v._accum(dfv)

    return Tensor._result(out, (f_v, *p.params().values()), backward)


def predict(params, inputs, f_v):
    """``forecast(params, inputs, f_v).data`` for arrays inputs (B, H', N_f)
    and f_v (B, D_f), computed with no tape, no per-step stacks and no
    backward pass: the inference path."""
    return _roll(params, inputs, f_v, keep=False)[0]


def _roll(p, x, fv, keep):
    """The forward pass shared by ``forecast`` and ``predict``.

    Returns the (B, H, N_f) prediction and (xh, xrh, fe, gates, hc, tr, tu,
    tc). Per step the stacks hold xh = [x_t | h_prev], xrh = [x_t | r *
    h_prev], fe = [f_v | blended state], gates = (r, u, 1 - r, 1 - u) and
    hc = (h_prev, c); hc[H', 0] is the final state. With keep every step has
    its own slot, time-major; without, every step reuses slot 0. The gate
    pre-activations and the logistic's scratch live in the gate slots, and
    the biases broadcast over the batch, so a call allocates only these
    stacks and the output.
    """
    batch, hist, n_f = x.shape if x.ndim == 3 else (0, 0, None)
    if n_f != p.n_features or fv.shape != (batch, p.embed_dim):
        raise ad.ShapeError(f"forecast: inputs must be (B, H', {p.n_features}) and f_v "
                            f"(B, {p.embed_dim}), got {x.shape} and {fv.shape}")
    hid, emb = p.hidden_dim, p.embed_dim
    tr, tu, tc = (w.data.T.copy() for w in (p.theta_r, p.theta_u, p.theta_c))
    slots = hist if keep else 1
    xh, xrh, fe, gates, hc, prod = _buffers(
        (slots, batch, n_f + hid), (slots, batch, n_f + hid),
        (slots, batch, emb + hid), (slots, 4, batch, hid),
        (slots + 1 if keep else 1, 2, batch, hid), (2, batch, hid))
    b_ru = np.stack((p.b_r.data, p.b_u.data))[:, None, :]
    b_c, mix_b, mix_w = p.b_c.data, p.mix_b.data, p.mix_w.data
    fe[:, :, :emb] = fv
    hc[0, 0] = 0.0
    if slots:
        xh[0, :, n_f:] = 0.0
    if keep:
        xh[:, :, :n_f] = xrh[:, :, :n_f] = x.transpose(1, 0, 2)
    for t in range(hist):
        s = t if keep else 0
        if not keep:
            xh[0, :, :n_f] = xrh[0, :, :n_f] = x[:, t]
        g, q = gates[s], hc[s]
        np.matmul(xh[s], tr, out=g[2])
        np.matmul(xh[s], tu, out=g[3])
        g[2:] += b_ru
        _sigmoid(g)
        np.multiply(g[0], q[0], out=xrh[s, :, n_f:])
        np.matmul(xrh[s], tc, out=q[1])
        q[1] += b_c
        np.tanh(q[1], out=q[1])
        np.multiply(g[1], q[0], out=prod[0])
        np.multiply(g[3], q[1], out=prod[1])
        np.add(prod[0], prod[1], out=fe[s, :, emb:])
        nxt = t + 1 if keep else 0
        h = hc[nxt, 0]
        np.matmul(fe[s], mix_w, out=h)
        h += mix_b
        if t + 1 < hist:
            xh[nxt, :, n_f:] = h
    h = hc[hist if keep else 0, 0]
    out = h @ p.head_w.data + p.head_b.data[None, :]
    return (out.reshape(batch, p.horizon, n_f),
            (xh, xrh, fe, gates, hc, tr, tu, tc))


def _buffers(*shapes):
    """Uninitialized float64 arrays of the given shapes, carved from one
    allocation. A call's window-sized stacks then cost one block that the C
    allocator can hand out again on the next call, where a dozen separate
    arrays above its mmap threshold would each be mapped and page-faulted
    afresh. Each array starts on a 64-byte boundary of the block, as on a
    cache line of its own."""
    sizes = [math.prod(shape) for shape in shapes]
    starts = np.cumsum([0] + [-(-n // 8) * 8 for n in sizes])
    block = np.empty(starts[-1])
    return [block[lo:lo + n].reshape(shape)
            for shape, n, lo in zip(shapes, sizes, starts)]


def _sum_products(a, b, buf):
    """a[-1].T @ b[-1] + ... + a[0].T @ b[0] for stacks a (T, B, K) and
    b (T, B, N): one batched product into the flat array buf, which every
    weight reuses, then ``_sum_back``."""
    steps, k, n = a.shape[0], a.shape[2], b.shape[2]
    stack = buf[:steps * k * n].reshape(steps, k, n)
    return _sum_back(np.matmul(a.transpose(0, 2, 1), b, out=stack))


def _sum_back(stack):
    """stack[-1] + ... + stack[0], added in that order onto 0.0 as a per-step
    accumulation would. numpy keeps that order only while each entry holds
    at least two values; it sums a column of single values pairwise."""
    return np.add.reduce(stack[::-1], axis=0, initial=0.0)


def _sigmoid(g):
    """The gate pair of the pre-activations z held in g[2:] of a (4, ...)
    array: g[:2] becomes the logistic of z and g[2:] one minus it.

    The logistic is exp(min(z, 0)) / (1 + exp(-|z|)): -|z| goes to g[:2]
    and min(z, 0) to g[2:], one exp covers all four slots, and the quotient
    lands in g[:2]. exp never sees a positive argument, so it cannot
    overflow, and the value is 1 / (1 + e) where z >= 0 and e / (1 + e)
    elsewhere, e = exp(-|z|)."""
    s, z = g[:2], g[2:]
    np.abs(z, out=s)
    np.negative(s, out=s)
    np.minimum(z, 0.0, out=z)
    np.exp(g, out=g)
    s += 1.0
    np.divide(z, s, out=s)
    np.subtract(1.0, s, out=z)


def source_loss(predictions, targets):
    """Mean absolute error over horizon steps and batch entries (Eq.-style
    L1 average) of a prediction Tensor against an array of targets, which
    get no gradient; one tape node, with subgradient 0 at exact ties."""
    if predictions.shape != targets.shape:
        raise ad.ShapeError(
            f"source_loss: shapes {predictions.shape} vs {targets.shape}")
    diff = predictions.data - targets

    def backward(g):
        predictions._accum(np.full_like(diff, float(g) / diff.size)
                           * np.sign(diff))

    return Tensor._result(np.asarray(np.abs(diff).mean()), (predictions,),
                          backward)
