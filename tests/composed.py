"""Reference implementations the library's faster code must equal bit for bit.

- The generic ops the library's fused nodes replaced: ``sub``, ``mul``,
  ``scale``, ``absolute``, ``relu``, ``log``, ``clamp_min``,
  ``softmax_rows``, ``grad_reverse``, ``sigmoid``, ``tanh``, ``matmul``,
  ``add_rowvec``, ``transpose``, ``concat`` and ``tmean``, each with its own
  textbook backward rule; ``sub`` and ``mul`` broadcast a scalar operand.
  The tests in test_autodiff.py check them like any other op.
- ``source_loss``: the L1 loss as sub, absolute and mean, the reference for
  ``forecaster.source_loss``.
- ``combine``: the combiner as three affine maps of matmul and add_rowvec,
  the reference for ``train.CombinerParams.combine``.
- The GRU forecaster composed from per-step autodiff ops: about 25 tape
  nodes per recurrent step, the reference for ``forecaster.forecast``
  (values and gradients) and for ``forecaster.predict`` and
  ``train.predict_windows`` (values).
- ``mean_aggregation_matrix``: the dense 0/1 adjacency divided by its row
  sums, the reference for ``graph.RoadGraph.mean_aggregation_matrix``.
- ``gin_layer`` and ``spatial_encoder``: the GIN layer as nine ops, the
  reference for ``gin.GinLayer.forward`` and ``gin.SpatialEncoder.forward``;
  the encoder takes every layer's neighbor mean afresh.
- ``classifier_logits``, ``classify`` and ``adversarial_loss``: the domain
  head as a chain of ops per group (reversal, MLP, softmax, clamp, log,
  one-hot mask, sum, scale), added left to right over the groups, the
  reference for ``adversary.adversarial_loss``.
- ``make_windows``: the per-window loop that ``data.make_windows``' strided
  views must equal.
- ``biased_walk``, ``build_corpus`` and ``train_skipgram``: node2vec with the
  walk weights rebuilt at every step and one ``Generator.choice`` call per
  sampled node, the reference for ``crosscity.node2vec``.
- ``random_geometric_edges``: the pairwise ``np.linalg.norm`` loop that
  ``data._make_topology`` must reproduce edge for edge.
- ``synth_generate``: the synthetic city with each step a new array, the
  reference for ``data.synth_generate``'s in-place steps.
- ``permuted_graph``: a graph with its nodes relabeled, for the encoder's
  permutation-equivariance checks.
- ``read_table``, ``load_series`` and ``load_features``: the readers that
  hold every cell as a Python float before one ``np.array``, the reference
  for the readers that parse straight into one array; they must accept the
  same files, with the same bits, and refuse the rest with the same error
  text.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np

from crosscity import autodiff as ad
from crosscity.adversary import LOG_FLOOR
from crosscity.autodiff import ShapeError, Tensor
from crosscity.data import (DataError, TrafficSeries, WindowedDataset,
                            _make_topology)
from crosscity.graph import RoadGraph
from crosscity.textio import read_cells


def _is_scalar(t):
    return t.data.size == 1


def _check_same_shape(op, a, b):
    if a.shape != b.shape and not (_is_scalar(a) or _is_scalar(b)):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def sub(a, b):
    _check_same_shape("sub", a, b)
    def bwd(g):
        a._accum(g if not _is_scalar(a) or a.shape == g.shape else g.sum())
        b._accum(-g if not _is_scalar(b) or b.shape == g.shape else -g.sum())
    return Tensor._result(a.data - b.data, (a, b), bwd)


def mul(a, b):
    _check_same_shape("mul", a, b)
    def bwd(g):
        ga = g * b.data
        gb = g * a.data
        a._accum(ga if ga.shape == a.shape else ga.sum())
        b._accum(gb if gb.shape == b.shape else gb.sum())
    return Tensor._result(a.data * b.data, (a, b), bwd)


def absolute(a):
    sign = np.sign(a.data)  # subgradient 0 at ties
    def bwd(g):
        a._accum(g * sign)
    return Tensor._result(np.abs(a.data), (a,), bwd)


def matmul(a, b):
    """a @ b; no gradient product for a constant operand."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    def bwd(g):
        if ad.needs_grad(a):
            a._accum(g @ b.data.T)
        if ad.needs_grad(b):
            b._accum(a.data.T @ g)
    return Tensor._result(a.data @ b.data, (a, b), bwd)


def add_rowvec(a, bias):
    """Add a (n,) vector to every row of an (m, n) matrix."""
    if a.data.ndim != 2 or bias.data.ndim != 1 or a.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {a.shape} and {bias.shape}")
    def bwd(g):
        a._accum(g)
        bias._accum(g.sum(axis=0))
    return Tensor._result(a.data + bias.data[None, :], (a, bias), bwd)


def tmean(a):
    n = a.data.size
    def bwd(g):
        a._accum(np.full_like(a.data, float(g) / n))
    return Tensor._result(np.asarray(a.data.mean()), (a,), bwd)


def relu(a):
    mask = a.data > 0
    def bwd(g):
        a._accum(g * mask)
    return Tensor._result(a.data * mask, (a,), bwd)


def log(a):
    if np.any(a.data <= 0):
        raise ValueError("log: non-positive input")
    def bwd(g):
        a._accum(g / a.data)
    return Tensor._result(np.log(a.data), (a,), bwd)


def clamp_min(a, floor):
    """max(a, floor); gradient passes only where a exceeded the floor."""
    mask = a.data > floor
    def bwd(g):
        a._accum(g * mask)
    return Tensor._result(np.maximum(a.data, floor), (a,), bwd)


def softmax_rows(a):
    """Row-wise softmax with max-subtraction; accepts (n,) or (m, n)."""
    x = a.data
    if x.ndim == 1:
        x = x[None, :]
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    if a.data.ndim == 1:
        out = out[0]
    def bwd(g):
        if a.data.ndim == 1:
            s, gg = out[None, :], g[None, :]
        else:
            s, gg = out, g
        dot = (gg * s).sum(axis=1, keepdims=True)
        ga = s * (gg - dot)
        a._accum(ga[0] if a.data.ndim == 1 else ga)
    return Tensor._result(out, (a,), bwd)


def scale(a, factor):
    """Multiply by a python constant (not differentiated w.r.t. factor)."""
    factor = float(factor)
    def bwd(g):
        a._accum(g * factor)
    return Tensor._result(a.data * factor, (a,), bwd)


def grad_reverse(a, factor):
    """Identity forward; backward passes -factor times the upstream gradient."""
    factor = float(factor)
    if factor < 0:
        raise ValueError("grad_reverse: factor must be >= 0")
    def bwd(g):
        a._accum(g * (-factor))
    return Tensor._result(a.data.copy(), (a,), bwd)


def sigmoid(a):
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    e = np.exp(a.data[~pos])
    out[~pos] = e / (1.0 + e)
    def bwd(g):
        a._accum(g * out * (1.0 - out))
    return Tensor._result(out, (a,), bwd)


def tanh(a):
    out = np.tanh(a.data)
    def bwd(g):
        a._accum(g * (1.0 - out * out))
    return Tensor._result(out, (a,), bwd)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d, got {a.shape}")
    def bwd(g):
        a._accum(g.T)
    return Tensor._result(a.data.T.copy(), (a,), bwd)


def concat(a, b, axis=0):
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"concat: ranks differ ({a.shape} vs {b.shape})")
    if axis >= a.data.ndim or axis < -a.data.ndim:
        raise ShapeError(f"concat: axis {axis} out of range for rank {a.data.ndim}")
    for d in range(a.data.ndim):
        if d != axis % a.data.ndim and a.shape[d] != b.shape[d]:
            raise ShapeError(f"concat: shapes {a.shape} and {b.shape} differ off-axis")
    na = a.shape[axis]
    def bwd(g):
        ga, gb = np.split(g, [na], axis=axis)
        a._accum(ga)
        b._accum(gb)
    return Tensor._result(np.concatenate([a.data, b.data], axis=axis), (a, b), bwd)


def gru_step(params, x_t, h_prev, f_v):
    """One recurrent update on a batch: x_t (B, N_f), h_prev (B, hidden),
    f_v (B, D_f); returns (B, hidden)."""
    xh = concat(x_t, h_prev, axis=1)
    u = sigmoid(add_rowvec(matmul(xh, transpose(params.theta_u)), params.b_u))
    r = sigmoid(add_rowvec(matmul(xh, transpose(params.theta_r)), params.b_r))
    xrh = concat(x_t, mul(r, h_prev), axis=1)
    c = tanh(add_rowvec(matmul(xrh, transpose(params.theta_c)), params.b_c))
    blended = ad.add(mul(u, h_prev),
                     mul(sub(Tensor(1.0), u), c))
    fe = concat(f_v, blended, axis=1)
    return add_rowvec(matmul(fe, params.mix_w), params.mix_b)


def forecast(params, inputs, f_v):
    """Same contract as ``forecaster.forecast``, one step at a time."""
    x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    fv = f_v if isinstance(f_v, Tensor) else Tensor(f_v)
    batch, hist, _ = x.shape
    h = Tensor(np.zeros((batch, params.hidden_dim)))
    for t in range(hist):
        h = gru_step(params, _slice_time(x, t), h, fv)
    out = add_rowvec(matmul(h, params.head_w), params.head_b)
    return _reshape_pred(out, batch, params.horizon, params.n_features)


def _slice_time(x, t):
    """Pick time step t from a (B, H', N_f) tensor."""
    def bwd(g):
        buf = np.zeros_like(x.data)
        buf[:, t, :] = g
        x._accum(buf)
    return Tensor._result(x.data[:, t, :].copy(), (x,), bwd)


def _reshape_pred(out, batch, horizon, n_features):
    def bwd(g):
        out._accum(g.reshape(batch, horizon * n_features))
    return Tensor._result(out.data.reshape(batch, horizon, n_features), (out,), bwd)


def source_loss(predictions, targets):
    """Same contract as ``forecaster.source_loss``: subtract, absolute value,
    mean."""
    t = targets if isinstance(targets, Tensor) else Tensor(targets)
    return tmean(absolute(sub(predictions, t)))


def combine(combiner, shared, private):
    """Same contract as ``train.CombinerParams.combine``: three affine maps
    of matmul and add_rowvec, the first two added."""
    a = add_rowvec(matmul(shared, combiner.pre_w), combiner.pre_b)
    b = add_rowvec(matmul(private, combiner.pri_w), combiner.pri_b)
    return add_rowvec(matmul(ad.add(a, b), combiner.cmb_w), combiner.cmb_b)


def mean_aggregation_matrix(graph):
    """The 0/1 adjacency of graph's edges divided by its row sums; the row
    of an isolated node is zero."""
    adj = np.zeros((graph.n_nodes, graph.n_nodes))
    for u, v in graph.edges:
        adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(deg > 0, adj / deg, 0.0)


def gin_layer(layer, x, agg_matrix, x_agg=None):
    """Same contract as ``gin.GinLayer.forward``, nine ops; the neighbor
    mean is the matmul whenever agg_matrix is given, x_agg only if not."""
    own = mul(x, ad.add(layer.eps, Tensor(1.0)))
    neighbors = Tensor(x_agg) if agg_matrix is None else matmul(agg_matrix, x)
    mixed = ad.add(own, neighbors)
    h = relu(add_rowvec(matmul(mixed, layer.w1), layer.b1))
    return add_rowvec(matmul(h, layer.w2), layer.b2)


def spatial_encoder(encoder, features, graph):
    """What ``gin.SpatialEncoder.forward`` gives for a city of these
    features and graph, layer by layer."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    agg = Tensor(mean_aggregation_matrix(graph))
    for layer in encoder.layers:
        x = gin_layer(layer, x, agg)
    return x


def classifier_logits(classifier, f_v):
    x = f_v if isinstance(f_v, Tensor) else Tensor(f_v)
    h = relu(add_rowvec(matmul(x, classifier.w1), classifier.b1))
    return add_rowvec(matmul(h, classifier.w2), classifier.b2)


def classify(classifier, f_v):
    """Probability rows for each input embedding."""
    return softmax_rows(classifier_logits(classifier, f_v))


def adversarial_loss(classifier, groups, reversal_factor=None):
    """Same contract as ``adversary.adversarial_loss``: per group, the
    embeddings pass through grad_reverse (when a factor is given), the
    classifier, the softmax, the clamp and the log, and the one-hot mask
    picks the domain's column; the groups' losses add left to right."""
    if not groups:
        raise ValueError("adversarial_loss: no domain groups")
    total = None
    for emb, domain in groups:
        if emb.shape[0] == 0:
            raise ValueError(f"adversarial_loss: empty group for domain {domain}")
        x = emb if isinstance(emb, Tensor) else Tensor(emb)
        if reversal_factor is not None:
            x = grad_reverse(x, reversal_factor)
        probs = classify(classifier, x)
        safe = clamp_min(probs, LOG_FLOOR)
        mask = np.zeros((x.shape[0], classifier.n_domains))
        mask[:, domain] = 1.0
        picked = mul(log(safe), Tensor(mask))
        ce = scale(ad.tsum(picked), -1.0 / x.shape[0])
        total = ce if total is None else ad.add(total, ce)
    return total


def make_windows(x, history, horizon):
    """Same contract as ``data.make_windows``, one copied window at a time."""
    t_len, n_nodes = x.shape
    count = t_len - history - horizon + 1
    if count < 1:
        raise DataError(
            f"series of length {t_len} too short for history {history} + horizon {horizon}")
    node_ids, inputs, targets = [], [], []
    for start in range(count):
        for v in range(n_nodes):
            node_ids.append(v)
            inputs.append(x[start:start + history, v])
            targets.append(x[start + history:start + history + horizon, v])
    return WindowedDataset(
        np.array(node_ids, dtype=np.intp),
        np.array(inputs)[:, :, None],
        np.array(targets)[:, :, None],
    )


def biased_walk(graph, start, length, p, q, rng):
    """Same walk as ``node2vec._walk`` (called with an empty CDF memo),
    weights rebuilt per step."""
    walk = [int(start)]
    while len(walk) < length:
        cur = walk[-1]
        nbrs = graph.neighbors[cur]
        if not nbrs:
            break
        if len(walk) == 1:
            nxt = nbrs[rng.integers(len(nbrs))]
        else:
            prev = walk[-2]
            prev_nbrs = graph.neighbors[prev]
            weights = np.empty(len(nbrs))
            for i, x in enumerate(nbrs):
                if x == prev:
                    weights[i] = 1.0 / p
                elif x in prev_nbrs:
                    weights[i] = 1.0
                else:
                    weights[i] = 1.0 / q
            weights /= weights.sum()
            nxt = nbrs[rng.choice(len(nbrs), p=weights)]
        walk.append(int(nxt))
    return walk


def build_corpus(graph, walks_per_node, length, p=1.0, q=1.0, seed=0):
    """Same contract as ``node2vec.build_corpus``."""
    walks = []
    for node in range(graph.n_nodes):
        rng = np.random.default_rng([seed, 0x77A1C5, node])
        for _ in range(walks_per_node):
            walks.append(biased_walk(graph, node, length, p, q, rng))
    return walks


def _context_pairs(walk, window):
    for i, center in enumerate(walk):
        lo = max(0, i - window)
        hi = min(len(walk), i + window + 1)
        for j in range(lo, hi):
            if j != i:
                yield center, walk[j]


def train_skipgram(corpus, n_nodes, dim, window=3, negatives=5, epochs=5,
                   lr=0.025, seed=0, return_losses=False):
    """Same contract as ``node2vec.train_skipgram``: pairs as a list of
    tuples, one ``rng.choice`` per pair for its negatives. With no context
    pairs and epochs > 0 the epoch loss divides by zero."""
    rng = np.random.default_rng([seed, 0x5E1F])
    w_in = (rng.random((n_nodes, dim)) - 0.5) / dim
    w_out = np.zeros((n_nodes, dim))

    counts = np.zeros(n_nodes)
    for walk in corpus:
        for v in walk:
            counts[v] += 1
    noise = np.maximum(counts, 1.0) ** 0.75
    noise /= noise.sum()

    pairs = [pr for walk in corpus for pr in _context_pairs(walk, window)]
    total = max(1, epochs * len(pairs))
    epoch_losses = []
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        loss_sum = 0.0
        for k in order:
            center, ctx = pairs[k]
            cur_lr = lr * max(1e-4, 1.0 - step / total)
            step += 1
            targets = np.empty(negatives + 1, dtype=np.intp)
            targets[0] = ctx
            targets[1:] = rng.choice(n_nodes, size=negatives, p=noise)
            labels = np.zeros(negatives + 1)
            labels[0] = 1.0
            vin = w_in[center]
            vout = w_out[targets]
            scores = 1.0 / (1.0 + np.exp(-vout @ vin))
            loss_sum += -np.log(max(scores[0], 1e-12)) - np.log(
                np.maximum(1.0 - scores[1:], 1e-12)).sum()
            err = scores - labels
            grad_in = err @ vout
            w_out[targets] -= cur_lr * err[:, None] * vin[None, :]
            w_in[center] -= cur_lr * grad_in
        epoch_losses.append(loss_sum / len(pairs))
    feats = w_in.copy()
    if return_losses:
        return feats, epoch_losses
    return feats


def random_geometric_edges(n, rng):
    """The edge list of ``data._make_topology``'s random-geometric branch:
    one ``np.linalg.norm`` per node pair, then stragglers wired to their
    nearest neighbor."""
    pts = rng.random((n, 2))
    radius = 1.7 / math.sqrt(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if np.linalg.norm(pts[i] - pts[j]) < radius]
    deg = np.zeros(n)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for i in np.flatnonzero(deg == 0):
        d = np.linalg.norm(pts - pts[i], axis=1)
        d[i] = np.inf
        edges.append((i, int(d.argmin())))
    return edges


def permuted_graph(graph, perm):
    """graph with node i relabeled as perm[i]."""
    perm = np.asarray(perm)
    return RoadGraph(graph.n_nodes, [(perm[u], perm[v]) for u, v in graph.edges])


def synth_generate(spec):
    """Same contract as ``data.synth_generate``, each step a new array and
    the graph's matrix from ``mean_aggregation_matrix``: one smoothed day,
    tiled over the days, plus one T x N noise draw; returns the graph and
    the T x N values."""
    rng = np.random.default_rng([spec.seed, 0xC17F])
    graph = _make_topology(spec, rng)
    steps_per_day = 24 * 60 // spec.interval_minutes
    hours = np.arange(steps_per_day) * spec.interval_minutes / 60.0
    profile = np.full(steps_per_day, spec.base_flow)
    for amp, peak in zip(spec.peak_amplitudes, spec.peak_hours, strict=True):
        centered = hours - peak - spec.phase_shift_hours
        centered = (centered + 12.0) % 24.0 - 12.0
        profile = profile + amp * np.exp(
            -0.5 * (centered / spec.peak_width_hours) ** 2)
    node_scale = 1.0 + spec.node_scale_spread * (rng.random(spec.n_nodes) - 0.5) * 2
    day = profile[:, None] * node_scale[None, :]
    agg = mean_aggregation_matrix(graph)
    day = (1.0 - spec.smoothing) * day + spec.smoothing * (day @ agg.T)
    x = np.tile(day, (spec.days, 1))
    x = x + spec.noise_level * rng.standard_normal(x.shape)
    return graph, np.maximum(x, 0.0)


def read_table(path, parse_first, width=None):
    """The first cells, read by parse_first, and the float rest of each row
    of the CSV file at path, as lists; every row is as wide as the header,
    which is `width` cells wide when that is given."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if width is not None and len(header) != width:
            raise DataError(f"{path}: expected {width} columns, found {len(header)}")
        firsts, rows = [], []
        for ln, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise DataError(f"{path}, line {ln}: row width {len(parts)}, "
                                f"header width {len(header)}")
            firsts += read_cells(parse_first, parts[:1], path, ln, header)
            rows.append(read_cells(float, parts[1:], path, ln, header[1:]))
    return firsts, rows


def load_series(path, graph):
    """Same contract as ``data.load_series``."""
    stamps, rows = read_table(path, datetime.fromisoformat, graph.n_nodes + 1)
    if len(rows) < 2:
        raise DataError(f"{path}: {len(rows)} rows, too few to fix the interval")
    aware = stamps[0].tzinfo is not None
    for i, stamp in enumerate(stamps):
        if (stamp.tzinfo is not None) != aware:
            raise DataError(f"{path}, line {i + 2}: a timezone-"
                            f"{'naive' if aware else 'aware'} timestamp after "
                            f"timezone-{'aware' if aware else 'naive'} ones")
    step, minute = stamps[1] - stamps[0], timedelta(minutes=1)
    if step > timedelta(0) and step % minute:
        raise DataError(f"{path}, line 3: interval {step} is not whole minutes")
    if step > timedelta(days=1):
        raise DataError(f"{path}, line 3: interval {step} is longer than a day")
    if step > timedelta(0) and timedelta(days=1) % step:
        raise DataError(f"{path}, line 3: interval {step} does not divide a day")
    for i in range(1, len(stamps)):
        delta = stamps[i] - stamps[i - 1]
        if delta <= timedelta(0):
            raise DataError(f"{path}, line {i + 2}: timestamps not strictly increasing")
        if delta != step:
            kind = "gap" if delta > step else "shorter step"
            raise DataError(f"{path}, line {i + 2}: {kind} of {delta}; "
                            f"the interval is {step}")
    return TrafficSeries(np.array(rows), step // minute, stamps[0])


def load_features(path):
    """Same contract as ``node2vec.load_features``."""
    nodes, rows = read_table(path, int)
    if not rows:
        raise DataError(f"{path}: no feature rows")
    if sorted(nodes) != list(range(len(nodes))):
        raise DataError(f"{path}: node ids are not exactly 0..{len(nodes) - 1}")
    return np.array(rows)[np.argsort(nodes)]

