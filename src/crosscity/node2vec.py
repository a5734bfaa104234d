"""Raw node features via node2vec: biased second-order walks + skip-gram.

Walk transition weights follow the standard node2vec scheme: 1/p to return
to the previous node, 1 to a common neighbor, 1/q otherwise. Sampling is
linear over the neighbor list (graphs here are desk scale, no alias tables).
Skip-gram is trained with negative sampling over a unigram^0.75 node
distribution.
"""

from __future__ import annotations

import numpy as np

from .data import DataError


def biased_walk(graph, start, length, p, q, rng):
    """One second-order random walk; stops early at a dead end."""
    if length < 1:
        raise ValueError("walk length must be >= 1")
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
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
    """walks_per_node walks from every node; per-node RNG streams keep the
    corpus deterministic regardless of iteration order."""
    if walks_per_node < 1 or length < 1:
        raise ValueError("walks_per_node and length must be positive")
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
    """Skip-gram with negative sampling over walk windows.

    Returns an (n_nodes, dim) raw-feature matrix (the input-side vectors).
    Learning rate decays linearly over epochs. epochs=0 returns the random
    initialization unchanged.
    """
    if not corpus:
        raise ValueError("empty walk corpus")
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


def raw_features(graph, dim, walks_per_node=200, walk_length=8, p=1.0, q=1.0,
                 window=3, negatives=5, epochs=5, lr=0.025, seed=0):
    """Full node2vec pass: corpus then skip-gram, one call per road network."""
    corpus = build_corpus(graph, walks_per_node, walk_length, p, q, seed)
    return train_skipgram(corpus, graph.n_nodes, dim, window=window,
                          negatives=negatives, epochs=epochs, lr=lr, seed=seed)


def save_features(features, path):
    """CSV export: node id first, then the feature values."""
    with open(path, "w") as fh:
        fh.write("node," + ",".join(f"f{i}" for i in range(features.shape[1])) + "\n")
        for v in range(features.shape[0]):
            fh.write(str(v) + "," + ",".join(repr(float(x)) for x in features[v]) + "\n")


def load_features(path):
    """Read a save_features CSV; node ids must be exactly 0..N-1 and every
    row equally wide."""
    rows = []
    with open(path) as fh:
        fh.readline()  # header
        for line in fh:
            parts = line.strip().split(",")
            rows.append((int(parts[0]), [float(x) for x in parts[1:]]))
    if not rows:
        raise DataError(f"{path}: no feature rows")
    rows.sort()
    if [v for v, _ in rows] != list(range(len(rows))):
        raise DataError(f"{path}: node ids are not exactly 0..{len(rows) - 1}")
    if len({len(vals) for _, vals in rows}) > 1:
        raise DataError(f"{path}: feature rows differ in width")
    return np.array([vals for _, vals in rows])
