"""Raw node features via node2vec: biased second-order walks + skip-gram.

Walk transition weights follow the standard node2vec scheme: 1/p to return
to the previous node, 1 to a common neighbor, 1/q otherwise. Skip-gram is
trained with negative sampling over a unigram^0.75 node distribution.

Both samplers invert a cumulative distribution built once (per
``build_corpus`` call for each (previous, current) node pair of the walks,
per ``train_skipgram`` call for the negatives) with one ``searchsorted``
over uniform draws. That is exactly what ``Generator.choice(..., p=...)``
does, without rebuilding and checking the CDF on every call, so the random
streams, corpora and features are the same as sampling with ``choice``.

The skip-gram update is sequential SGD over the permuted context pairs. A
pair reads and writes its center's ``w_in`` row and its targets' ``w_out``
rows alone, so consecutive pairs that share no row commute: ``_runs`` cuts
the pairs into maximal runs of such pairs, and each run of several pairs is
updated as one stack, through the same float operations and BLAS routines
as one pair at a time, so the features are the same bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .textio import DataError, read_table, write_table

# Context pairs whose negatives are drawn and runs found in one piece,
# bounding the memory of a large corpus; the draws and features are the
# same for any block size.
_NEGATIVE_BLOCK = 1 << 12


def _inverse_cdf(weights):
    """The CDF ``Generator.choice`` inverts for probabilities ``weights``."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def _transition_cdf(graph, prev, cur, p, q):
    nbrs = graph.neighbors[cur]
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
    return _inverse_cdf(weights)


def _walk(graph, start, length, p, q, rng, cdfs):
    """One second-order random walk from start, stopping early at a dead
    end; the transition CDFs are memoized in cdfs, a dict keyed by (prev,
    cur) that is valid for one graph, p and q."""
    walk = [int(start)]
    while len(walk) < length:
        cur = walk[-1]
        nbrs = graph.neighbors[cur]
        if not nbrs:
            break
        if len(walk) == 1:
            nxt = nbrs[rng.integers(len(nbrs))]
        else:
            key = (walk[-2], cur)
            cdf = cdfs.get(key)
            if cdf is None:
                cdf = cdfs[key] = _transition_cdf(graph, *key, p, q)
            nxt = nbrs[cdf.searchsorted(rng.random(), side="right")]
        walk.append(int(nxt))
    return walk


def build_corpus(graph, walks_per_node, length, p=1.0, q=1.0, seed=0):
    """walks_per_node walks from every node; per-node RNG streams keep the
    corpus deterministic regardless of iteration order."""
    if walks_per_node < 1 or length < 1:
        raise ValueError("walks_per_node and length must be positive")
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    cdfs = {}
    walks = []
    for node in range(graph.n_nodes):
        rng = np.random.default_rng([seed, 0x77A1C5, node])
        for _ in range(walks_per_node):
            walks.append(_walk(graph, node, length, p, q, rng, cdfs))
    return walks


def _context_pairs(corpus, window):
    """The corpus as one array of nodes, and its (P, 2) array of (center,
    context) pairs: walk by walk, center by center, context positions
    ascending."""
    lengths = np.fromiter((len(w) for w in corpus), dtype=np.intp,
                          count=len(corpus))
    nodes = np.fromiter(itertools.chain.from_iterable(corpus), dtype=np.intp,
                        count=int(lengths.sum()))
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    stop = start + np.repeat(lengths, lengths)
    offsets = np.array([d for d in range(-window, window + 1) if d != 0],
                       dtype=np.intp)
    ctx = np.arange(nodes.size)[:, None] + offsets
    valid = (ctx >= start[:, None]) & (ctx < stop[:, None])
    centers = np.broadcast_to(nodes[:, None], ctx.shape)[valid]
    return nodes, np.stack([centers, nodes[ctx[valid]]], axis=1)


def _runs(centers, targets):
    """Bounds [0, ..., P] of the maximal runs of consecutive pairs that
    share no row: pair j, with w_in row centers[j] and w_out rows
    targets[j], starts a new run when a row of it belongs to an earlier pair
    of the current run. Repeated targets of one pair are no conflict."""
    n, width = targets.shape[0], targets.shape[1] + 1
    # w_in row r is key 2r and w_out row r key 2r + 1, one entry per row a
    # pair touches, in pair order; sorting key * size + entry sorts the
    # entries by key, each key's entries in pair order
    keys = np.concatenate([2 * centers[:, None], 2 * targets + 1], axis=1)
    size = keys.size
    key, entry = np.divmod(np.sort(keys.ravel() * size + np.arange(size)), size)
    pair = entry // width
    # for each entry, the pair of the previous entry of its key, if another
    prev = np.full(size, -1)
    prev[entry[1:]] = np.where((key[1:] == key[:-1]) & (pair[1:] != pair[:-1]),
                               pair[:-1], -1)
    bounds = [0]
    for j, last in enumerate(prev.reshape(n, width).max(axis=1).tolist()):
        if last >= bounds[-1]:
            bounds.append(j)
    bounds.append(n)
    return bounds


def train_skipgram(corpus, n_nodes, dim, window=3, negatives=5, epochs=5,
                   lr=0.025, seed=0):
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

    nodes, pairs = _context_pairs(corpus, window)
    n_pairs = len(pairs)
    if epochs > 0 and n_pairs == 0:
        raise ValueError(f"no context pairs in the corpus with window {window}")
    counts = np.bincount(nodes, minlength=n_nodes)
    noise = np.maximum(counts, 1.0) ** 0.75
    noise /= noise.sum()
    noise_cdf = _inverse_cdf(noise)

    labels = np.zeros(negatives + 1)
    labels[0] = 1.0
    total = max(1, epochs * n_pairs)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n_pairs)
        for lo in range(0, n_pairs, _NEGATIVE_BLOCK):
            block = order[lo:lo + _NEGATIVE_BLOCK]
            centers = pairs[block, 0]
            targets = np.empty((len(block), negatives + 1), dtype=np.intp)
            targets[:, 0] = pairs[block, 1]
            targets[:, 1:] = noise_cdf.searchsorted(
                rng.random((len(block), negatives)), side="right")
            # lr * max(1e-4, 1.0 - step / total) for each pair's step, in
            # the same IEEE operations
            rates = lr * np.maximum(
                1e-4, 1.0 - np.arange(step, step + len(block)) / total)
            step += len(block)
            bounds = _runs(centers, targets)
            center_ids, rate_of = centers.tolist(), rates.tolist()
            for s, e in zip(bounds, bounds[1:]):
                if e - s == 1:
                    center, tgt, cur_lr = center_ids[s], targets[s], rate_of[s]
                    vin = w_in[center]
                    vout = w_out.take(tgt, axis=0)
                    scores = 1.0 / (1.0 + np.exp(-vout @ vin))
                    err = scores - labels
                    grad_in = err @ vout
                    vout -= np.multiply.outer(cur_lr * err, vin)
                    w_out[tgt] = vout
                    w_in[center] -= cur_lr * grad_in
                else:
                    # the same operations on (k, K, d) and (k, d) stacks;
                    # each slice of a matmul has its pair's operand shapes,
                    # so goes through the same BLAS routine
                    run, tgt, cur_lr = centers[s:e], targets[s:e], rates[s:e, None]
                    vin = w_in.take(run, axis=0)
                    vout = w_out.take(tgt, axis=0)
                    scores = 1.0 / (1.0 + np.exp((-vout @ vin[:, :, None])[:, :, 0]))
                    err = scores - labels
                    grad_in = (err[:, None, :] @ vout)[:, 0]
                    vout -= (cur_lr * err)[:, :, None] * vin[:, None, :]
                    w_out[tgt] = vout
                    w_in[run] = vin - cur_lr * grad_in
    return w_in


def raw_features(graph, dim, walks_per_node=200, walk_length=8, p=1.0, q=1.0,
                 window=3, negatives=5, epochs=5, lr=0.025, seed=0):
    """Full node2vec pass: corpus then skip-gram, one call per road network."""
    corpus = build_corpus(graph, walks_per_node, walk_length, p, q, seed)
    return train_skipgram(corpus, graph.n_nodes, dim, window=window,
                          negatives=negatives, epochs=epochs, lr=lr, seed=seed)


def save_features(features, path):
    """CSV export: node id first, then the feature values."""
    write_table(path, ["node"] + [f"f{i}" for i in range(features.shape[1])],
                enumerate(features))


def load_features(path):
    """Read a save_features CSV; node ids must be exactly 0..N-1, every row
    as wide as the header and every feature a finite number. DataError
    names the path, and the line and column of a bad cell. The features
    go straight into one float64 array (``textio.read_table``)."""
    nodes, values = read_table(path, int)
    if not nodes:
        raise DataError(f"{path}: no feature rows")
    if sorted(nodes) != list(range(len(nodes))):
        raise DataError(f"{path}: node ids are not exactly 0..{len(nodes) - 1}")
    return values[np.argsort(nodes)]
