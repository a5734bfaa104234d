import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosscity.data import DataError, SyntheticCitySpec, synth_generate
from crosscity.graph import RoadGraph
from crosscity import node2vec as n2v

import composed


@pytest.fixture
def path_graph():
    return RoadGraph(2, [(0, 1)])


@pytest.fixture
def two_cliques():
    # nodes 0-4 fully connected, 5-9 fully connected, one bridge 4-5
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    edges += [(4, 5)]
    return RoadGraph(10, edges)


class TestWalks:
    def test_sole_neighbor_always_chosen(self, path_graph):
        rng = np.random.default_rng(0)
        walk = n2v._walk(path_graph, 0, 2, 1.0, 1.0, rng, {})
        assert walk == [0, 1]

    def test_isolated_start_gives_singleton(self):
        g = RoadGraph(3, [(1, 2)])
        walk = n2v._walk(g, 0, 8, 1.0, 1.0, np.random.default_rng(0), {})
        assert walk == [0]

    def test_walks_respect_adjacency(self, two_cliques):
        rng = np.random.default_rng(7)
        for start in range(10):
            walk = n2v._walk(two_cliques, start, 8, 0.5, 2.0, rng, {})
            for a, b in zip(walk, walk[1:]):
                assert two_cliques.adjacency[a, b] == 1.0

    def test_uniform_when_p_equals_q(self):
        # empirical next-node frequency from a fixed node within binomial 3 sigma
        g = RoadGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        rng = np.random.default_rng(11)
        counts = {1: 0, 2: 0, 3: 0}
        steps = 10_000
        for _ in range(steps):
            walk = n2v._walk(g, 1, 3, 1.0, 1.0, rng, {})
            # second transition leaves node walk[1]; count choices out of node 0
            if walk[1] == 0:
                counts[walk[2]] += 1
        total = sum(counts.values())
        expect = total / 3
        sigma = np.sqrt(total * (1 / 3) * (2 / 3))
        for v in counts:
            assert abs(counts[v] - expect) <= 3 * sigma

    def test_return_bias_with_small_p(self):
        g = RoadGraph(3, [(0, 1), (1, 2)])
        rng = np.random.default_rng(3)
        returns = 0
        for _ in range(2000):
            walk = n2v._walk(g, 0, 3, 0.01, 1.0, rng, {})
            if walk == [0, 1, 0]:
                returns += 1
        assert returns > 1800  # 1/p = 100 vs 1/q = 1


class TestCorpus:
    def test_corpus_size(self, two_cliques):
        walks = n2v.build_corpus(two_cliques, walks_per_node=200, length=8)
        assert len(walks) == 10 * 200

    def test_walk_length_bound(self, two_cliques):
        walks = n2v.build_corpus(two_cliques, 5, 8)
        assert all(1 <= len(w) <= 8 for w in walks)

    def test_seed_determinism(self, two_cliques):
        a = n2v.build_corpus(two_cliques, 10, 8, seed=42)
        b = n2v.build_corpus(two_cliques, 10, 8, seed=42)
        assert a == b
        c = n2v.build_corpus(two_cliques, 10, 8, seed=43)
        assert a != c


class TestSkipgram:
    def test_output_shape(self, two_cliques):
        corpus = n2v.build_corpus(two_cliques, 10, 8, seed=0)
        feats = n2v.train_skipgram(corpus, 10, dim=64, epochs=1)
        assert feats.shape == (10, 64)
        assert np.isfinite(feats).all()

    def test_zero_epochs_returns_initialization(self, two_cliques):
        corpus = n2v.build_corpus(two_cliques, 5, 8, seed=0)
        feats = n2v.train_skipgram(corpus, 10, dim=16, epochs=0, seed=9)
        assert feats.shape == (10, 16)
        assert np.isfinite(feats).all()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            n2v.train_skipgram([], 5, dim=8)

    def test_cliques_separate_in_embedding_space(self, two_cliques):
        # statistical check over 5 seeds: intra-clique cosine > inter-clique
        wins = 0
        for seed in range(5):
            corpus = n2v.build_corpus(two_cliques, 30, 8, seed=seed)
            feats = n2v.train_skipgram(corpus, 10, dim=16, epochs=3, seed=seed)
            unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
            sim = unit @ unit.T
            intra = np.mean([sim[i, j] for i in range(5) for j in range(5) if i != j]
                            + [sim[i, j] for i in range(5, 10) for j in range(5, 10) if i != j])
            inter = np.mean([sim[i, j] for i in range(5) for j in range(5, 10)])
            wins += intra > inter
        assert wins >= 4

    def test_loss_decreases_over_epochs(self, two_cliques):
        corpus = n2v.build_corpus(two_cliques, 20, 8, seed=1)
        # the library keeps no losses; composed.train_skipgram equals it
        # bit for bit and returns them
        _, losses = composed.train_skipgram(corpus, 10, dim=16, epochs=4,
                                            seed=1, return_losses=True)
        assert losses[-1] < losses[0]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return RoadGraph(n, [e for e, k in zip(pairs, keep) if k])


def skipgram_both(corpus, n_nodes, **kw):
    """(library, reference) results of train_skipgram; a reference that
    divides by zero (no context pairs) must be a library ValueError."""
    try:
        want = composed.train_skipgram(corpus, n_nodes, **kw)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="no context pairs"):
            n2v.train_skipgram(corpus, n_nodes, **kw)
        return None
    return n2v.train_skipgram(corpus, n_nodes, **kw), want


class TestEqualsReference:
    """The CDF samplers draw the same streams as one Generator.choice per
    sampled node (tests/composed.py), so every result is bit-identical."""

    @settings(max_examples=60, deadline=None)
    @given(graph=small_graphs(), start=st.integers(0, 7),
           length=st.integers(1, 9),
           p=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
           q=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_walk(self, graph, start, length, p, q, seed):
        start %= graph.n_nodes
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = n2v._walk(graph, start, length, p, q, got_rng, {})
        assert got == composed.biased_walk(graph, start, length, p, q, want_rng)
        assert got_rng.random() == want_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(graph=small_graphs(), walks_per_node=st.integers(1, 4),
           length=st.integers(1, 8),
           p=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
           q=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
           window=st.integers(0, 4), negatives=st.integers(0, 5),
           dim=st.integers(1, 8), epochs=st.integers(0, 3),
           seed=st.integers(0, 1000))
    def test_corpus_and_skipgram(self, graph, walks_per_node, length, p, q,
                                 window, negatives, dim, epochs, seed):
        corpus = n2v.build_corpus(graph, walks_per_node, length, p, q, seed)
        assert corpus == composed.build_corpus(graph, walks_per_node, length,
                                               p, q, seed)
        both = skipgram_both(corpus, graph.n_nodes, dim=dim, window=window,
                             negatives=negatives, epochs=epochs, lr=0.05,
                             seed=seed)
        if both is not None:
            assert np.array_equal(*both)

    def test_city_at_default_walk_settings(self):
        spec = SyntheticCitySpec(n_nodes=40, topology="random-geometric",
                                 days=1, seed=4)
        graph, _ = synth_generate(spec)
        corpus = n2v.build_corpus(graph, 10, 8, 0.5, 2.0, seed=4)
        assert corpus == composed.build_corpus(graph, 10, 8, 0.5, 2.0, seed=4)
        got, want = skipgram_both(corpus, 40, dim=16, epochs=2, seed=4)
        assert np.array_equal(got, want)

    def test_negatives_do_not_depend_on_the_block_size(self, two_cliques,
                                                       monkeypatch):
        corpus = n2v.build_corpus(two_cliques, 3, 6, seed=2)
        want = composed.train_skipgram(corpus, 10, dim=4, epochs=2, seed=2)
        for block in (1, 7, 64):
            monkeypatch.setattr(n2v, "_NEGATIVE_BLOCK", block)
            assert np.array_equal(
                n2v.train_skipgram(corpus, 10, dim=4, epochs=2, seed=2), want)


def test_feature_csv_round_trip(tmp_path, rng):
    feats = rng.standard_normal((6, 5))
    path = tmp_path / "f.csv"
    n2v.save_features(feats, path)
    back = n2v.load_features(path)
    assert np.array_equal(back, feats)


def test_feature_csv_rejects_node_ids_other_than_0_to_n(tmp_path):
    path = tmp_path / "f.csv"
    for ids in ((0, 2), (1, 2), (0, 0)):
        path.write_text("node,f0\n" + "".join(f"{v},1.0\n" for v in ids))
        with pytest.raises(DataError, match="node ids"):
            n2v.load_features(path)


def test_feature_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("node,f0,f1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DataError, match="width"):
        n2v.load_features(path)


@pytest.mark.parametrize("row, column", [("1,abc,2.0", "f0"), ("1,1.0,nan", "f1"),
                                         ("one,1.0,2.0", "node")])
def test_feature_csv_unreadable_cell_names_path_line_and_column(tmp_path, row,
                                                                column):
    path = tmp_path / "f.csv"
    path.write_text(f"node,f0,f1\n0,1.0,2.0\n{row}\n")
    with pytest.raises(DataError) as exc:
        n2v.load_features(path)
    assert f"{path}, line 3, column {column}: " in str(exc.value)


def test_feature_csv_rejects_a_file_without_rows(tmp_path):
    path = tmp_path / "f.csv"
    for text in ("", "node,f0\n"):
        path.write_text(text)
        with pytest.raises(DataError, match="no feature rows"):
            n2v.load_features(path)


def _recording_runs(monkeypatch):
    """The length of every run ``train_skipgram`` updates from now on."""
    lengths = []
    runs = n2v._runs

    def recording(centers, targets):
        bounds = runs(centers, targets)
        lengths.extend(np.diff(bounds).tolist())
        return bounds

    monkeypatch.setattr(n2v, "_runs", recording)
    return lengths


class TestBatchedRuns:
    """Runs of pairs that share no row are updated as one stack, with the
    same float operations as one pair at a time."""

    @pytest.fixture(scope="class")
    def city(self):
        spec = SyntheticCitySpec(n_nodes=200, topology="random-geometric",
                                 days=1, seed=5)
        graph, _ = synth_generate(spec)
        return graph, n2v.build_corpus(graph, 1, 5, 0.5, 2.0, seed=7)

    @pytest.mark.parametrize("negatives", [0, 1, 5])
    def test_city_equals_the_reference(self, city, negatives, monkeypatch):
        graph, corpus = city
        lengths = _recording_runs(monkeypatch)
        for dim in (1, 8, 64):
            for window in (1, 3):
                got, want = skipgram_both(corpus, graph.n_nodes, dim=dim,
                                          window=window, negatives=negatives,
                                          epochs=2, seed=dim + window)
                assert np.array_equal(got, want), (dim, window)
        assert 1 in lengths and max(lengths) > 1

    def test_blocks_that_cut_runs(self, monkeypatch):
        # a 60-node ring's corpus of more than 4,096 pairs: a block boundary
        # cuts the run it falls in, which must not change the features
        ring = RoadGraph(60, [(i, (i + 1) % 60) for i in range(60)])
        corpus = n2v.build_corpus(ring, 12, 8, seed=3)
        assert len(n2v._context_pairs(corpus, 1)[1]) > 4096
        want = composed.train_skipgram(corpus, 60, dim=4, window=1,
                                       negatives=1, epochs=2, seed=3)
        lengths = _recording_runs(monkeypatch)
        for block in (4096, 1000, 1 << 16):
            monkeypatch.setattr(n2v, "_NEGATIVE_BLOCK", block)
            assert np.array_equal(
                n2v.train_skipgram(corpus, 60, dim=4, window=1, negatives=1,
                                   epochs=2, seed=3), want), block
        assert max(lengths) > 1


@st.composite
def pair_blocks(draw):
    """(centers, targets) of a block of pairs over a few rows."""
    rows = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, 4))
    flat = draw(st.lists(st.integers(0, rows - 1), min_size=n * (width + 1),
                         max_size=n * (width + 1)))
    block = np.array(flat, dtype=np.intp).reshape(n, width + 1)
    return block[:, 0], block[:, 1:]


def _conflict(centers, targets, i, j):
    return (centers[i] == centers[j]
            or bool(np.intersect1d(targets[i], targets[j]).size))


@settings(max_examples=200, deadline=None)
@given(block=pair_blocks())
def test_runs_are_maximal_and_share_no_row(block):
    centers, targets = block
    bounds = n2v._runs(centers, targets)
    assert bounds[0] == 0 and bounds[-1] == len(centers)
    assert all(s < e for s, e in zip(bounds, bounds[1:]))
    for s, e in zip(bounds, bounds[1:]):
        for j in range(s + 1, e):
            for i in range(s, j):
                assert not _conflict(centers, targets, i, j), (i, j)
    for r, s in enumerate(bounds[1:-1], start=1):
        assert any(_conflict(centers, targets, i, s)
                   for i in range(bounds[r - 1], s)), s
