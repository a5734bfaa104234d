import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosscity.graph import GraphError, RoadGraph, load_graph, save_graph

import composed


def test_single_edge_adjacency():
    g = RoadGraph(2, [(0, 1)])
    assert g.adjacency.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_duplicate_and_reversed_edges_dedup():
    g = RoadGraph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == [(0, 1)]
    assert g.adjacency.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_out_of_range_edge_rejected():
    with pytest.raises(GraphError, match=r"\(0,5\)"):
        RoadGraph(3, [(0, 5)])


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        RoadGraph(3, [(1, 1)])


def test_adjacency_invariants(rng):
    n = 8
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, (15, 2)) if a != b]
    g = RoadGraph(n, edges)
    a = g.adjacency
    assert np.array_equal(a, a.T)
    assert set(np.unique(a)) <= {0.0, 1.0}
    assert np.all(np.diag(a) == 0)
    for v in range(n):
        assert g.neighbors[v] == sorted(np.flatnonzero(a[v]).tolist())


def test_isolated_nodes_allowed():
    g = RoadGraph(4, [(0, 1)])
    assert len(g.neighbors[2]) == 0
    assert g.mean_aggregation_matrix()[2].tolist() == [0.0] * 4


def test_mean_aggregation_equals_the_dense_reference(rng):
    for n in (1, 2, 5, 9, 40):
        for _ in range(4):
            pairs = rng.integers(0, n, (int(rng.integers(0, 3 * n + 1)), 2))
            g = RoadGraph(n, [(int(a), int(b)) for a, b in pairs if a != b])
            m = g.mean_aggregation_matrix()
            want = composed.mean_aggregation_matrix(g)
            assert m.tobytes() == want.tobytes()
            assert np.array_equal(g.adjacency, want > 0)


def test_mean_aggregation_rows_sum_to_degree_indicator():
    g = RoadGraph(3, [(0, 1), (1, 2)])
    m = g.mean_aggregation_matrix()
    assert np.allclose(m.sum(axis=1), [1.0, 1.0, 1.0])
    assert m[1, 0] == 0.5 and m[1, 2] == 0.5


def test_graph_holds_no_dense_matrix_and_builds_it_read_only():
    # on a 2,000-node ring any array of N^2 entries, even of bools, takes
    # 4 MB; the edges and neighbor lists take a small part of that
    n = 2000
    edges = [(i, (i + 1) % n) for i in range(n)]
    RoadGraph(3, [(0, 1)])  # no first-use allocation is counted below
    tracemalloc.start()
    try:
        g = RoadGraph(n, edges)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n // 2 and held < n * n // 2
    m = g.mean_aggregation_matrix()
    with pytest.raises(ValueError):
        m[0, 1] = 7.0
    again = g.mean_aggregation_matrix()
    assert again is not m and not again.flags.writeable
    assert np.array_equal(again, m)


def test_edge_list_round_trip(tmp_path):
    g = RoadGraph(5, [(0, 1), (2, 3), (1, 4)])
    path = tmp_path / "g.edges"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.n_nodes == 5
    assert g2.edges == g.edges


def test_load_graph_comments_and_errors(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# header\n0,1\n\n1, 2\n")
    g = load_graph(path)
    assert g.edges == [(0, 1), (1, 2)]
    path.write_text("0,1\nfoo,2\n")
    with pytest.raises(GraphError, match="line 2"):
        load_graph(path)


@pytest.mark.parametrize("text", [
    "", "# header only\n", "0,1\nfoo,2\n", "0,1\n1,2,3\n", "2,2\n", "-3,-1\n",
], ids=["empty", "comment-only", "non-integer", "three-ids", "self-loop",
        "negative-ids"])
def test_every_error_names_the_path(tmp_path, text):
    path = tmp_path / "city.edges"
    path.write_text(text)
    with pytest.raises(GraphError) as exc:
        load_graph(path)
    assert str(exc.value).startswith((f"{path}: ", f"{path}, line "))


# edge lines with ids up to 64 (`adjacency` is a dense N x N array), mixed
# with separators, comments and junk that holds no digits
EDGE_LINE = st.one_of(
    st.builds("{},{}".format, st.integers(-2, 64), st.integers(-2, 64)),
    st.builds("{} {} {}".format, st.integers(0, 64), st.integers(0, 64),
              st.sampled_from(["", "# c", "7", ",", "x"])),
    st.text(" ,#\t.-ab\n", max_size=8),
    st.builds("{}.5,{}".format, st.integers(0, 64), st.integers(0, 64)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(EDGE_LINE, max_size=12))
def test_fuzzed_edge_lists_parse_or_raise_graph_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzzed.edges"
    path.write_text("\n".join(lines))
    try:
        g = load_graph(path)
    except GraphError:
        return
    assert isinstance(g, RoadGraph)
    assert g.adjacency.shape == (g.n_nodes, g.n_nodes)
