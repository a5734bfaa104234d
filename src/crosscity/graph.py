"""Road-network topology: undirected binary adjacency plus neighbor lists."""

from __future__ import annotations

import numpy as np

from .textio import atomic_open, content_lines


class GraphError(ValueError):
    pass


class RoadGraph:
    """Undirected graph over nodes 0..n-1 with binary symmetric adjacency."""

    def __init__(self, n_nodes, edges):
        if n_nodes <= 0:
            raise GraphError("node count must be positive")
        self.n_nodes = int(n_nodes)
        adj = np.zeros((n_nodes, n_nodes), dtype=np.float64)
        dedup = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self-loop on node {u} rejected")
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise GraphError(f"edge ({u},{v}) out of range for {n_nodes} nodes")
            dedup.add((min(u, v), max(u, v)))
        for u, v in dedup:
            adj[u, v] = 1.0
            adj[v, u] = 1.0
        self.edges = sorted(dedup)
        self.neighbors = [sorted(np.flatnonzero(adj[i]).tolist()) for i in range(n_nodes)]
        deg = adj.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._mean_agg = np.where(deg > 0, adj / deg, 0.0)
        self._mean_agg.flags.writeable = False

    @property
    def adjacency(self):
        """Binary adjacency, rebuilt from the mean-aggregation matrix: that is
        the one dense N x N array a graph keeps."""
        return (self._mean_agg > 0).astype(np.float64)

    def mean_aggregation_matrix(self):
        """Row-normalized adjacency, rows of isolated nodes all-zero; built
        with the graph, so every call returns the same read-only array."""
        return self._mean_agg


def load_graph(path):
    """Parse an edge-list file: one "u,v" per line, '#' comments, blank
    lines ok. The node count is the highest id + 1; every GraphError names
    the path."""
    edges = []
    for ln, line in content_lines(path):
        try:
            u, v = map(int, line.replace(",", " ").split())
        except ValueError:  # not two ids, or not integers
            raise GraphError(f"{path}, line {ln}: expected 'u,v' with integer "
                             f"node ids, got {line!r}") from None
        edges.append((u, v))
    if not edges:
        raise GraphError(f"{path}: empty edge list")
    try:
        return RoadGraph(max(map(max, edges)) + 1, edges)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def save_graph(graph, path):
    with atomic_open(path) as fh:
        fh.write("# edge list: u,v per line\n")
        for u, v in graph.edges:
            fh.write(f"{u},{v}\n")
