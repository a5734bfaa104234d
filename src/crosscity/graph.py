"""Road-network topology: undirected edges plus neighbor lists."""

from __future__ import annotations

from itertools import chain

import numpy as np

from .textio import atomic_open, content_lines


class GraphError(ValueError):
    pass


class RoadGraph:
    """Undirected graph over nodes 0..n-1. It keeps its sorted edge list and
    each node's sorted neighbor list, memory linear in the edges; the dense
    matrices below are built on demand and kept by no graph."""

    def __init__(self, n_nodes, edges):
        if n_nodes <= 0:
            raise GraphError("node count must be positive")
        self.n_nodes = int(n_nodes)
        dedup = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self-loop on node {u} rejected")
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise GraphError(f"edge ({u},{v}) out of range for {n_nodes} nodes")
            dedup.add((min(u, v), max(u, v)))
        self.edges = sorted(dedup)
        # each list comes out ascending: the edges run in (min, max) order,
        # so a node meets its smaller neighbors in order, then its larger ones
        self.neighbors = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            self.neighbors[u].append(v)
            self.neighbors[v].append(u)

    @property
    def adjacency(self):
        """Binary symmetric N x N adjacency, derived from a fresh
        mean-aggregation matrix."""
        return (self.mean_aggregation_matrix() > 0).astype(np.float64)

    def mean_aggregation_matrix(self):
        """A new read-only N x N matrix: row v holds 1 / deg(v) at v's
        neighbors, and an isolated node's row is all zero. Every call builds
        the same values; a caller that needs it often keeps it."""
        deg = np.fromiter(map(len, self.neighbors), np.intp, count=self.n_nodes)
        rows = np.repeat(np.arange(self.n_nodes), deg)
        cols = np.fromiter(chain.from_iterable(self.neighbors), np.intp, count=len(rows))
        m = np.zeros((self.n_nodes, self.n_nodes))
        m[rows, cols] = 1.0 / deg[rows]
        m.flags.writeable = False
        return m


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
