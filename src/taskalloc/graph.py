"""Undirected connected interaction topology, stored sparsely.

Nodes are agents, indexed 0..n-1. ``Graph.adjacency`` is the (2m, 2)
int64 array of the nonzero coordinates (i, j) of the symmetric 0/1
adjacency matrix in row-major order (its ``np.argwhere``): each of the m
edges appears once in each direction, so memory is O(m). A Graph is built
from (i, j) pairs in either direction and with repeats, and raises
NodeOutOfRangeError, SelfLoopError or DisconnectedError (naming the
nodes unreachable from node 0) otherwise; pairs that are not an integer
(k, 2) array raise ValueError rather than being cast.

Connectivity is checked once, when the Graph is built, by a breadth-first
search from node 0 (_bfs) that keeps distances only: one Python pass over
the CSR lists, O(n + m) however deep the graph. ``diameter`` runs it from
every node.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, NodeOutOfRangeError, SelfLoopError


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected connected graph over ``n`` agents."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"need at least 1 agent, got {n}")
        pairs = np.asarray(self.adjacency)
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
        elif pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(
                f"edges must be an integer (k, 2) array, got {pairs.dtype} of shape {pairs.shape}"
            )
        pairs = pairs.astype(np.int64)
        outside = (pairs < 0) | (pairs >= n)
        if outside.any():
            raise NodeOutOfRangeError(int(pairs[outside][0]), n)
        i, j = pairs.T
        loops = i == j
        if loops.any():
            raise SelfLoopError(int(i[loops][0]))
        codes = np.sort(np.concatenate([i * n + j, j * n + i]))
        codes = codes[np.diff(codes, prepend=-1) > 0]  # each pair once
        adj = np.stack(np.divmod(codes, n), axis=1)
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        unreached = np.flatnonzero(_bfs(self, 0) < 0)
        if unreached.size:
            raise DisconnectedError(unreached.tolist())


def from_edge_list(n: int, edges) -> Graph:
    """``Graph(n, edges)``: a connected graph from undirected 0-based pairs."""
    return Graph(n, edges)


def diameter(g: Graph) -> int:
    """Longest shortest-path distance over all node pairs."""
    return max(int(_bfs(g, start).max()) for start in range(g.n))


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Sorted (i, j) pairs with i < j; inverse of from_edge_list."""
    upper = g.adjacency[g.adjacency[:, 0] < g.adjacency[:, 1]]
    return [(i, j) for i, j in upper.tolist()]


def _bfs(g: Graph, start: int) -> np.ndarray:
    """Distances from start, -1 at unreached nodes."""
    cols = g.adjacency[:, 1].tolist()
    row_start = np.searchsorted(g.adjacency[:, 0], np.arange(g.n + 1)).tolist()
    dist = [-1] * g.n
    dist[start] = 0
    queue = [start]
    for u in queue:  # the loop also visits the nodes appended while it runs
        level = dist[u] + 1
        for v in cols[row_start[u] : row_start[u + 1]]:
            if dist[v] < 0:
                dist[v] = level
                queue.append(v)
    return np.array(dist, dtype=np.int64)
