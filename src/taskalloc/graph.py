"""Undirected connected interaction topology, stored sparsely.

Nodes are agents, indexed 0..n-1. ``Graph.adjacency`` is the (2m, 2)
int64 array of the nonzero coordinates (i, j) of the symmetric 0/1
adjacency matrix in row-major order (its ``np.argwhere``): each of the m
edges appears once in each direction, so memory is O(m). A Graph is built
from (i, j) pairs in either direction and with repeats, and raises
NodeOutOfRangeError, SelfLoopError or DisconnectedError (naming the
nodes unreachable from node 0) otherwise.

The breadth-first search from node 0 that checks connectivity is kept:
``Graph.depth`` and ``Graph.parent`` are its spanning tree (each node's
distance from node 0, and its parent one level shallower, -1 at the
root), so a graph is traversed once in its life.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedError, NodeOutOfRangeError, SelfLoopError


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected connected graph over ``n`` agents."""

    n: int
    adjacency: np.ndarray
    depth: np.ndarray = field(init=False, repr=False)
    parent: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"need at least 1 agent, got {n}")
        pairs = np.asarray(self.adjacency, dtype=np.int64).reshape(-1, 2)
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
        depth, parent = _bfs(self, 0)
        unreached = np.flatnonzero(depth < 0)
        if unreached.size:
            raise DisconnectedError(unreached.tolist())
        for name, arr in (("depth", depth), ("parent", parent)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def from_edge_list(n: int, edges) -> Graph:
    """``Graph(n, edges)``: a connected graph from undirected 0-based pairs."""
    return Graph(n, edges)


def diameter(g: Graph) -> int:
    """Longest shortest-path distance over all node pairs."""
    return max(int(_bfs(g, start)[0].max()) for start in range(g.n))


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Sorted (i, j) pairs with i < j; inverse of from_edge_list."""
    upper = g.adjacency[g.adjacency[:, 0] < g.adjacency[:, 1]]
    return [(i, j) for i, j in upper.tolist()]


def _bfs(g: Graph, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances from start (-1 if unreached) and BFS parents (-1 at start
    and at unreached nodes), one frontier at a time, in O(n + m) work."""
    rows, cols = g.adjacency.T
    row_start = np.searchsorted(rows, np.arange(g.n + 1))
    degree = np.diff(row_start)
    dist = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = np.array([start])
    level = 0
    while frontier.size:
        level += 1
        # the adjacency pairs (u, v) of every u in the frontier
        count = degree[frontier]
        end = count.cumsum()
        pair = np.repeat(row_start[frontier] + count - end, count) + np.arange(end[-1])
        v = cols[pair]
        new = dist[v] < 0
        v, u = v[new], rows[pair[new]]
        # a node reached from several frontier nodes keeps the one written last
        parent[v] = u
        frontier = v[parent[v] == u]
        dist[frontier] = level
    return dist, parent
