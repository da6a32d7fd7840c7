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
root), so a graph is traversed once in its life. The search is one Python
pass over the CSR lists (see _bfs), O(n + m) however deep the tree.
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
    and at unreached nodes). A node reached from several nodes of a frontier
    takes as parent the one whose adjacency pair comes last in frontier
    order: each level is walked backwards, so the first pair met wins, and
    the next frontier lists the nodes in the order of those pairs."""
    cols = g.adjacency[:, 1].tolist()
    row_start = np.searchsorted(g.adjacency[:, 0], np.arange(g.n + 1)).tolist()
    dist, parent = [-1] * g.n, [-1] * g.n
    dist[start] = 0
    frontier = [start]
    while frontier:
        level = dist[frontier[0]] + 1
        reached = []
        for u in reversed(frontier):
            for v in reversed(cols[row_start[u] : row_start[u + 1]]):
                if dist[v] < 0:
                    dist[v] = level
                    parent[v] = u
                    reached.append(v)
        reached.reverse()
        frontier = reached
    return np.array(dist, dtype=np.int64), np.array(parent, dtype=np.int64)
