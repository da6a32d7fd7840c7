"""Undirected connected interaction topology.

Nodes are agents, indexed 0..n-1. The adjacency matrix is symmetric 0/1
with a zero diagonal, and every node is reachable from node 0: a
:class:`Graph` raises ValueError or DisconnectedError (naming the
unreachable nodes) otherwise, however it is built.
"""

from dataclasses import dataclass
from collections import deque

import numpy as np

from .errors import DisconnectedError, NodeOutOfRangeError, SelfLoopError


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected connected graph over ``n`` agents."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least 1 agent, got {self.n}")
        adj = np.asarray(self.adjacency, dtype=np.int64)
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}, got {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency diagonal must be zero")
        if not np.isin(adj, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        reached = _reachable_from_zero(adj)
        if not reached.all():
            raise DisconnectedError(np.flatnonzero(~reached).tolist())
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)


def from_edge_list(n: int, edges) -> Graph:
    """Build a connected graph from undirected (i, j) pairs, 0-based.

    Duplicate edges are idempotent. Raises SelfLoopError, NodeOutOfRangeError,
    or DisconnectedError (naming the unreachable nodes).
    """
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        i, j = int(i), int(j)
        for node in (i, j):
            if not 0 <= node < n:
                raise NodeOutOfRangeError(node, n)
        if i == j:
            raise SelfLoopError(i)
        adj[i, j] = 1
        adj[j, i] = 1
    return Graph(n=n, adjacency=adj)


def neighbors(g: Graph, i: int) -> set[int]:
    """Set of agents adjacent to i; never contains i itself."""
    if not 0 <= i < g.n:
        raise NodeOutOfRangeError(i, g.n)
    return set(np.flatnonzero(g.adjacency[i]).tolist())


def is_connected(g) -> bool:
    """True iff breadth-first search from node 0 reaches every node.

    Accepts a Graph or a raw square adjacency matrix, so unvalidated
    topologies can be probed too.
    """
    adj = g.adjacency if isinstance(g, Graph) else np.asarray(g)
    return bool(_reachable_from_zero(adj).all())


def diameter(g: Graph) -> int:
    """Longest shortest-path distance over all node pairs."""
    return max(int(_bfs(g.adjacency, start)[0].max()) for start in range(g.n))


def bfs_tree(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first spanning tree rooted at node 0: each node's depth
    and its parent, one level shallower (-1 at the root)."""
    return _bfs(g.adjacency, 0)


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Sorted (i, j) pairs with i < j; inverse of from_edge_list."""
    ii, jj = np.nonzero(np.triu(g.adjacency))
    return sorted(zip(ii.tolist(), jj.tolist()))


def _reachable_from_zero(adj: np.ndarray) -> np.ndarray:
    return _bfs(adj, 0)[0] >= 0


def _bfs(adj: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances from start (-1 if unreached) and BFS parents (-1 at start
    and at unreached nodes)."""
    n = adj.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(int(v))
    return dist, parent
