import re

import numpy as np
import pytest
from conftest import adjacent, bfs_reference, random_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import graph
from taskalloc.costs import exponential, quadratic
from taskalloc.drd import DrdConfig, default_start, simulate
from taskalloc.errors import DisconnectedError, NodeOutOfRangeError, SelfLoopError
from taskalloc.graph import (
    Graph,
    diameter,
    edge_list,
    from_edge_list,
)
from taskalloc.lambda_solver import select_final, solve_lambda
from taskalloc.problem import AllocationProblem, in_feasible_set


def test_path_graph_neighbors():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert adjacent(g, 1) == {0, 2}
    assert adjacent(g, 0) == {1}
    assert adjacent(g, 2) == {1}


def test_two_node_complete():
    g = from_edge_list(2, [(0, 1)])
    assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])
    assert adjacent(g, 0) == {1}


def test_complete_triangle():
    g = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    assert adjacent(g, 0) == {1, 2}


def test_disconnected_lists_unreachable():
    with pytest.raises(DisconnectedError) as exc:
        from_edge_list(3, [(0, 1)])
    assert exc.value.unreachable == [2]


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        from_edge_list(3, [(0, 0), (0, 1), (1, 2)])


def test_node_out_of_range():
    with pytest.raises(NodeOutOfRangeError):
        from_edge_list(3, [(0, 3)])


def test_duplicate_edges_idempotent():
    g1 = from_edge_list(3, [(0, 1), (1, 2)])
    g2 = from_edge_list(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_validation_of_raw_graph():
    with pytest.raises(SelfLoopError):
        Graph(n=2, adjacency=np.array([[0, 1], [1, 1]]))
    with pytest.raises(NodeOutOfRangeError):
        Graph(n=2, adjacency=np.array([[0, 1], [1, 2]]))
    # node 2 isolated: the search from node 0 never reaches it
    with pytest.raises(DisconnectedError) as exc:
        Graph(n=3, adjacency=np.array([[0, 1], [1, 0]]))
    assert exc.value.unreachable == [2]


@pytest.mark.parametrize(
    "pairs, dtype, shape",
    [
        ([(0.9, 1)], "float64", (1, 2)),
        ([("0", "1")], "<U1", (1, 2)),
        ([(0, 1, 2)], "int64", (1, 3)),
        ([(True, False)], "bool", (1, 2)),
        (np.array([0, 1]), "int64", (2,)),
    ],
    ids=["float", "str", "triple", "bool", "flat"],
)
def test_non_integer_pairs_rejected(pairs, dtype, shape):
    # a float label is not truncated, nor a string parsed
    with pytest.raises(ValueError, match=re.escape(f"got {dtype} of shape {shape}")):
        from_edge_list(2, pairs)


def test_empty_and_int64_pairs_build():
    assert from_edge_list(1, []).adjacency.shape == (0, 2)
    g = from_edge_list(3, np.array([[0, 1], [2, 1]], dtype=np.int64))
    assert edge_list(g) == [(0, 1), (1, 2)]


def test_neighbor_reciprocity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        pairs = set(map(tuple, g.adjacency.tolist()))
        assert pairs == {(j, i) for i, j in pairs}
        assert all(i != j for i, j in pairs)
        for i in range(n):
            for j in adjacent(g, i):
                assert i in adjacent(g, j)


def test_adjacency_is_the_dense_matrix_nonzeros():
    # edge lists with repeated and reversed pairs, against a dense matrix
    # built here
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        edges = [(k, int(rng.integers(0, k))) for k in range(1, n)]
        for _ in range(int(rng.integers(0, 2 * n))):
            a, b = rng.choice(n, size=2, replace=False)
            edges.append((int(a), int(b)))
        edges += [(b, a) for a, b in edges if rng.random() < 0.3]
        edges += [edges[int(k)] for k in rng.integers(0, len(edges), size=n)]
        rng.shuffle(edges)
        dense = np.zeros((n, n), dtype=np.int64)
        for a, b in edges:
            dense[a, b] = dense[b, a] = 1
        g = from_edge_list(n, edges)
        assert g.adjacency.dtype == np.int64 and g.adjacency.shape == (dense.sum(), 2)
        np.testing.assert_array_equal(g.adjacency, np.argwhere(dense))
        np.testing.assert_array_equal(Graph(n, g.adjacency).adjacency, g.adjacency)
    n = 1000
    ring = [(k, (k + 1) % n) for k in range(n)]
    assert from_edge_list(n, ring + ring[::-1]).adjacency.nbytes == 32 * len(ring)


def test_edge_list_round_trip():
    edges = [(0, 1), (1, 2), (0, 3), (2, 3)]
    g = from_edge_list(4, edges)
    assert edge_list(g) == sorted(edges)
    g2 = from_edge_list(4, edge_list(g))
    assert np.array_equal(g.adjacency, g2.adjacency)


def test_diameter():
    assert diameter(from_edge_list(3, [(0, 1), (1, 2)])) == 2
    assert diameter(from_edge_list(3, [(0, 1), (1, 2), (0, 2)])) == 1
    assert diameter(from_edge_list(1, [])) == 0


def test_adjacency_immutable():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0


def test_bfs_tree_parents_are_one_level_up():
    rng = np.random.default_rng(17)
    graphs = [from_edge_list(1, []), from_edge_list(6, [(i, i + 1) for i in range(5)])]
    graphs += [random_graph(rng, int(rng.integers(2, 40))) for _ in range(30)]
    for g in graphs:
        depth = graph._bfs(g, 0)
        assert depth[0] == 0 and depth.min() == 0
        # every other node has a neighbour one level up, and neighbours are
        # at most one level apart: the depths are the shortest-path
        # distances, so the deepest is at most the diameter
        for v in range(1, g.n):
            assert depth[v] - 1 in depth[list(adjacent(g, v))]
        assert np.abs(np.diff(depth[g.adjacency], axis=1)).max(initial=0) <= 1
        assert depth.max() <= diameter(g)


def test_sparse_instance_with_1e5_agents():
    # a ring with n/3 chords and mixed families: the dense matrix would need
    # 74.5 GiB; no timing is asserted
    rng = np.random.default_rng(5)
    n = 100_000
    chords = rng.integers(0, n, size=(n // 3, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    g = from_edge_list(n, np.concatenate([ring, chords]))
    assert g.adjacency.nbytes == 32 * len(edge_list(g)) < 5 * 2**20

    depth = graph._bfs(g, 0)
    assert depth[0] == 0 and depth.min() == 0
    # every other node has a neighbour one level up, and neighbours are at
    # most one level apart: depth is the distance
    rows, cols = g.adjacency.T
    up = np.zeros(n, dtype=bool)
    up[rows[depth[cols] == depth[rows] - 1]] = True
    assert up[1:].all()
    assert np.abs(np.diff(depth[g.adjacency], axis=1)).max() <= 1

    lower = rng.uniform(0.0, 10.0, size=n)
    upper = lower + rng.uniform(1.0, 10.0, size=n)
    a = rng.uniform(1.0, 10.0, size=n)
    b = rng.uniform(1.0, 10.0, size=n)
    agents = tuple(
        exponential(a=a[k], lower=lower[k], upper=upper[k])
        if k % 2
        else quadratic(a=a[k], b=b[k], lower=lower[k], upper=upper[k])
        for k in range(n)
    )
    total = float(lower.sum() + 0.5 * (upper - lower).sum())
    p = AllocationProblem(graph=g, agents=agents, total=total)
    res = solve_lambda(p)
    assert res.method == "newton"
    assert abs(res.allocation.sum() - p.total) <= 1e-9 * p.total

    traj = simulate(p, default_start(p), DrdConfig(step=1e-3, max_steps=20))
    assert traj.steps == 20 and not traj.converged
    assert abs(traj.final.sum() - p.total) <= 1e-9 * p.total

    even = lower + 0.5 * (upper - lower)
    assert in_feasible_set(p, even)
    np.testing.assert_array_equal(select_final(p, even, res.allocation), res.allocation)


def test_graph_is_traversed_once(monkeypatch):
    # the connectivity check is the one BFS; select_final runs none
    calls = []
    bfs = graph._bfs

    def counted(g, start):
        calls.append(start)
        return bfs(g, start)

    monkeypatch.setattr(graph, "_bfs", counted)
    g = from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
    assert calls == [0]
    agents = (quadratic(a=1.0, b=1.0, lower=0.0, upper=10.0),) * 4
    p = AllocationProblem(graph=g, agents=agents, total=8.0)
    even = np.full(4, 2.0)
    skew = np.array([5.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(select_final(p, skew, even), even)
    assert calls == [0]


def test_select_final_on_1e5_node_path():
    # a graph 10^5 levels deep; no timing is asserted
    n = 100_000
    g = from_edge_list(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))
    np.testing.assert_array_equal(graph._bfs(g, 0), np.arange(n))
    agents = (quadratic(a=1.0, b=1.0, lower=0.0, upper=2.0),) * n
    p = AllocationProblem(graph=g, agents=agents, total=float(n))
    even = np.ones(n)
    skew = even + np.where(np.arange(n) % 2, -0.5, 0.5)  # costs 1.625 n against 1.5 n
    for first, second in ((even, skew), (skew, even)):
        np.testing.assert_array_equal(select_final(p, first, second), even)


@st.composite
def _edge_lists(draw):
    """(n, pairs): a path, star, complete graph, chorded ring or random tree
    on nodes relabelled at random, some pairs reversed and some repeated."""
    n = draw(st.integers(1, 24))
    shape = draw(st.sampled_from(["path", "star", "complete", "chorded ring", "tree"]))
    if n == 1:
        pairs = []
    elif shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        pairs = [(0, j) for j in range(1, n)]
    elif shape == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif shape == "chorded ring":
        pairs = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
        chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        pairs += [(i, j) for i, j in chords if i != j]
    else:
        pairs = [(draw(st.integers(0, j - 1)), j) for j in range(1, n)]
    label = draw(st.permutations(range(n)))
    pairs = [(label[j], label[i]) if draw(st.booleans()) else (label[i], label[j]) for i, j in pairs]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    return n, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_edge_lists())
def test_bfs_matches_level_synchronous_reference(case):
    # the distances of the level-synchronous search, from every start
    n, pairs = case
    g = from_edge_list(n, pairs)
    for start in range(n):
        got, ref = graph._bfs(g, start), bfs_reference(g, start)[0]
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
