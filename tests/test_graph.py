import numpy as np
import pytest
from conftest import random_graph

from taskalloc.errors import DisconnectedError, NodeOutOfRangeError, SelfLoopError
from taskalloc.graph import (
    Graph,
    bfs_tree,
    diameter,
    edge_list,
    from_edge_list,
    is_connected,
    neighbors,
)


def test_path_graph_neighbors():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert neighbors(g, 1) == {0, 2}
    assert neighbors(g, 0) == {1}
    assert neighbors(g, 2) == {1}


def test_two_node_complete():
    g = from_edge_list(2, [(0, 1)])
    assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])
    assert neighbors(g, 0) == {1}


def test_complete_triangle():
    g = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    assert neighbors(g, 0) == {1, 2}


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
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(NodeOutOfRangeError):
        neighbors(g, 2)
    with pytest.raises(NodeOutOfRangeError):
        neighbors(g, -1)


def test_duplicate_edges_idempotent():
    g1 = from_edge_list(3, [(0, 1), (1, 2)])
    g2 = from_edge_list(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_is_connected_path6():
    g = from_edge_list(6, [(i, i + 1) for i in range(5)])
    assert is_connected(g)


def test_is_connected_rejects_disjoint_pairs():
    adj = np.zeros((4, 4), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    assert not is_connected(adj)


def test_is_connected_three_node_path():
    assert is_connected(from_edge_list(3, [(0, 1), (1, 2)]))


def test_validation_of_raw_graph():
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=np.array([[1, 1], [1, 0]]))  # self loop
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=np.array([[0, 2], [2, 0]]))  # not 0/1
    # node 2 isolated: a selection's tree sum from node 0 would never reach it
    with pytest.raises(DisconnectedError) as exc:
        Graph(n=3, adjacency=np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    assert exc.value.unreachable == [2]


def test_neighbor_reciprocity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency) == 0)
        assert is_connected(g)
        for i in range(n):
            for j in neighbors(g, i):
                assert i in neighbors(g, j)


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
        depth, parent = bfs_tree(g)
        assert depth[0] == 0 and parent[0] == -1
        for v in range(1, g.n):
            assert parent[v] in neighbors(g, v)
            assert depth[parent[v]] == depth[v] - 1
        # depths are the shortest-path distances, so the deepest is at most
        # the diameter
        assert depth.max() <= diameter(g)
