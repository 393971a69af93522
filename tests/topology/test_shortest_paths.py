"""Floyd–Warshall kernel tests, including cross-validation with networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import build_fattree, floyd_warshall


def random_weighted_graph(rng, n=12, p=0.4):
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                val = float(rng.uniform(0.5, 5.0))
                w[i, j] = val
                w[j, i] = val
    return w


class TestFloydWarshall:
    def test_triangle(self):
        w = np.array([[0, 1, 10], [1, 0, 1], [10, 1, 0]], dtype=float)
        d = floyd_warshall(w)
        assert d[0, 2] == 2.0

    def test_matches_networkx(self, rng):
        for _ in range(5):
            w = random_weighted_graph(rng)
            d = floyd_warshall(w)
            g = nx.Graph()
            n = w.shape[0]
            g.add_nodes_from(range(n))
            for i in range(n):
                for j in range(i + 1, n):
                    if np.isfinite(w[i, j]):
                        g.add_edge(i, j, weight=w[i, j])
            ref = dict(nx.all_pairs_dijkstra_path_length(g, weight="weight"))
            for i in range(n):
                for j in range(n):
                    if j in ref.get(i, {}):
                        assert d[i, j] == pytest.approx(ref[i][j])
                    else:
                        assert np.isinf(d[i, j])

    def test_unreachable_stays_inf(self):
        w = np.full((3, 3), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 1.0
        d = floyd_warshall(w)
        assert np.isinf(d[0, 2])

    def test_input_not_mutated(self):
        w = np.array([[0, 1, 10], [1, 0, 1], [10, 1, 0]], dtype=float)
        orig = w.copy()
        floyd_warshall(w)
        np.testing.assert_array_equal(w, orig)

    def test_rejects_nonsquare(self):
        with pytest.raises(TopologyError):
            floyd_warshall(np.zeros((2, 3)))

    def test_rejects_nonzero_diagonal(self):
        w = np.ones((2, 2))
        with pytest.raises(TopologyError):
            floyd_warshall(w)

    def test_rejects_negative_weights(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(TopologyError):
            floyd_warshall(w)


class TestOnFabric:
    def test_fattree_rack_distances(self):
        t = build_fattree(4)
        d = floyd_warshall(t.adjacency_matrix("hops"))
        r = t.num_racks
        rack_d = d[:r, :r]
        # same pod: 2 hops via agg; different pod: 4 hops via core
        assert rack_d[0, 1] == 2.0
        assert rack_d[0, 2] == 4.0
        assert (np.diagonal(rack_d) == 0).all()
        np.testing.assert_array_equal(rack_d, rack_d.T)
