"""Monte-Carlo spread: closed forms on trees and coupling by sample id."""
import numpy as np
import pytest

from repro.influence.spread import (
    _sample_rng,
    mc_spread_local,
    simulate_cascade,
)
from tests.conftest import random_local_graph


class TestSimulateCascade:
    def test_deterministic_per_rng(self, chain_graph):
        p = chain_graph.probs[:, 0]
        a = simulate_cascade(chain_graph, p, [0], _sample_rng(1, 5))
        b = simulate_cascade(chain_graph, p, [0], _sample_rng(1, 5))
        assert a == b

    def test_zero_probs_no_spread(self, chain_graph):
        p = np.zeros(chain_graph.n_edges)
        assert simulate_cascade(chain_graph, p, [0], _sample_rng(0, 0)) == {0}

    def test_unit_probs_full_chain(self, chain_graph):
        p = np.ones(chain_graph.n_edges)
        assert simulate_cascade(chain_graph, p, [0], _sample_rng(0, 0)) == {0, 1, 2, 3}

    def test_seeds_always_active(self):
        g = random_local_graph(0, n=15, Z=1)
        out = simulate_cascade(g, g.probs[:, 0], [3, 7], _sample_rng(0, 1))
        assert {3, 7} <= out

    def test_activated_are_reachable(self, chain_graph):
        p = chain_graph.probs[:, 0]
        out = simulate_cascade(chain_graph, p, [2], _sample_rng(0, 2))
        assert out <= {2, 3}


class TestMcSpreadLocal:
    def test_chain_expectation(self, chain_graph):
        """Tree ⇒ E[spread(0)] = 1 + .5 + .5·.4 + .5·.4·.2 = 1.74."""
        p = chain_graph.probs[:, 0]
        est = mc_spread_local(chain_graph, p, [0], n_samples=4000, seed=0)
        assert abs(est - 1.74) < 0.06

    def test_single_edge_expectation(self):
        from repro.graphlib.builder import LocalGraph

        g = LocalGraph.from_edges([0], [1], np.array([[0.3]]), n=2)
        est = mc_spread_local(g, g.probs[:, 0], [0], n_samples=5000, seed=1)
        assert abs(est - 1.3) < 0.03

    def test_monotone_in_probs_coupled(self):
        """Coupled draws ⇒ raising probabilities never shrinks a sample."""
        g = random_local_graph(4, n=20, Z=1)
        lo = g.probs[:, 0] * 0.5
        hi = g.probs[:, 0]
        for i in range(20):
            a = simulate_cascade(g, lo, [0], _sample_rng(9, i))
            b = simulate_cascade(g, hi, [0], _sample_rng(9, i))
            assert a <= b

    def test_all_seeds_spread_is_n(self):
        g = random_local_graph(5, n=10, Z=1)
        est = mc_spread_local(g, g.probs[:, 0], list(range(10)), n_samples=5, seed=0)
        assert est == 10.0

    def test_no_samples_raises(self, chain_graph):
        with pytest.raises(ValueError, match="at least one cascade"):
            mc_spread_local(chain_graph, chain_graph.probs[:, 0], [0], n_samples=0)

    def test_deterministic_in_seed(self, graph):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        p = graph.effective_probs(gm)
        a = mc_spread_local(graph, p, [0, 1], n_samples=30, seed=3)
        b = mc_spread_local(graph, p, [0, 1], n_samples=30, seed=3)
        assert a == b
