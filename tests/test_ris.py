"""RIS: reverse-reachable set semantics (the cascade kernel run
backwards), estimator agreement with MC, and greedy max-cover exactness."""
import numpy as np
import pytest

from repro.influence.ris import _rr_rng, greedy_max_cover, ris_im, rr_sets_local
from repro.influence.spread import mc_spread_local, simulate_cascade
from tests.conftest import random_local_graph


class TestRRSet:
    def test_contains_root(self):
        g = random_local_graph(0, n=15, Z=1)
        assert 4 in simulate_cascade(g, g.probs[:, 0], [4], _rr_rng(0, 0), forward=False)

    def test_zero_probs_only_root(self, chain_graph):
        s = simulate_cascade(chain_graph, np.zeros(3), [3], _rr_rng(0, 0), forward=False)
        assert s == {3}

    def test_unit_probs_all_ancestors(self, chain_graph):
        s = simulate_cascade(chain_graph, np.ones(3), [3], _rr_rng(0, 0), forward=False)
        assert s == {0, 1, 2, 3}

    def test_members_can_reach_root(self, chain_graph):
        """On a chain, any RR set of root 2 is a suffix-closed ancestor set."""
        for i in range(30):
            s = simulate_cascade(chain_graph, chain_graph.probs[:, 0], [2], _rr_rng(1, i),
                                 forward=False)
            assert s <= {0, 1, 2}
            if 0 in s:
                assert 1 in s  # 0 only enters through 1

    def test_deterministic(self):
        g = random_local_graph(1, n=20, Z=1)
        a = simulate_cascade(g, g.probs[:, 0], [3], _rr_rng(5, 9), forward=False)
        b = simulate_cascade(g, g.probs[:, 0], [3], _rr_rng(5, 9), forward=False)
        assert a == b


class TestEstimator:
    def test_singleton_estimate_matches_mc(self):
        """n/R · E[#covering sets] ≈ MC spread for a singleton seed."""
        g = random_local_graph(3, n=20, Z=1, avg_deg=4)
        p = g.probs[:, 0]
        sets = rr_sets_local(g, p, R=4000, seed=0)
        u = 5
        est = g.n * sum(1 for s in sets if u in s) / len(sets)
        mc = mc_spread_local(g, p, [u], n_samples=4000, seed=1)
        assert abs(est - mc) < 0.25 * max(mc, 1.0)

    def test_rr_sets_count(self):
        g = random_local_graph(2, n=10, Z=1)
        assert len(rr_sets_local(g, g.probs[:, 0], R=50, seed=0)) == 50

    def test_no_rr_sets_raises(self):
        """R < 1 is an error, not an empty seed set."""
        g = random_local_graph(2, n=10, Z=1)
        with pytest.raises(ValueError, match="at least one RR set"):
            rr_sets_local(g, g.probs[:, 0], R=0)
        with pytest.raises(ValueError, match="at least one RR set"):
            ris_im(g, g.probs[:, 0], 2, R=0)


class TestGreedyMaxCover:
    def test_exact_on_toy(self):
        sets = [{0, 1}, {1}, {2}, {2, 3}, {4}]
        seeds, est = greedy_max_cover(sets, 2, n=10)
        assert seeds[0] in (1, 2)  # 1 covers sets 0,1; 2 covers 2,3
        assert est == 10 * 4 / 5

    def test_covers_everything_with_enough_seeds(self):
        sets = [{0}, {1}, {2}]
        seeds, est = greedy_max_cover(sets, 3, n=3)
        assert est == 3.0

    def test_stops_at_zero_gain(self):
        sets = [{0}, {0}]
        seeds, est = greedy_max_cover(sets, 5, n=4)
        assert seeds == [0] and est == 4.0


class TestRisIm:
    def test_returns_k_seeds(self, graph):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        seeds, est = ris_im(graph, graph.effective_probs(gm), 5, R=300, seed=0)
        assert len(seeds) == 5 and est > 0

    def test_spread_close_to_mc(self, graph):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        p = graph.effective_probs(gm)
        seeds, est = ris_im(graph, p, 5, R=2000, seed=0)
        mc = mc_spread_local(graph, p, seeds, n_samples=500, seed=2)
        assert abs(est - mc) < 0.2 * mc
