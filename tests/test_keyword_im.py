"""Scenario 1 engine: method agreement (best-effort ≡ exact greedy),
pruning effectiveness, answer shape and the baselines."""
import numpy as np
import pytest

from repro.core.keyword_im import (
    best_effort_im,
    naive_mc_im,
    naive_mia_im,
    naive_ris_im,
)
from repro.core.mia import mia_sigma
from repro.influence.spread import mc_spread_local


def queries(net):
    w = net.words
    wpt = len(w) // net.Z
    return [
        [w[0], w[1]],                 # pure topic 0
        [w[wpt], w[wpt + 1]],         # pure topic 1
        [w[0], w[2 * wpt]],           # mixed 0/2
    ]


@pytest.mark.parametrize("qi", [0, 1, 2])
class TestBestEffortExactness:
    def test_same_seeds_as_naive(self, model, pre, net, qi):
        W = queries(net)[qi]
        a = naive_mia_im(model, W, 5)
        b = best_effort_im(model, pre, W, 5)
        assert a.seeds == b.seeds
        assert abs(a.spread - b.spread) < 1e-9

    def test_fewer_evaluations(self, model, pre, net, qi):
        W = queries(net)[qi]
        a = naive_mia_im(model, W, 5)
        b = best_effort_im(model, pre, W, 5)
        assert b.n_exact_evals < a.n_exact_evals


class TestAnswerShape:
    def test_k_distinct_seeds(self, model, pre, net):
        a = best_effort_im(model, pre, queries(net)[0], 7)
        assert len(a.seeds) == len(set(a.seeds)) == 7

    def test_gamma_is_distribution(self, model, pre, net):
        a = best_effort_im(model, pre, queries(net)[0], 3)
        assert abs(a.gamma.sum() - 1.0) < 1e-9

    def test_mia_spread_consistent(self, model, pre, net):
        """CELF's ap(S, ·) state gives the seed set's MIA spread, the same
        floats that folding the seeds' trees afresh gives."""
        for W in queries(net):
            a = best_effort_im(model, pre, W, 4)
            p = model.edge_probs(a.gamma)
            assert a.mia_spread == mia_sigma(model.graph, p, a.seeds, model.theta)

    def test_zero_seeds(self, model, pre, net):
        for a in (best_effort_im(model, pre, queries(net)[0], 0),
                  naive_mia_im(model, queries(net)[0], 0)):
            assert a.seeds == [] and a.mia_spread == 0.0 and a.spread == 0.0

    def test_negative_k_raises(self, model, pre, net):
        with pytest.raises(ValueError):
            best_effort_im(model, pre, queries(net)[0], -1)
        with pytest.raises(ValueError):
            naive_mia_im(model, queries(net)[0], -1)

    def test_different_topics_different_seeds(self, model, pre, net):
        """Topical queries find topical influencers (Scenario 1's point)."""
        a = best_effort_im(model, pre, queries(net)[0], 5)
        b = best_effort_im(model, pre, queries(net)[1], 5)
        assert set(a.seeds) != set(b.seeds)


class TestBaselines:
    def test_ris_seed_quality(self, model, net):
        """RIS picks seeds whose MC spread is near the MIA-greedy set's."""
        W = queries(net)[0]
        a = naive_mia_im(model, W, 5)
        r = naive_ris_im(model, W, 5, R=2000, seed=0)
        gm, p = model.query_probs(W)
        mc_a = mc_spread_local(model.graph, p, a.seeds, n_samples=300, seed=1)
        mc_r = mc_spread_local(model.graph, p, r.seeds, n_samples=300, seed=1)
        assert mc_r >= 0.8 * mc_a

    def test_naive_mc_runs_on_restricted_pool(self, model, net):
        deg = np.bincount(model.graph.e_src, minlength=model.graph.n)
        cand = np.argsort(-deg)[:15].tolist()
        a = naive_mc_im(model, queries(net)[0], 3, n_samples=20, seed=0,
                        candidates=cand)
        assert len(a.seeds) == 3 and set(a.seeds) <= set(cand)
        assert a.n_exact_evals >= 15
