"""Topic-sample index: sampling, nearest lookup, lower bounds, and the
distributed build."""
import numpy as np
import pytest

from repro.core.keyword_im import greedy_mia
from repro.core.mia import mia_sigma
from repro.influence.samples import (
    build_topic_samples_local,
    build_topic_samples_spark,
    sample_gammas,
    sample_lower_bound,
    warm_start_candidates,
)


@pytest.fixture(scope="module")
def index(graph):
    return build_topic_samples_local(graph, k=5, theta=0.01, n_random=4, seed=1)


class TestSampleGammas:
    def test_shape_and_simplex(self):
        g = sample_gammas(6, n_random=5, seed=0)
        assert g.shape == (11, 6)
        assert np.allclose(g.sum(axis=1), 1.0)

    def test_pure_topics_first(self):
        g = sample_gammas(4, n_random=2, seed=0)
        assert np.allclose(g[:4], np.eye(4))

    def test_no_random(self):
        assert sample_gammas(3, n_random=0).shape == (3, 3)


class TestIndex:
    def test_seed_sets_shape(self, index, graph):
        assert len(index.seed_sets) == len(index.gammas)
        assert all(len(s) == 5 for s in index.seed_sets)

    def test_spreads_match_recomputation(self, index, graph):
        for i in (0, 3, len(index.gammas) - 1):
            p = graph.effective_probs(index.gammas[i])
            want = mia_sigma(graph, p, index.seed_sets[i], index.theta)
            assert abs(index.spreads[i] - want) < 1e-9

    def test_nearest_pure_topic(self, index, graph):
        gm = np.zeros(graph.Z)
        gm[2] = 1.0
        assert index.nearest(gm, 1)[0] == 2

    def test_nearest_count(self, index):
        assert len(index.nearest(index.gammas[0], 3)) == 3

    def test_spark_build_matches_local(self, spark, graph, index):
        dist = build_topic_samples_spark(
            spark, graph, k=5, theta=0.01, n_random=4, seed=1
        )
        assert dist.seed_sets == index.seed_sets
        assert np.allclose(dist.spreads, index.spreads)
        assert np.allclose(dist.gammas, index.gammas)


class TestQueryHelpers:
    def test_warm_start_from_nearest(self, index, graph):
        gm = np.zeros(graph.Z)
        gm[0] = 1.0
        warm = warm_start_candidates(index, gm, m=2)
        near = index.nearest(gm, 2)
        allowed = {s for i in near for s in index.seed_sets[i]}
        assert set(warm) == allowed
        assert len(warm) == len(set(warm))

    def test_lower_bound_is_feasible_value(self, index, graph):
        """LB = exact spread of a stored (feasible) seed set ⇒ ≤ greedy."""
        gm = np.random.default_rng(3).dirichlet(np.full(graph.Z, 0.5))
        lb = sample_lower_bound(graph, index, gm, m=3)
        p = graph.effective_probs(gm)
        _, greedy_val, _ = greedy_mia(graph, p, 5, 0.01)
        assert lb <= greedy_val + 1e-9

    def test_lower_bound_tight_on_sampled_gamma(self, index, graph):
        """Querying exactly a sampled γ: LB equals that sample's spread."""
        i = 1
        lb = sample_lower_bound(graph, index, index.gammas[i], m=1)
        assert abs(lb - index.spreads[i]) < 1e-9
