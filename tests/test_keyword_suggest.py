"""Scenario 2 engine: coupled randomness, influencer-index semantics,
estimator fidelity, and the greedy suggestion loop."""
import numpy as np
import pytest

from repro.core.keyword_suggest import (
    build_influencer_index_local,
    build_influencer_index_spark,
    edge_uniform,
    suggest_keywords,
)
from repro.influence.spread import mc_spread_local
from repro.topics.keywords import user_keywords


@pytest.fixture(scope="module")
def index(graph):
    return build_influencer_index_local(graph, R=200, seed=5)


class TestEdgeUniform:
    def test_range(self):
        r = edge_uniform(3, 7, np.arange(1000))
        assert (r >= 0).all() and (r < 1).all()

    def test_deterministic(self):
        a = edge_uniform(1, 2, np.array([5, 9, 100]))
        b = edge_uniform(1, 2, np.array([5, 9, 100]))
        assert np.array_equal(a, b)

    def test_order_independent(self):
        """The hash depends only on ids, not call order — lazy sampling."""
        a = edge_uniform(1, 2, np.array([5, 9, 100]))
        b = edge_uniform(1, 2, np.array([100, 5, 9]))
        assert a[0] == b[1] and a[1] == b[2] and a[2] == b[0]

    def test_varies_with_sample(self):
        e = np.arange(200)
        assert not np.array_equal(edge_uniform(1, 0, e), edge_uniform(1, 1, e))

    def test_varies_with_seed(self):
        e = np.arange(200)
        assert not np.array_equal(edge_uniform(0, 1, e), edge_uniform(9, 1, e))

    def test_roughly_uniform(self):
        r = edge_uniform(0, 0, np.arange(20000))
        assert abs(r.mean() - 0.5) < 0.02
        assert abs((r < 0.25).mean() - 0.25) < 0.02


class TestIndexStructure:
    def test_sample_count(self, index):
        assert len(index.samples) == 200

    def test_envelope_contains_root(self, index):
        for s in index.samples[:50]:
            assert s.root in s.nodes

    def test_stored_edges_within_envelope(self, index, graph):
        p_max = graph.max_probs()
        for i, s in enumerate(index.samples[:50]):
            if len(s.eids) == 0:
                continue
            stored = {e: r_e for edges in s.in_adj.values() for _, e, r_e in edges}
            assert sorted(stored) == sorted(s.eids.tolist())
            r = edge_uniform(index.seed, i, s.eids)
            assert [stored[e] for e in s.eids.tolist()] == r.tolist()
            assert (r <= p_max[s.eids]).all()

    def test_level_expansion_matches_node_by_node_bfs(self, index, graph):
        """The level-at-a-time envelope keeps exactly the edges, in the
        order, of a reverse BFS that expands one node at a time."""
        p_max = graph.max_probs()
        for i, s in enumerate(index.samples[:50]):
            found, frontier, kept = {s.root}, [s.root], []
            while frontier:
                nxt = []
                for v in frontier:
                    eids = graph.in_edges(v)
                    live = edge_uniform(index.seed, i, eids) <= p_max[eids]
                    for e in eids[live].tolist():
                        kept.append(e)
                        u = int(graph.e_src[e])
                        if u not in found:
                            found.add(u)
                            nxt.append(u)
                frontier = nxt
            assert s.eids.tolist() == kept
            assert s.nodes == frozenset(found)

    def test_no_samples_raises(self, spark, graph):
        """R < 1 is an error in both builds, not an index whose estimate
        divides by zero."""
        with pytest.raises(ValueError, match="at least one sample"):
            build_influencer_index_local(graph, R=0, seed=5)
        with pytest.raises(ValueError, match="at least one sample"):
            build_influencer_index_spark(spark, graph, R=0, seed=5)


class TestEstimate:
    def test_matches_mc_roughly(self, graph, model):
        """Unbiasedness: index estimates track MC spreads on average.

        A single user's estimate has ~30% relative sd at R=600 monitors,
        so the check averages the est/mc ratio over the 6 highest-degree
        users and allows a wide but bias-revealing band.
        """
        index = build_influencer_index_local(graph, R=600, seed=11)
        gm = np.full(graph.Z, 1.0 / graph.Z)
        deg = np.bincount(graph.e_src, minlength=graph.n)
        ratios = []
        for u in np.argsort(-deg)[:6]:
            est = index.estimate(int(u), gm)
            mc = mc_spread_local(
                graph, graph.effective_probs(gm), [int(u)], n_samples=400, seed=1
            )
            ratios.append(est / max(mc, 1e-9))
        assert 0.75 < float(np.mean(ratios)) < 1.33

    def test_within_three_sigma_of_mc(self, graph):
        """Each of the 6 highest-degree users' estimates lies within three
        of its own standard errors of a 2 000-sample MC spread."""
        index = build_influencer_index_local(graph, R=600, seed=11)
        gm = np.full(graph.Z, 1.0 / graph.Z)
        deg = np.bincount(graph.e_src, minlength=graph.n)
        for u in np.argsort(-deg)[:6]:
            est = index.estimate(int(u), gm)
            mc = mc_spread_local(
                graph, graph.effective_probs(gm), [int(u)], n_samples=2000, seed=1
            )
            assert abs(est - mc) <= 3 * index.stderr(est)

    def test_stderr_is_binomial(self, graph, index):
        p = 30 / graph.n
        assert index.stderr(30.0) == pytest.approx(graph.n * np.sqrt(p * (1 - p) / index.R))
        assert index.stderr(0.0) == 0.0
        assert index.stderr(float(graph.n)) == 0.0

    def test_monotone_in_gamma_scale(self, graph, index):
        """Coupled liveness: scaling γ down scales every pp_γ(e) down, so
        the estimate can only shrink (the same r_e thresholds apply)."""
        gm = np.full(graph.Z, 1.0 / graph.Z)
        deg = np.bincount(graph.e_src, minlength=graph.n)
        for u in np.argsort(-deg)[:5]:
            hi = index.estimate(int(u), gm)
            lo = index.estimate(int(u), gm * 0.5)
            assert lo <= hi + 1e-12

    def test_root_always_reached_by_itself(self, graph, index):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        s = index.samples[0]
        est = index.estimate(s.root, gm)
        assert est >= graph.n / index.R - 1e-9

    def test_isolated_user_estimate_zero(self, graph, index):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        # a user appearing in no envelope has estimate 0 (pruning path)
        in_any = set().union(*(s.nodes for s in index.samples))
        outside = [u for u in range(graph.n) if u not in in_any]
        for u in outside[:3]:
            assert index.estimate(u, gm) == 0.0


class TestSuggest:
    def test_keywords_come_from_user_items(self, model, log, index):
        u = int(log.items["author"].value_counts().index[0])
        mine = user_keywords(log.items, u, max_candidates=20)
        r = suggest_keywords(model, u, 3, method="index", index=index, candidates=mine)
        assert set(r.keywords) <= set(mine)

    def test_greedy_beats_freq_in_estimator(self, model, log, index):
        u = int(log.items["author"].value_counts().index[0])
        cands = user_keywords(log.items, u, max_candidates=20)
        g = suggest_keywords(model, u, 3, method="index", index=index, candidates=cands)
        f = suggest_keywords(model, u, 3, method="freq", index=index, candidates=cands)
        f_est = index.estimate(u, f.gamma)
        assert g.est_spread >= f_est - 1e-9

    def test_exhaustive_at_least_greedy(self, model, log, index):
        u = int(log.items["author"].value_counts().index[1])
        cands = user_keywords(log.items, u, max_candidates=6)
        g = suggest_keywords(model, u, 2, method="index", index=index,
                             candidates=cands)
        e = suggest_keywords(model, u, 2, method="index", index=index,
                             candidates=cands, exhaustive=True)
        assert e.est_spread >= g.est_spread - 1e-9

    def test_estimate_counts(self, model, log, index):
        u = int(log.items["author"].value_counts().index[0])
        cands = user_keywords(log.items, u, max_candidates=8)
        r = suggest_keywords(model, u, 2, method="index", index=index,
                             candidates=cands)
        # greedy: |C| + (|C|−1) estimates for k=2
        assert r.n_estimates == len(cands) + len(cands) - 1

    def test_mc_method_agrees_on_clear_winner(self, model, log, index):
        u = int(log.items["author"].value_counts().index[0])
        cands = user_keywords(log.items, u, max_candidates=5)
        a = suggest_keywords(model, u, 1, method="index", index=index,
                             candidates=cands)
        b = suggest_keywords(model, u, 1, method="mc", n_mc=50, candidates=cands)
        # both pick from the same candidate pool; spreads comparable
        assert set(a.keywords) <= set(cands) and set(b.keywords) <= set(cands)

    def test_result_gamma_matches_keywords(self, model, log, index):
        u = int(log.items["author"].value_counts().index[0])
        cands = user_keywords(log.items, u, max_candidates=20)
        r = suggest_keywords(model, u, 2, method="index", index=index, candidates=cands)
        assert np.allclose(r.gamma, model.gamma(r.keywords))

    def test_index_results_carry_their_stderr(self, model, log, index):
        u = int(log.items["author"].value_counts().index[0])
        cands = user_keywords(log.items, u, max_candidates=5)
        for r in (
            suggest_keywords(model, u, 2, method="index", index=index, candidates=cands),
            suggest_keywords(model, u, 2, method="index", index=index, candidates=cands,
                             exhaustive=True),
            suggest_keywords(model, u, 2, method="freq", index=index, candidates=cands),
            suggest_keywords(model, u, 0, method="index", index=index, candidates=cands),
        ):
            assert r.est_stderr == index.stderr(r.est_spread)
        for r in (
            suggest_keywords(model, u, 1, method="mc", n_mc=50, candidates=cands),
            suggest_keywords(model, u, 1, method="mc", n_mc=50, index=index, candidates=cands),
        ):
            assert r.est_stderr is None

    @pytest.mark.parametrize("method", ["index", "mc"])
    def test_no_candidates_scores_the_prior(self, model, log, index, method):
        """Greedy and exhaustive agree on an empty pool: no keywords, and
        the spread under γ = π rather than a sentinel."""
        u = int(log.items["author"].value_counts().index[0])
        g = suggest_keywords(model, u, 2, method=method, index=index, candidates=[])
        e = suggest_keywords(model, u, 2, method=method, index=index, candidates=[],
                             exhaustive=True)
        assert g.keywords == e.keywords == []
        assert g.est_spread == e.est_spread >= 0.0
        assert g.n_estimates == e.n_estimates == 1
        assert np.allclose(g.gamma, model.gamma([]))

    @pytest.mark.parametrize("method", ["index", "mc"])
    def test_k_zero_scores_the_prior(self, model, log, index, method):
        """k = 0 is an empty answer scored under γ = π, greedy and
        exhaustive alike, not a sentinel spread."""
        u = int(log.items["author"].value_counts().index[0])
        cands = user_keywords(log.items, u, max_candidates=5)
        g = suggest_keywords(model, u, 0, method=method, index=index, candidates=cands)
        e = suggest_keywords(model, u, 0, method=method, index=index, candidates=cands,
                             exhaustive=True)
        prior = suggest_keywords(model, u, 2, method=method, index=index, candidates=[])
        assert g.keywords == e.keywords == []
        assert g.est_spread == e.est_spread == prior.est_spread >= 0.0
        assert g.n_estimates == e.n_estimates == 1

    def test_negative_k_raises(self, model, log, index):
        u = int(log.items["author"].iloc[0])
        for exhaustive in (False, True):
            with pytest.raises(ValueError):
                suggest_keywords(model, u, -1, method="index", index=index,
                                 candidates=["x"], exhaustive=exhaustive)

    def test_unknown_estimator_raises(self, model, log, index):
        u = int(log.items["author"].iloc[0])
        with pytest.raises(ValueError):
            suggest_keywords(model, u, 2, method="nope", index=index, candidates=["x"])

    @pytest.mark.parametrize("method", ["index", "freq"])
    def test_index_estimators_without_an_index_raise(self, model, log, method):
        u = int(log.items["author"].iloc[0])
        with pytest.raises(ValueError, match="needs an influencer index"):
            suggest_keywords(model, u, 2, method=method, candidates=["x"])
