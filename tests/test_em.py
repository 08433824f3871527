"""EM learner: likelihood monotonicity, parameter sanity, ground-truth
recovery, topic matching, and local↔Spark agreement (with the DuckDB
oracle on the M-step aggregation dataflow and on the block kernel's
summed statistics)."""
from unittest import mock

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.synth_data import ActionLog
from repro.topics import em
from repro.topics.em import (
    EMResult,
    em_fit_local,
    em_fit_spark,
    match_topics,
    recovery_scores,
)


@pytest.fixture(scope="module")
def fit(log):
    return em_fit_local(log.items, log.trials, Z=6, n_iter=8, seed=0)


class TestLocalEM:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loglik_monotone(self, log, seed):
        r = em_fit_local(log.items, log.trials, Z=6, n_iter=5, seed=seed)
        diffs = np.diff(r.loglik)
        assert (diffs >= -1e-6).all()

    def test_pi_distribution(self, fit):
        assert abs(fit.pi.sum() - 1.0) < 1e-9 and (fit.pi >= 0).all()

    def test_pwz_rows_normalized(self, fit):
        assert np.allclose(fit.pwz.sum(axis=1), 1.0)

    def test_edge_probs_in_unit_interval(self, fit):
        assert fit.edge_probs["pp"].between(0.0, 1.0).all()

    def test_q_normalized_per_item(self, fit):
        s = fit.q.groupby("item_id")["q"].sum()
        assert np.allclose(s, 1.0)

    def test_deterministic(self, log):
        a = em_fit_local(log.items, log.trials, Z=4, n_iter=2, seed=3)
        b = em_fit_local(log.items, log.trials, Z=4, n_iter=2, seed=3)
        assert np.allclose(a.loglik, b.loglik)
        assert np.allclose(a.pwz, b.pwz)

    def test_pack_keeps_the_dict_ids(self, log):
        """The vectorised packing numbers items, words and edges as the
        per-trial dict lookups it replaced did."""
        items, trials = log.items, log.trials
        d_of = {it: i for i, it in enumerate(items["item_id"])}
        words = sorted({w for kws in items["keywords"] for w in kws})
        w_of = {w: i for i, w in enumerate(words)}
        pairs = sorted(set(zip(trials["src"], trials["dst"])))
        e_of = {p: i for i, p in enumerate(pairs)}
        b = em._pack(items, trials)
        assert b.items.tolist() == items["item_id"].tolist()
        assert b.words.tolist() == words
        assert b.wd.tolist() == [d_of[it] for it, kws in zip(items["item_id"], items["keywords"])
                                 for _ in kws]
        assert b.ww.tolist() == [w_of[w] for kws in items["keywords"] for w in kws]
        assert [(k >> 32, k & 0xFFFFFFFF) for k in b.keys.tolist()] == pairs
        assert b.t_item.tolist() == [d_of[it] for it in trials["item_id"]]
        assert b.t_edge.tolist() == [e_of[p] for p in zip(trials["src"], trials["dst"])]
        assert b.t_succ.tolist() == trials["success"].tolist()

    def test_weight_column_counts_trials(self, fit, log):
        """Per-edge Σ_z weight = number of trials on that edge."""
        per_edge = fit.edge_probs.groupby(["src", "dst"])["weight"].sum()
        trials = log.trials.groupby(["src", "dst"]).size()
        joined = pd.concat([per_edge, trials], axis=1).fillna(0)
        assert np.allclose(joined.iloc[:, 0], joined.iloc[:, 1], atol=1e-6)


class TestRecovery:
    def test_topics_recovered(self, fit, net):
        sc = recovery_scores(fit, net)
        assert sc["word_cosine"] > 0.8

    def test_edge_probs_correlate(self, fit, net):
        sc = recovery_scores(fit, net)
        assert sc["edge_corr"] > 0.1

    def test_perm_is_permutation(self, fit, net):
        sc = recovery_scores(fit, net)
        assert sorted(sc["perm"]) == list(range(net.Z))


class TestMatchTopics:
    def test_identity(self):
        p = np.random.default_rng(0).dirichlet(np.ones(10), size=4)
        assert list(match_topics(p, p)) == [0, 1, 2, 3]

    def test_recovers_shuffle(self):
        p = np.random.default_rng(1).dirichlet(np.ones(10), size=4)
        perm = [2, 0, 3, 1]
        assert list(match_topics(p[perm], p)) == [1, 3, 0, 2]


class TestEdgeProbMatrix:
    def test_observed_edges_filled(self, fit):
        e = fit.edge_probs.iloc[0]
        m = fit.edge_prob_matrix([int(e.src)], [int(e.dst)], 6)
        assert abs(m[0, int(e.z)] - e.pp) < 1e-12

    def test_unobserved_edges_get_prior(self, fit):
        m = fit.edge_prob_matrix([10**6], [10**6 + 1], 6)
        assert np.allclose(m, 0.1)

    def test_equals_loop_reference(self, fit, net):
        """Network edges (most never tried in the log), pairs unknown to
        the network and one repeated edge, shuffled: the vectorised lookup
        gives the dict loop's matrix exactly."""
        src = net.edges["src"].tolist() + [10**6, 5, fit.edge_probs["src"].iloc[0]]
        dst = net.edges["dst"].tolist() + [10**6 + 1, 5, fit.edge_probs["dst"].iloc[0]]
        perm = np.random.default_rng(0).permutation(len(src))
        src, dst = np.asarray(src)[perm], np.asarray(dst)[perm]
        got = fit.edge_prob_matrix(src, dst, 6)
        key = {(s, d): i for i, (s, d) in enumerate(zip(src, dst))}
        ref = np.full((len(src), 6), 0.1)
        for row in fit.edge_probs.itertuples(index=False):
            i = key.get((row.src, row.dst))
            if i is not None:
                ref[i, row.z] = row.pp
        assert np.array_equal(got, ref)
        observed = (ref != 0.1).any(axis=1)
        assert observed.any() and not observed.all()


class TestSparkEM:
    def test_matches_local(self, spark, log):
        r_s = em_fit_spark(
            spark, log.items_df(spark), log.trials_df(spark), Z=4, n_iter=2, seed=0
        )
        r_l = em_fit_local(log.items, log.trials, Z=4, n_iter=2, seed=0)
        assert np.allclose(r_s.loglik, r_l.loglik, rtol=1e-8)
        assert np.allclose(r_s.pwz, r_l.pwz, atol=1e-8)
        assert np.allclose(r_s.pi, r_l.pi, atol=1e-10)
        a = r_s.edge_probs.sort_values(["src", "dst", "z"]).reset_index(drop=True)
        b = r_l.edge_probs.sort_values(["src", "dst", "z"]).reset_index(drop=True)
        assert np.allclose(a["pp"], b["pp"], atol=1e-8)

    def test_no_iterations_raise_before_any_job(self, spark, log):
        """n_iter < 1 is an error in both fits; the Spark fit raises it
        before it runs a job (the packing job would run first)."""
        with pytest.raises(ValueError, match="at least 1"):
            em_fit_local(log.items, log.trials, Z=2, n_iter=0)
        items, trials = log.items_df(spark), log.trials_df(spark)
        sc = spark.sparkContext
        sc.setJobGroup("em-no-iterations", "em_fit_spark with n_iter=0")
        try:
            with pytest.raises(ValueError, match="at least 1"):
                em_fit_spark(spark, items, trials, Z=2, n_iter=0)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert list(sc.statusTracker().getJobIdsForGroup("em-no-iterations")) == []

    def test_empty_item_table_raises(self, spark, log):
        """π = Σq / D is undefined without items: both fits raise, and the
        Spark fit does so before its first fan-out job."""
        empty = ActionLog(items=log.items.iloc[:0], trials=log.trials.iloc[:0])
        with pytest.raises(ValueError, match="item table is empty"):
            em_fit_local(empty.items, empty.trials, Z=2, n_iter=1)
        items, trials = empty.items_df(spark), empty.trials_df(spark)
        with mock.patch.object(em, "fan_out", side_effect=AssertionError("fan-out job")):
            with pytest.raises(ValueError, match="item table is empty"):
                em_fit_spark(spark, items, trials, Z=2, n_iter=1)

    def test_no_trials_equals_local(self, spark, log):
        """Items without a single trial: no edge is learned, and the Spark
        fit equals the local one."""
        quiet = ActionLog(items=log.items, trials=log.trials.iloc[:0])
        loc = em_fit_local(quiet.items, quiet.trials, Z=3, n_iter=3, seed=1)
        dist = em_fit_spark(spark, quiet.items_df(spark), quiet.trials_df(spark),
                            Z=3, n_iter=3, seed=1)
        assert loc.edge_probs.empty and dist.edge_probs.empty
        np.testing.assert_allclose(dist.loglik, loc.loglik, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dist.pi, loc.pi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dist.pwz, loc.pwz, rtol=0, atol=1e-12)
        assert dist.q[["item_id", "z"]].equals(loc.q[["item_id", "z"]])
        np.testing.assert_allclose(dist.q["q"], loc.q["q"], rtol=0, atol=1e-12)

    def test_mstep_aggregation_oracle(self, spark, log, fit):
        """The edge-count M-step dataflow matches DuckDB."""
        q = spark.createDataFrame(fit.q)
        trials = log.trials_df(spark)
        got = (
            trials.join(q.select("item_id", "z", "q"), "item_id")
            .groupBy("src", "dst", "z")
            .agg(
                F.sum(F.when(F.col("success"), F.col("q")).otherwise(0.0)).alias("num"),
                F.sum("q").alias("den"),
            )
            .orderBy("src", "dst", "z")
        )
        assert_equivalent(
            got,
            """
            SELECT t.src, t.dst, q.z,
                   sum(CASE WHEN t.success THEN q.q ELSE 0 END) AS num,
                   sum(q.q) AS den
            FROM trials t JOIN q USING (item_id)
            GROUP BY t.src, t.dst, q.z ORDER BY t.src, t.dst, q.z
            """,
            trials=log.trials,
            q=fit.q,
        )


def test_summed_kernel_stats_oracle(log, fit):
    """The block kernel's edge num/den, run on three item ranges of the
    packed log (the log's own word and edge ids) and summed, equal
    ``GROUP BY src, dst, z`` over trials ⋈ q in DuckDB, with q the kernel's
    own responsibilities; the ranges' logliks add up to the whole block's."""
    Z = 6
    whole = em._pack(log.items, log.trials)
    pp = fit.edge_probs["pp"].to_numpy().reshape(-1, Z)
    num, den, qs, ll = np.zeros_like(pp), np.zeros_like(pp), [], 0.0
    for part in np.array_split(np.arange(len(log.items)), 3):
        b = em._item_range(whole, part[0], part[-1] + 1)
        b_ll, _, _, b_num, b_den, q = em._block_stats(b, fit.pi, fit.pwz, pp)
        ll += b_ll
        num += b_num
        den += b_den
        qs.append(pd.DataFrame({"item_id": np.repeat(b.items, Z),
                                "z": np.tile(np.arange(Z), len(b.items)), "q": q.ravel()}))
    assert ll == pytest.approx(em._block_stats(whole, fit.pi, fit.pwz, pp)[0], rel=1e-12)
    con = duckdb.connect()
    try:
        con.register("trials", log.trials)
        con.register("q", pd.concat(qs, ignore_index=True))
        want = con.execute(
            """
            SELECT t.src, t.dst, q.z,
                   sum(CASE WHEN t.success THEN q.q ELSE 0 END) AS num,
                   sum(q.q) AS den
            FROM trials t JOIN q USING (item_id)
            GROUP BY t.src, t.dst, q.z ORDER BY t.src, t.dst, q.z
            """
        ).fetchdf()
    finally:
        con.close()
    assert want["src"].tolist() == np.repeat(whole.keys >> 32, Z).tolist()
    assert want["dst"].tolist() == np.repeat(whole.keys & 0xFFFFFFFF, Z).tolist()
    np.testing.assert_allclose(num.ravel(), want["num"], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(den.ravel(), want["den"], rtol=1e-12, atol=1e-12)


def random_log(seed: int, n_items: int):
    """A small action log with the odd cases forced in: the first item has
    no trials and the only use of the word ``solo``, the last item tries
    one edge twice, and items may have no keywords. Item ids are sparse
    and unordered; trials draw from a small edge pool, so edges repeat
    across items."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(10**6, n_items, replace=False)
    words = [f"w{i}" for i in range(5)]
    kws = [list(rng.choice(words, rng.integers(0, 4), replace=False)) for _ in ids]
    kws[0].append("solo")
    pool = [(u, v) for u in range(6) for v in range(6) if u != v]
    rows = []
    for d in ids[1:]:
        for _ in range(rng.integers(0, 6)):
            u, v = pool[rng.integers(len(pool))]
            rows.append((d, u, v, bool(rng.random() < 0.4)))
    u, v = pool[rng.integers(len(pool))]
    rows += [(ids[-1], u, v, True), (ids[-1], u, v, False)]
    items = pd.DataFrame({"item_id": ids, "keywords": kws})
    trials = pd.DataFrame(rows, columns=["item_id", "src", "dst", "success"])
    return items, trials


def fit_steps(fit_fn):
    """Run a fit, recording (π, p(w|z), pp) after every M-step."""
    steps, m_step = [], em._m_step

    def spy(*args):
        steps.append(m_step(*args))
        return steps[-1]

    with mock.patch.object(em, "_m_step", spy):
        return fit_fn(), steps


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 12), Z=st.integers(1, 3))
@example(seed=0, n_items=2, Z=2)  # fewer items than default parallelism
def test_spark_em_equals_local_per_iteration(spark, seed, n_items, Z):
    items, trials = random_log(seed, n_items)
    n_iter = 3
    loc, loc_steps = fit_steps(
        lambda: em_fit_local(items, trials, Z=Z, n_iter=n_iter, seed=seed))
    dist, dist_steps = fit_steps(lambda: em_fit_spark(
        spark, spark.createDataFrame(items), spark.createDataFrame(trials),
        Z=Z, n_iter=n_iter, seed=seed))
    assert len(loc.iter_s) == len(dist.iter_s) == n_iter
    assert min(loc.iter_s + dist.iter_s) > 0
    np.testing.assert_allclose(dist.loglik, loc.loglik, rtol=1e-9, atol=0)
    assert len(loc_steps) == len(dist_steps) == n_iter
    for a, b in zip(dist_steps, loc_steps):
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
    assert dist.words == loc.words
    assert dist.edge_probs[["src", "dst", "z"]].equals(loc.edge_probs[["src", "dst", "z"]])
    assert dist.q[["item_id", "z"]].equals(loc.q[["item_id", "z"]])
    np.testing.assert_allclose(dist.q["q"], loc.q["q"], rtol=0, atol=1e-12)
