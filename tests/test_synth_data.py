"""Generator tests: the social network and the action log sampled from it,
and how they are handed to Spark."""
from unittest import mock

import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd


class TestSocialNetwork:
    def test_deterministic(self, net):
        again = sd.social_network(sf=0.01, Z=6, seed=3)
        pd.testing.assert_frame_equal(net.edges, again.edges)
        assert np.array_equal(net.pwz, again.pwz)

    def test_seed_changes_graph(self, net):
        other = sd.social_network(sf=0.01, Z=6, seed=99)
        assert not net.edges.equals(other.edges)

    def test_no_self_loops(self, net):
        assert (net.edges["src"] != net.edges["dst"]).all()

    def test_no_duplicate_edges(self, net):
        assert not net.edges.duplicated(["src", "dst"]).any()

    def test_prob_ranges(self, net):
        p = net.edge_probs()
        assert p.shape == (net.n_edges, net.Z)
        assert (p > 0).all() and (p <= 0.6).all()

    def test_pi_is_distribution(self, net):
        assert net.pi.shape == (6,)
        assert abs(net.pi.sum() - 1.0) < 1e-9 and (net.pi > 0).all()

    def test_pwz_rows_normalized(self, net):
        assert np.allclose(net.pwz.sum(axis=1), 1.0)

    def test_vocab_blocked(self, net):
        """Each topic's own word block carries most of its mass."""
        wpt = len(net.words) // net.Z
        for z in range(net.Z):
            assert net.pwz[z, z * wpt : (z + 1) * wpt].sum() > 0.85

    def test_affinity_simplex(self, net):
        assert np.allclose(net.affinity.sum(axis=1), 1.0)

    def test_degree_skew(self, net):
        """Power-law-ish out-degrees: max well above mean."""
        deg = net.edges.groupby("src").size()
        assert deg.max() > 4 * deg.mean()

    def test_mutual_flavor_reciprocal(self):
        n = sd.social_network(sf=0.005, Z=4, mutual=True, seed=1)
        pairs = set(zip(n.edges["src"], n.edges["dst"]))
        assert all((d, s) in pairs for s, d in pairs)

    def test_user_count_scales(self):
        small = sd.social_network(sf=0.002, Z=4, seed=1)
        assert small.n_users == int(30_000 * 0.002)

    def test_edges_df_roundtrip(self, spark, net):
        df = net.edges_df(spark)
        assert df.count() == net.n_edges
        assert set(net.prob_cols) <= set(df.columns)


class TestActionLog:
    def test_deterministic(self, net, log):
        again = sd.action_log(net, sf=0.005, seed=4)
        pd.testing.assert_frame_equal(log.trials, again.trials)

    def test_keywords_from_vocab(self, net, log):
        vocab = set(net.words)
        assert all(set(k) <= vocab for k in log.items["keywords"])

    def test_keywords_unique_per_item(self, log):
        assert all(len(k) == len(set(k)) for k in log.items["keywords"])

    def test_trials_reference_real_edges(self, net, log):
        edges = set(zip(net.edges["src"], net.edges["dst"]))
        got = set(zip(log.trials["src"], log.trials["dst"]))
        assert got <= edges

    def test_topics_in_range(self, net, log):
        assert log.items["topic_true"].between(0, net.Z - 1).all()

    def test_authors_valid(self, net, log):
        assert log.items["author"].between(0, net.n_users - 1).all()

    def test_each_item_trials_start_at_author(self, log):
        """The first activated user of each cascade is the author."""
        first = log.trials.groupby("item_id").first()
        merged = first.merge(log.items.set_index("item_id"), left_index=True, right_index=True)
        assert (merged["src"] == merged["author"]).all()

    def test_successful_trial_activates(self, log):
        """A success on (u, v) means v later appears as a trial source or
        the cascade ended — at minimum v is never a *failed* target of the
        same item after a success (activated nodes are skipped)."""
        t = log.trials
        succ = t[t["success"]]
        dup = succ.merge(t, on=["item_id", "dst"], suffixes=("", "_later"))
        # the same (item, dst) can be tried by several exposers before
        # activation, but never after: at most one success per (item, dst)
        per = succ.groupby(["item_id", "dst"]).size()
        assert (per == 1).all()

    def test_spark_roundtrip(self, spark, log):
        assert log.trials_df(spark).count() == len(log.trials)
        assert log.items_df(spark).count() == len(log.items)


class TestSparkFrame:
    """``spark_frame``: one Arrow batch per core instead of a driver-side
    ``LocalRelation``, with the session's settings left as they were."""

    SETTINGS = ("spark.sql.execution.arrow.localRelationThreshold",
                "spark.sql.execution.arrow.maxRecordsPerBatch")

    @staticmethod
    def frames(net, log):
        return {"edges": (net.edges, net.edges_df), "items": (log.items, log.items_df),
                "trials": (log.trials, log.trials_df)}

    @pytest.mark.parametrize("name", ["edges", "items", "trials"])
    def test_frame_equals_pandas(self, spark, net, log, name):
        pdf, lift = self.frames(net, log)[name]
        got = lift(spark).toPandas()
        assert list(got.columns) == list(pdf.columns)
        assert got.dtypes.equals(pdf.dtypes)
        if "keywords" in pdf:
            assert [list(k) for k in got["keywords"]] == pdf["keywords"].tolist()
            got, pdf = got.drop(columns="keywords"), pdf.drop(columns="keywords")
        pd.testing.assert_frame_equal(got, pdf)

    @pytest.mark.parametrize("name", ["edges", "items", "trials", "tiny"])
    def test_one_arrow_batch_per_core(self, spark, net, log, name):
        cores = spark.sparkContext.defaultParallelism
        pdf = log.trials.iloc[: cores - 1] if name == "tiny" else self.frames(net, log)[name][0]
        df = sd.spark_frame(spark, pdf)
        plan = df._jdf.queryExecution().optimizedPlan()
        assert plan.getClass().getSimpleName() == "LogicalRDD"
        assert df.rdd.getNumPartitions() == min(len(pdf), cores)

    def test_session_settings_restored(self, spark, log):
        before = [spark.conf.get(k) for k in self.SETTINGS]
        sd.spark_frame(spark, log.items)
        assert [spark.conf.get(k) for k in self.SETTINGS] == before
        with mock.patch.object(type(spark), "createDataFrame",
                               side_effect=RuntimeError("no frame")):
            with pytest.raises(RuntimeError, match="no frame"):
                sd.spark_frame(spark, log.items)
        assert [spark.conf.get(k) for k in self.SETTINGS] == before

    def test_log_without_trials(self, spark, log):
        """Items but no trial: an empty frame with the four trial columns."""
        quiet = sd.ActionLog(items=log.items, trials=log.trials.iloc[:0])
        df = quiet.trials_df(spark)
        assert df.columns == ["item_id", "src", "dst", "success"]
        assert df.count() == 0
        assert df.toPandas().dtypes.equals(log.trials.dtypes)
