"""Table harnesses at toy scale: shapes, required columns, and the
headline invariants each table is meant to exhibit."""
import numpy as np
import pytest

from repro.experiments import (
    build_workbench,
    default_queries,
    table1_keyword_im,
    table2_bounds,
    table3_suggest,
    table4_mia_paths,
    table5_em,
)


@pytest.fixture(scope="module")
def wb(spark):
    """Tiny workbench shared by the harness tests."""
    return build_workbench(spark, sf=0.004, Z=4, sf_items=0.002, seed=5)


class TestWorkbench:
    def test_shapes(self, wb):
        assert wb.model.graph.n == wb.net.n_users
        assert wb.pre.sigma_max.shape == (wb.net.n_users,)

    def test_default_queries(self, wb):
        qs = default_queries(wb.net)
        assert len(qs) == wb.net.Z + 2
        vocab = set(wb.net.words)
        assert all(set(q) <= vocab for q in qs)


class TestT1:
    def test_rows_and_columns(self, wb):
        t1 = table1_keyword_im(wb, k=3, ris_R=200, mc_eval_samples=30)
        assert set(t1["method"]) == {"naive-mia", "naive-ris", "best-effort"}
        assert len(t1) == len(default_queries(wb.net)) * 3
        for col in ("latency_s", "n_exact_evals", "mc_spread", "spread_vs_greedy"):
            assert col in t1.columns

    def test_best_effort_prunes(self, wb):
        t1 = table1_keyword_im(wb, k=3, ris_R=100, mc_eval_samples=20)
        naive = t1[t1["method"] == "naive-mia"].set_index("query")["n_exact_evals"]
        be = t1[t1["method"] == "best-effort"].set_index("query")["n_exact_evals"]
        assert (be < naive).all()

    def test_naive_mc_opt_in(self, wb):
        t1 = table1_keyword_im(wb, k=2, ris_R=50, mc_eval_samples=10,
                               include_naive_mc=True, naive_mc_candidates=8,
                               naive_mc_samples=10)
        assert "naive-mc" in set(t1["method"])


class TestT2:
    def test_rows(self, wb):
        t2 = table2_bounds(wb, k=3, queries=default_queries(wb.net)[:2],
                           n_eval_users=30)
        assert set(t2["bound"]) == {"PB", "NB", "min(PB,NB)"}
        assert t2["valid"].all()
        assert (t2["mean_tightness"] >= 1.0).all()


class TestT3:
    def test_rows(self, wb, spark):
        t3, meta = table3_suggest(wb, spark, k=2, n_targets=2, pool_size=6,
                                  index_R=50, n_mc=20, mc_eval_samples=30,
                                  exhaustive_pool=4)
        assert meta["index_R"] == 50 and meta["index_build_s"] > 0
        methods = set(t3["method"])
        assert {"greedy-index", "greedy-mc", "freq", "exhaustive-index"} <= methods
        assert (t3.groupby("target").size() == 4).all()


class TestT4:
    def test_rows(self, wb):
        t4 = table4_mia_paths(wb, thetas=(0.3, 0.05), n_roots=2,
                              mc_region_samples=20)
        assert len(t4) == 4
        # smaller θ ⇒ tree can only grow
        for root, grp in t4.groupby("root"):
            grp = grp.sort_values("theta", ascending=False)
            sizes = grp["tree_size"].tolist()
            assert sizes == sorted(sizes)


class TestT5:
    def test_rows(self, spark):
        t5 = table5_em(spark, sf=0.004, Z=3, sf_items_list=(0.001,), n_iter=3,
                       seed=5)
        assert len(t5) == 3
        ll = t5["loglik"].to_numpy()
        assert (np.diff(ll) >= -1e-6).all()
        last = t5.iloc[-1]
        assert last["word_cosine"] == last["word_cosine"]  # not NaN
