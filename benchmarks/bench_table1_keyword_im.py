"""T1 — Scenario 1, keyword-based influence maximization.

Per-method online query latency (the paper's headline claim: the naive
per-query solution is "extremely expensive", OCTOPUS answers online) and
the full table sweep recorded to ``results/t1.md``.
"""
import numpy as np
import pytest

from benchmarks.conftest import BENCH, write_table
from repro.core.keyword_im import (
    best_effort_im,
    naive_mc_im,
    naive_mia_im,
    naive_ris_im,
)
from repro.experiments import default_queries, table1_keyword_im


@pytest.fixture(scope="module")
def query(wb):
    return default_queries(wb.net)[0]  # "mining_w0 mining_w1"


def test_t1_query_naive_mc_restricted(benchmark, wb, query):
    """The paper's straw-man, already capped to the 50 highest-degree
    candidates and 50 MC samples — still orders of magnitude slower."""
    deg = np.bincount(wb.model.graph.e_src, minlength=wb.model.graph.n)
    cand = np.argsort(-deg)[:50].tolist()
    benchmark.pedantic(
        lambda: naive_mc_im(wb.model, query, BENCH["k"], n_samples=50,
                            seed=0, candidates=cand),
        rounds=1, iterations=1,
    )


def test_t1_query_naive_ris(benchmark, wb, query):
    benchmark.pedantic(
        lambda: naive_ris_im(wb.model, query, BENCH["k"], R=2000, seed=0),
        rounds=2, iterations=1,
    )


def test_t1_query_naive_mia(benchmark, wb, query):
    benchmark.pedantic(
        lambda: naive_mia_im(wb.model, query, BENCH["k"]),
        rounds=3, iterations=1,
    )


def test_t1_query_best_effort(benchmark, wb, query):
    benchmark.pedantic(
        lambda: best_effort_im(wb.model, wb.pre, query, BENCH["k"]),
        rounds=5, iterations=1,
    )


def test_t1_full_table(benchmark, wb):
    """The full sweep over all queries and methods → results/t1.md."""

    def run():
        return table1_keyword_im(
            wb, k=BENCH["k"], ris_R=2000, mc_eval_samples=200,
            include_naive_mc=True, naive_mc_candidates=50, naive_mc_samples=50,
        )

    t1 = benchmark.pedantic(run, rounds=1, iterations=1)
    write_table(
        "t1_keyword_im", t1,
        meta={
            "offline_precompute_s": round(wb.precompute_s, 1),
            "n_users": wb.net.n_users, "n_edges": wb.net.n_edges,
            **BENCH,
        },
    )
    assert (t1[t1["method"] == "best-effort"]["spread_vs_greedy"] > 0.95).all()
