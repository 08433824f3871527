"""LocalGraph CSR invariants and the Spark graph-construction dataflows
(checked against the DuckDB oracle)."""
import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro.graphlib.builder import LocalGraph, degree_stats, graph_from_trials
from repro.oracle import assert_equivalent
from tests.conftest import random_local_graph


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestLocalGraphCSR:
    def test_out_edges_match_bruteforce(self, seed):
        g = random_local_graph(seed)
        for u in range(g.n):
            got = sorted(g.e_dst[e] for e in g.out_edges(u))
            want = sorted(g.e_dst[i] for i in range(g.n_edges) if g.e_src[i] == u)
            assert got == want

    def test_in_edges_match_bruteforce(self, seed):
        g = random_local_graph(seed)
        for v in range(g.n):
            got = sorted(g.e_src[e] for e in g.in_edges(v))
            want = sorted(g.e_src[i] for i in range(g.n_edges) if g.e_dst[i] == v)
            assert got == want

    def test_edge_partition(self, seed):
        g = random_local_graph(seed)
        assert g.out_ptr[0] == 0 and g.out_ptr[-1] == g.n_edges
        assert sorted(g.out_eid) == list(range(g.n_edges))
        assert sorted(g.in_eid) == list(range(g.n_edges))

    def test_pickle_ships_only_the_csr(self, seed):
        """A pickled graph (what ``fan_out`` broadcasts) carries the nine
        CSR fields, not the adjacency lists already built on it."""
        g = random_local_graph(seed)
        g.adjacency_lists(), g.adjacency_lists(forward=False)
        back = pickle.loads(pickle.dumps(g))
        for f in fields(LocalGraph):
            assert np.array_equal(getattr(back, f.name), getattr(g, f.name))
        assert not {"_out_lists", "_in_lists"} & set(vars(back))
        assert back.adjacency_lists() == g.adjacency_lists()


class TestEffectiveProbs:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_manual_dot(self, seed):
        g = random_local_graph(seed, Z=4)
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        assert np.allclose(g.effective_probs(gamma), g.probs @ gamma)

    def test_pure_topic_selects_column(self, graph):
        gm = np.zeros(graph.Z)
        gm[2] = 1.0
        assert np.allclose(graph.effective_probs(gm), graph.probs[:, 2])

    def test_max_probs_dominate(self, graph):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        assert (graph.max_probs() >= graph.effective_probs(gm) - 1e-12).all()

class TestBuilders:
    def test_from_network_shapes(self, net, graph):
        assert graph.n == net.n_users
        assert graph.n_edges == net.n_edges
        assert graph.Z == net.Z

    def test_graph_from_trials_oracle(self, spark, log):
        trials = log.trials_df(spark)
        got = graph_from_trials(trials)
        assert_equivalent(
            got,
            """
            SELECT src, dst, count(*) AS n_trials,
                   sum(CASE WHEN success THEN 1 ELSE 0 END) AS n_success
            FROM trials GROUP BY src, dst ORDER BY src, dst
            """,
            trials=log.trials,
        )

    def test_graph_from_trials_subset_of_edges(self, spark, net, log):
        got = graph_from_trials(log.trials_df(spark)).toPandas()
        edges = set(zip(net.edges["src"], net.edges["dst"]))
        assert set(zip(got["src"], got["dst"])) <= edges

    def test_degree_stats_oracle(self, spark, net):
        edges = net.edges_df(spark).select("src", "dst")
        got = degree_stats(edges)
        assert_equivalent(
            got,
            """
            WITH o AS (SELECT src AS user_id, count(*) AS out_degree
                       FROM edges GROUP BY src),
                 i AS (SELECT dst AS user_id, count(*) AS in_degree
                       FROM edges GROUP BY dst)
            SELECT coalesce(o.user_id, i.user_id) AS user_id,
                   coalesce(out_degree, 0) AS out_degree,
                   coalesce(in_degree, 0) AS in_degree
            FROM o FULL OUTER JOIN i ON o.user_id = i.user_id
            ORDER BY user_id
            """,
            edges=net.edges[["src", "dst"]],
        )

    def test_degree_stats_totals(self, spark, net):
        pdf = degree_stats(net.edges_df(spark)).toPandas()
        assert pdf["out_degree"].sum() == net.n_edges
        assert pdf["in_degree"].sum() == net.n_edges

    def test_single_topic_probs_promote_to_2d(self):
        g = LocalGraph.from_edges([0], [1], np.array([0.5]), n=2)
        assert g.probs.shape == (1, 1) and g.Z == 1
