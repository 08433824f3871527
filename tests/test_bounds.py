"""Bound families: validity (dominate exact MIA spreads for arbitrary
queries), the precompute against a DuckDB recursive-CTE oracle, and
local↔Spark precompute equality."""
import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mia import mia_sigma_single
from repro.graphlib.builder import LocalGraph
from repro.influence.bounds import (
    best_upper_bounds,
    nb_bounds,
    pb_bounds,
    precompute_local,
    precompute_spark,
)
from tests.conftest import random_local_graph


def dirichlet_gamma(seed, Z):
    return np.random.default_rng(seed).dirichlet(np.full(Z, 0.5))


class TestPrecompute:
    def test_sigma_at_least_one(self, pre):
        assert (pre.sigma_max >= 1.0 - 1e-12).all()
        assert (pre.tree_size >= 1).all()

    def test_sigma_bounded_by_tree_size(self, pre):
        assert (pre.sigma_max <= pre.tree_size + 1e-9).all()

    def test_spark_matches_local(self, spark, graph):
        loc = precompute_local(graph, theta=0.05)
        dist = precompute_spark(spark, graph, theta=0.05)
        assert np.array_equal(loc.sigma_max, dist.sigma_max)
        assert np.array_equal(loc.tree_size, dist.tree_size)

    @pytest.mark.parametrize("theta", [-0.5, 1.5])
    def test_theta_outside_unit_interval_raises(self, spark, theta):
        """Both precomputes reject θ outside [0, 1]; the Spark one on the
        driver, before any job."""
        g = random_local_graph(0, n=6, Z=1)
        with pytest.raises(ValueError, match="outside"):
            precompute_local(g, theta=theta)
        with pytest.raises(ValueError, match="outside"):
            precompute_spark(spark, g, theta=theta)

    def test_dag_oracle_recursive_cte(self):
        """On a DAG every path can be enumerated: DuckDB's recursive CTE
        over all paths with probability ≥ θ, reduced to the best path per
        (root, node) and summed per root, is σ_max and its count the tree
        size, for every node as a root."""
        rng = np.random.default_rng(0)
        rows = [(s, d, round(float(rng.random() * 0.9 + 0.05), 3))
                for s in range(12) for d in range(s + 1, 12) if rng.random() < 0.3]
        edges = pd.DataFrame(rows, columns=["src", "dst", "p"])
        g = LocalGraph.from_edges(edges["src"], edges["dst"], edges["p"].to_numpy(), n=12)
        pre = precompute_local(g, theta=0.001)
        con = duckdb.connect()
        try:
            con.register("edges", edges)
            want = con.execute("""
                WITH RECURSIVE walk(root, node, prob) AS (
                    SELECT r, r, CAST(1.0 AS DOUBLE) FROM range(12) t(r)
                    UNION ALL
                    SELECT w.root, e.dst, w.prob * e.p
                    FROM walk w JOIN edges e ON w.node = e.src
                    WHERE w.prob * e.p >= 0.001
                ), best AS (
                    SELECT root, node, max(prob) AS prob FROM walk GROUP BY root, node
                )
                SELECT root, sum(prob) AS sigma, count(*) AS tree_size
                FROM best GROUP BY root ORDER BY root
            """).fetchdf()
        finally:
            con.close()
        assert want["root"].tolist() == list(range(12))
        # Same terms, summed in another order: equal to rounding.
        assert np.allclose(pre.sigma_max, want["sigma"], rtol=1e-12, atol=0)
        assert np.array_equal(pre.tree_size, want["tree_size"])


def odd_graph(seed: int, n: int, Z: int) -> LocalGraph:
    """A random digraph on ``n`` users where about a third of the edges
    have probability 0 in every topic and some users have no edges."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n)
    pairs = pd.DataFrame({"src": src, "dst": dst})[src != dst].drop_duplicates()
    pairs = pairs[(pairs["src"] < n - 2) & (pairs["dst"] < n - 2)]  # users n−2, n−1: no edges
    probs = rng.random((len(pairs), Z))
    probs[rng.random(len(pairs)) < 1 / 3] = 0.0
    return LocalGraph.from_edges(pairs["src"].to_numpy(), pairs["dst"].to_numpy(), probs, n=n)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 14), Z=st.integers(1, 3),
       theta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_spark_precompute_equals_local(spark, seed, n, Z, theta):
    """The Spark precompute runs the driver's per-root kernel, so σ_max
    and the tree sizes are equal, bit for bit."""
    g = odd_graph(seed, n, Z)
    loc = precompute_local(g, theta=theta)
    dist = precompute_spark(spark, g, theta=theta)
    assert np.array_equal(loc.sigma_max, dist.sigma_max)
    assert np.array_equal(loc.tree_size, dist.tree_size)


@pytest.mark.parametrize("qseed", [0, 1, 2, 3])
class TestValidity:
    """Every family dominates the exact per-user MIA spread."""

    def _setup(self, graph, pre, qseed):
        gm = dirichlet_gamma(qseed, graph.Z)
        p_eff = graph.effective_probs(gm)
        users = np.random.default_rng(qseed).choice(graph.n, 40, replace=False)
        exact = np.array(
            [mia_sigma_single(graph, p_eff, int(u), pre.theta) for u in users]
        )
        return p_eff, users, exact

    def test_pb(self, graph, pre, qseed):
        p_eff, users, exact = self._setup(graph, pre, qseed)
        assert (pb_bounds(pre)[users] >= exact - 1e-9).all()

    def test_nb(self, graph, pre, qseed):
        p_eff, users, exact = self._setup(graph, pre, qseed)
        assert (nb_bounds(graph, p_eff, pre)[users] >= exact - 1e-9).all()

    def test_min_combination(self, graph, pre, qseed):
        p_eff, users, exact = self._setup(graph, pre, qseed)
        ub = best_upper_bounds(graph, p_eff, pre)
        assert (ub[users] >= exact - 1e-9).all()


class TestBoundShapes:
    def test_nb_isolated_node_is_one(self):
        g = random_local_graph(1, n=10, Z=2)
        pre = precompute_local(g, theta=0.01)
        p = g.effective_probs(np.array([0.5, 0.5]))
        nb = nb_bounds(g, p, pre)
        sinks = [u for u in range(g.n) if len(g.out_edges(u)) == 0]
        for u in sinks:
            assert abs(nb[u] - 1.0) < 1e-12
