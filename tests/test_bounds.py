"""Bound families: validity (dominate exact MIA spreads for arbitrary
queries) and local↔Spark precompute equality."""
import numpy as np
import pytest

from repro.core.mia import mia_sigma_single
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
        assert np.allclose(loc.sigma_max, dist.sigma_max, atol=1e-9)
        assert (loc.tree_size == dist.tree_size).all()


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
