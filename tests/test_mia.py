"""MIA engine: arborescence closed forms, brute-force max-prob paths,
spread/marginal algebra, and path extraction."""
import itertools

import numpy as np
import pytest

from repro.core.keyword_im import greedy_mia
from repro.core.mia import (
    ap_map,
    extract_paths,
    mia_marginal,
    mia_sigma,
    mia_sigma_single,
    miia,
    mioa,
)
from repro.graphlib.builder import LocalGraph
from tests.conftest import random_local_graph


def brute_max_prob(g, p_eff, root):
    """Max path probability root→v by enumerating simple paths (tiny n)."""
    best = {root: 1.0}
    adj = {u: [(int(g.e_dst[e]), p_eff[e]) for e in g.out_edges(u)] for u in range(g.n)}

    def dfs(u, prob, seen):
        for v, p in adj[u]:
            if v in seen or p <= 0:
                continue
            np_ = prob * p
            if np_ > best.get(v, 0.0):
                best[v] = np_
            dfs(v, np_, seen | {v})

    dfs(root, 1.0, {root})
    return best


class TestMioaClosedForm:
    def test_chain_probs(self, chain_graph):
        tree = mioa(chain_graph, chain_graph.probs[:, 0], 0, theta=0.01)
        assert tree[0] == (1.0, -1)
        assert abs(tree[1][0] - 0.5) < 1e-12
        assert abs(tree[2][0] - 0.2) < 1e-12
        assert abs(tree[3][0] - 0.04) < 1e-12

    def test_chain_parents(self, chain_graph):
        tree = mioa(chain_graph, chain_graph.probs[:, 0], 0, theta=0.01)
        assert tree[1][1] == 0 and tree[2][1] == 1 and tree[3][1] == 2

    def test_theta_prunes(self, chain_graph):
        tree = mioa(chain_graph, chain_graph.probs[:, 0], 0, theta=0.1)
        assert 3 not in tree and 2 in tree

    def test_diamond_picks_better_path(self, diamond_graph):
        tree = mioa(diamond_graph, diamond_graph.probs[:, 0], 0, theta=0.01)
        assert abs(tree[3][0] - 0.45) < 1e-12
        assert tree[3][1] == 2

    def test_sigma_single_chain(self, chain_graph):
        s = mia_sigma_single(chain_graph, chain_graph.probs[:, 0], 0, theta=0.01)
        assert abs(s - (1 + 0.5 + 0.2 + 0.04)) < 1e-12

    def test_cycle_converges(self):
        """A 2-cycle: the walk back to the root never beats the root's 1.0."""
        g = LocalGraph.from_edges([0, 1], [1, 0], np.array([[0.5], [0.5]]), n=2)
        assert mioa(g, g.probs[:, 0], 0, theta=0.01) == {0: (1.0, -1), 1: (0.5, 0)}

    def test_leaf_tree_is_self(self, chain_graph):
        tree = mioa(chain_graph, chain_graph.probs[:, 0], 3, theta=0.01)
        assert tree == {3: (1.0, -1)}


@pytest.mark.parametrize("tree_fn", [mioa, miia])
@pytest.mark.parametrize("root, theta", [(-1, 0.01), (4, 0.01), (0, -1.0), (0, 2.0)])
def test_out_of_range_root_or_theta_raises(chain_graph, tree_fn, root, theta):
    """Roots outside [0, n) and θ outside [0, 1] are errors, not a
    one-node tree, an IndexError, or a silently clamped θ."""
    with pytest.raises(ValueError):
        tree_fn(chain_graph, chain_graph.probs[:, 0], root, theta)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("root", [0, 7])
def test_mioa_matches_bruteforce(seed, root):
    g = random_local_graph(seed, n=12, Z=1, avg_deg=3)
    p = g.probs[:, 0]
    tree = mioa(g, p, root, theta=0.0)
    want = brute_max_prob(g, p, root)
    assert set(tree) == set(want)
    for v in want:
        assert abs(tree[v][0] - want[v]) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_miia_equals_mioa_on_reversed(seed):
    g = random_local_graph(seed, n=15, Z=1)
    p = g.probs[:, 0]
    r = LocalGraph.from_edges(g.e_dst, g.e_src, g.probs, n=g.n)
    pr = r.probs[:, 0]
    for root in (0, 5):
        a = miia(g, p, root, theta=0.02)
        b = mioa(r, pr, root, theta=0.02)
        assert set(a) == set(b)
        for v in a:
            assert abs(a[v][0] - b[v][0]) < 1e-9


class TestSpreadAlgebra:
    def test_sigma_set_on_disjoint_trees(self, chain_graph):
        """Seeds {0} on a chain: σ({0}) = σ-single; adding the leaf adds
        exactly (1 − ap(0,3)) ≈ its fresh mass."""
        p = chain_graph.probs[:, 0]
        s0 = mia_sigma(chain_graph, p, [0], theta=0.0)
        assert abs(s0 - mia_sigma_single(chain_graph, p, 0, 0.0)) < 1e-12
        s03 = mia_sigma(chain_graph, p, [0, 3], theta=0.0)
        assert abs(s03 - (s0 + (1 - 0.04))) < 1e-12

    def test_marginal_matches_sigma_difference(self):
        g = random_local_graph(7, n=20, Z=1)
        p = g.probs[:, 0]
        seeds = [0, 3]
        ap = ap_map(g, p, seeds, 0.01)
        for u in (5, 9, 12):
            marg = mia_marginal(g, p, u, ap, 0.01)
            diff = mia_sigma(g, p, seeds + [u], 0.01) - mia_sigma(g, p, seeds, 0.01)
            assert abs(marg - diff) < 1e-9

    def test_ap_map_bounds(self):
        g = random_local_graph(2, n=20, Z=1)
        ap = ap_map(g, g.probs[:, 0], [0, 1, 2], 0.01)
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in ap.values())

    def test_sigma_monotone_in_seeds(self):
        g = random_local_graph(3, n=20, Z=1)
        p = g.probs[:, 0]
        prev = 0.0
        for k in range(1, 5):
            cur = mia_sigma(g, p, list(range(k)), 0.01)
            assert cur >= prev - 1e-12
            prev = cur


class TestGreedy:
    def test_greedy_equals_bruteforce_on_small(self):
        g = random_local_graph(11, n=10, Z=1, avg_deg=3)
        p = g.probs[:, 0]
        seeds, spread, _ = greedy_mia(g, p, 2, theta=0.0)
        # greedy invariants: first seed maximizes singleton spread
        singles = [mia_sigma_single(g, p, u, 0.0) for u in range(g.n)]
        assert abs(singles[seeds[0]] - max(singles)) < 1e-9
        assert spread == mia_sigma(g, p, seeds, 0.0)

    def test_greedy_k_seeds(self, graph, model):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        seeds, spread, n_evals = greedy_mia(graph, graph.effective_probs(gm), 5, 0.01)
        assert len(seeds) == len(set(seeds)) == 5
        assert n_evals >= graph.n  # first round evaluates everyone

    def test_greedy_deterministic(self, graph):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        p = graph.effective_probs(gm)
        a = greedy_mia(graph, p, 3, 0.01)
        b = greedy_mia(graph, p, 3, 0.01)
        assert a[0] == b[0] and abs(a[1] - b[1]) < 1e-12


class TestExtractPaths:
    def test_chain_paths(self, chain_graph):
        tree = mioa(chain_graph, chain_graph.probs[:, 0], 0, theta=0.01)
        paths = extract_paths(tree, 0)
        by_node = paths.set_index("node")
        assert by_node.loc[3, "path"] == [0, 1, 2, 3]
        assert by_node.loc[3, "depth"] == 3
        assert by_node.loc[3, "cluster"] == 1

    def test_root_row(self, chain_graph):
        tree = mioa(chain_graph, chain_graph.probs[:, 0], 0, theta=0.01)
        paths = extract_paths(tree, 0)
        r = paths[paths["node"] == 0].iloc[0]
        assert r["depth"] == 0 and r["path"] == [0] and r["prob"] == 1.0

    def test_paths_are_consistent(self, graph):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        p = graph.effective_probs(gm)
        tree = mioa(graph, p, 0, theta=0.02)
        paths = extract_paths(tree, 0)
        for r in paths.itertuples():
            assert r.path[0] == 0 and r.path[-1] == r.node
            assert len(r.path) == r.depth + 1
            # every prefix of a stored path is itself in the tree
            for v in r.path:
                assert v in tree

    def test_clusters_are_first_hops(self, graph):
        gm = np.full(graph.Z, 1.0 / graph.Z)
        tree = mioa(graph, graph.effective_probs(gm), 0, theta=0.02)
        paths = extract_paths(tree, 0)
        nz = paths[paths["depth"] > 0]
        hops = {r.path[1] for r in nz.itertuples()}
        assert set(nz["cluster"]) == hops
