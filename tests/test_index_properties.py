"""Properties of the influencer index on random small graphs with
zero-probability edges, edges whose probability equals a stored r_e
exactly (so ``r_e ≤ pp_γ(e)`` is decided by the tie), γ with zero
components, monitors estimating themselves and users in no envelope:

* the lazy-liveness estimate equals the whole-envelope liveness BFS it
  replaced, exactly;
* ``by_user`` is the inverted list of the envelope node sets;
* a Spark-built index holds the same samples, and gives the same
  estimates, as the local build."""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keyword_suggest import (
    _monitor_roots,
    build_influencer_index_local,
    build_influencer_index_spark,
    edge_uniform,
)
from repro.graphlib.builder import LocalGraph

SETTINGS = settings(max_examples=60, deadline=None)


def tie_graph(seed: int, n: int, Z: int, R: int, index_seed: int) -> LocalGraph:
    """A random digraph whose edges are, in equal shares, at probability 0
    in every topic, random, or random except one topic whose probability
    is the edge's r_e in one sample of the index (``R``, ``index_seed``)
    that will be built on it."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
    pairs = pd.DataFrame({"src": src, "dst": dst})[src != dst].drop_duplicates()
    E = len(pairs)
    probs = rng.random((E, Z))
    kind = rng.integers(0, 3, E)
    probs[kind == 0] = 0.0
    for e in np.flatnonzero(kind == 2).tolist():
        sample = int(rng.integers(0, R))
        probs[e, rng.integers(0, Z)] = edge_uniform(index_seed, sample, np.array([e]))[0]
    return LocalGraph.from_edges(pairs["src"].to_numpy(), pairs["dst"].to_numpy(), probs, n=n)


def gammas_for(Z: int, seed: int) -> list:
    """Every one-hot γ (pp_γ is then one topic's column, ties intact) and
    one Dirichlet draw with a zeroed component when Z > 1."""
    out = list(np.eye(Z))
    g = np.random.default_rng(seed).dirichlet(np.full(Z, 0.5))
    if Z > 1:
        g[0] = 0.0
        g /= g.sum()
    return out + [g]


def reference_estimate(index, graph: LocalGraph, user: int, gamma) -> float:
    """The estimate before delayed materialization: liveness of every
    stored edge of every sample whose envelope holds ``user``, then a
    reverse BFS over the live ones."""
    hits = 0
    for i, s in enumerate(index.samples):
        if user not in s.nodes:
            continue
        if user == s.root:
            hits += 1
            continue
        live = edge_uniform(index.seed, i, s.eids) <= graph.probs[s.eids] @ gamma
        adj: dict = {}
        for u, v in zip(graph.e_src[s.eids[live]].tolist(), graph.e_dst[s.eids[live]].tolist()):
            adj.setdefault(v, []).append(u)
        found, frontier = {s.root}, [s.root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj.get(v, ()):
                    if u not in found:
                        found.add(u)
                        nxt.append(u)
            frontier = nxt
        hits += user in found
    return index.n * hits / index.R


indexed = st.builds(
    lambda seed, n, Z, R, index_seed: (tie_graph(seed, n, Z, R, index_seed), R, index_seed),
    seed=st.integers(0, 2**31),
    n=st.integers(1, 10),
    Z=st.integers(1, 3),
    R=st.integers(1, 30),
    index_seed=st.integers(0, 1000),
)


@SETTINGS
@given(case=indexed, gamma_seed=st.integers(0, 2**31))
def test_estimate_equals_whole_envelope_reference(case, gamma_seed):
    graph, R, index_seed = case
    index = build_influencer_index_local(graph, R=R, seed=index_seed)
    for gamma in gammas_for(graph.Z, gamma_seed):
        for user in range(graph.n):
            assert index.estimate(user, gamma) == reference_estimate(index, graph, user, gamma)


@SETTINGS
@given(case=indexed)
def test_by_user_is_the_inverted_envelope_list(case):
    graph, R, index_seed = case
    index = build_influencer_index_local(graph, R=R, seed=index_seed)
    for u in range(graph.n):
        assert index.by_user[u] == [i for i, s in enumerate(index.samples) if u in s.nodes]


def test_users_outside_the_graph_estimate_zero():
    graph = tie_graph(0, 6, 2, 10, 3)
    index = build_influencer_index_local(graph, R=10, seed=3)
    assert index.estimate(-1, np.array([0.5, 0.5])) == 0.0
    assert index.estimate(graph.n, np.array([0.5, 0.5])) == 0.0


def test_spark_build_estimates_equal_local(spark):
    for seed in range(3):
        graph = tie_graph(seed, 10, 2, 25, seed)
        loc = build_influencer_index_local(graph, R=25, seed=seed)
        dist = build_influencer_index_spark(spark, graph, R=25, seed=seed)
        assert [s.root for s in dist.samples] == _monitor_roots(graph.n, 25, seed).tolist()
        assert len(dist.samples) == len(loc.samples)
        for a, b in zip(dist.samples, loc.samples):
            assert a.root == b.root
            assert a.eids.tolist() == b.eids.tolist()  # BFS order included
            assert a.nodes == b.nodes
            assert a.in_adj == b.in_adj
        assert dist.by_user == loc.by_user
        for gamma in gammas_for(graph.Z, seed):
            for user in range(graph.n):
                assert dist.estimate(user, gamma) == loc.estimate(user, gamma)
