"""Monte-Carlo influence spread under the independent cascade model.

The ground-truth estimator every faster method is validated against, and
the engine inside the paper's naive baseline ("compute pp_{u,v} for each
edge given the query and then employ the traditional IM algorithms").

Sampling is *coupled by sample id*: sample ``i`` always uses the RNG
stream ``default_rng(seed * 1_000_003 + i)``, so an estimate is
deterministic in ``seed`` and estimates of different seed sets share their
random streams (T4's influence regions draw them one sample at a time).
"""
import numpy as np

from repro.graphlib.builder import LocalGraph


def _sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    return np.random.default_rng(seed * 1_000_003 + sample_id)


def simulate_cascade(
    graph: LocalGraph, p_eff: np.ndarray, seeds, rng: np.random.Generator,
    forward: bool = True,
) -> set:
    """One IC cascade: lazily draw each out-edge of a newly activated node
    once (live-edge semantics); returns the activated node set. With
    ``forward=False`` the walk draws in-edges and moves to their tails, so
    from a single root it samples an RR set (``ris.rr_sets_local``)."""
    edges, nbr = (graph.out_edges, graph.e_dst) if forward else (graph.in_edges, graph.e_src)
    active = set(int(s) for s in seeds)
    frontier = list(active)
    while frontier:
        nxt = []
        for u in frontier:
            eids = edges(u)
            if len(eids) == 0:
                continue
            draws = rng.random(len(eids))
            for e, r in zip(eids, draws):
                if r < p_eff[e]:
                    v = int(nbr[e])
                    if v not in active:
                        active.add(v)
                        nxt.append(v)
        frontier = nxt
    return active


def mc_spread_local(
    graph: LocalGraph,
    p_eff: np.ndarray,
    seeds,
    *,
    n_samples: int = 200,
    seed: int = 0,
) -> float:
    """Mean activated-set size over ``n_samples`` coupled cascades;
    ``n_samples`` < 1 raises ``ValueError``."""
    if n_samples < 1:
        raise ValueError(f"n_samples = {n_samples}: an estimate needs at least one cascade")
    total = 0
    for i in range(n_samples):
        total += len(simulate_cascade(graph, p_eff, seeds, _sample_rng(seed, i)))
    return total / n_samples
