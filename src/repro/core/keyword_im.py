"""Keyword-based influence maximization (paper §II-C, Scenario 1).

Given keywords ``W`` describing a topic, find the ``k`` seed users with
maximum influence spread under the induced γ. Four methods, from the
paper's narrative:

* :func:`naive_mc_im` — "compute pp_{u,v} for each edge given the query
  and then employ the traditional IM algorithms": per-query graph
  materialization + CELF greedy over Monte-Carlo spread. Extremely
  expensive; the reason OCTOPUS exists.
* :func:`naive_ris_im` — the stronger traditional baseline ([8]): fresh
  RIS sampling per query.
* :func:`naive_mia_im` — greedy over MIA spread with *no* bounds (every
  user's tree evaluated in round one); isolates the benefit of bounds.
* :func:`greedy_mia` — the one CELF-over-MIA loop behind both of those
  (bounds optional).
* :func:`best_effort_im` — the paper's best-effort framework: min(PB, NB)
  upper bounds feed CELF so only promising users are ever evaluated.
  Output is identical to :func:`naive_mia_im` (guarantee preserved).

The topic-sample index of [3] (stored seed sets as warm starts) is not
kept: with ε = 0 it made more exact evaluations than best-effort for the
same seeds (EXPERIMENTS.md, T1).
"""
from dataclasses import dataclass

import numpy as np

from repro.core.mia import edge_weights, mia_marginal, mia_sigma, mioa
from repro.core.model import TopicAwareInfluenceModel
from repro.influence.bounds import Precomputed, best_upper_bounds
from repro.influence.celf import celf
from repro.influence.ris import ris_im
from repro.influence.spread import mc_spread_local


@dataclass
class IMAnswer:
    """A keyword-IM result: seeds in greedy order + bookkeeping."""

    method: str
    keywords: list
    gamma: np.ndarray
    seeds: list
    spread: float            # objective value under the method's estimator
    n_exact_evals: int       # exact spread/tree evaluations performed
    mia_spread: float        # comparable MIA spread of the seed set


def _finish(method, keywords, gamma, seeds, spread, n_evals, mia_spread) -> IMAnswer:
    """Package an answer with the comparable MIA spread of its seeds."""
    return IMAnswer(
        method=method, keywords=list(keywords), gamma=gamma, seeds=list(seeds),
        spread=float(spread), n_exact_evals=int(n_evals), mia_spread=float(mia_spread),
    )


def naive_mc_im(
    model: TopicAwareInfluenceModel, keywords, k: int,
    *, n_samples: int = 100, seed: int = 0, candidates=None,
) -> IMAnswer:
    """The paper's straw-man: CELF over Monte-Carlo spread, from scratch,
    at query time. ``candidates`` may restrict the pool (benchmarks cap it
    — unrestricted MC-greedy is intractable, which is the point)."""
    gamma, p_eff = model.query_probs(keywords)
    g = model.graph
    cand = range(g.n) if candidates is None else candidates

    def marginal(u, seeds, state):
        base = state if state is not None else 0.0
        return (
            mc_spread_local(g, p_eff, list(seeds) + [u], n_samples=n_samples, seed=seed)
            - base
        )

    def state_update(seeds):
        if not seeds:
            return 0.0
        return mc_spread_local(g, p_eff, seeds, n_samples=n_samples, seed=seed)

    seeds, total, n_evals = celf(cand, marginal, k, state_update=state_update)
    return _finish("naive-mc", keywords, gamma, seeds, total, n_evals,
                   mia_sigma(g, p_eff, seeds, model.theta))


def naive_ris_im(
    model: TopicAwareInfluenceModel, keywords, k: int,
    *, R: int = 2000, seed: int = 0,
) -> IMAnswer:
    """Traditional online baseline: fresh RIS per query ([8])."""
    gamma, p_eff = model.query_probs(keywords)
    seeds, est = ris_im(model.graph, p_eff, k, R=R, seed=seed)
    return _finish("naive-ris", keywords, gamma, seeds, est, R,
                   mia_sigma(model.graph, p_eff, seeds, model.theta))


def greedy_mia(graph, p_eff: np.ndarray, k: int, theta: float = 0.01, *,
               upper_bounds=None) -> tuple:
    """CELF greedy over MIA marginal gains on every user of ``graph``.

    Without ``upper_bounds`` it is plain greedy (every tree evaluated in
    round one), the exact answer the bounded loop must reproduce; with
    them it is the best-effort loop. Each user's MIOA is built at most
    once, on one weight list.

    Returns ``(seeds, spread, n_tree_evals)``, where ``spread`` is the
    seeds' MIA spread Σ_v ap(S, v), the same floats as ``mia_sigma``.
    """
    weights = edge_weights(graph, p_eff).tolist()
    trees: dict = {}

    def tree_of(u):
        tree = trees.get(u)
        if tree is None:
            tree = trees[u] = mioa(graph, p_eff, u, theta, weights=weights)
        return tree

    def marginal(u, seeds, ap_state):
        return mia_marginal(graph, p_eff, u, ap_state, theta, tree=tree_of(u))

    # ap(S, ·) as mia.ap_map builds it, kept across rounds: celf calls
    # state_update once up front and once per selection, so only the newest
    # seed's tree is folded in, in seed order (the same floats).
    one_minus: dict = {}
    ap: dict = {}

    def state_update(seeds):
        if seeds:
            for v, (p, _) in tree_of(seeds[-1]).items():
                om = one_minus[v] = one_minus.get(v, 1.0) * (1.0 - p)
                ap[v] = 1.0 - om
        return ap

    seeds, _, n_evals = celf(
        range(graph.n), marginal, k,
        upper_bounds=upper_bounds,
        state_update=state_update,
    )
    return seeds, float(sum(ap.values())), n_evals


def naive_mia_im(model: TopicAwareInfluenceModel, keywords, k: int) -> IMAnswer:
    """Exact greedy under MIA with no pruning — the reference answer the
    bounded methods must reproduce."""
    gamma, p_eff = model.query_probs(keywords)
    seeds, spread, n_evals = greedy_mia(model.graph, p_eff, k, model.theta)
    return _finish("naive-mia", keywords, gamma, seeds, spread, n_evals, spread)


def best_effort_im(
    model: TopicAwareInfluenceModel, pre: Precomputed, keywords, k: int,
) -> IMAnswer:
    """Best-effort framework: CELF keyed by min(PB, NB) bounds."""
    gamma, p_eff = model.query_probs(keywords)
    ub = best_upper_bounds(model.graph, p_eff, pre)
    seeds, spread, n_evals = greedy_mia(model.graph, p_eff, k, model.theta, upper_bounds=ub)
    return _finish("best-effort", keywords, gamma, seeds, spread, n_evals, spread)
