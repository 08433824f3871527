"""Reverse Influence Sampling (RIS) — the TIM/IMM-family machinery the
paper cites as [8] (Tang, Xiao, Shi, SIGMOD 2014).

A reverse-reachable (RR) set for a uniformly random root ``v`` is the set
of nodes with a live path *to* ``v`` in a sampled live-edge graph; a seed
set covering many RR sets has large spread: E[n · coverage/R] = σ(S).
An RR set is a live-edge cascade run backwards from its root, so it is
drawn by ``spread.simulate_cascade`` with ``forward=False``. Used here
(a) as an IM baseline and (b) inside the influencer index of the
keyword-suggestion tool (coupled, topic-aware variant lives in
``core/keyword_suggest.py``).
"""
import numpy as np

from repro.graphlib.builder import LocalGraph
from repro.influence.spread import simulate_cascade


def _rr_rng(seed: int, set_id: int) -> np.random.Generator:
    return np.random.default_rng(seed * 7_368_787 + set_id)


def rr_sets_local(
    graph: LocalGraph,
    p_eff: np.ndarray,
    *,
    R: int = 500,
    seed: int = 0,
) -> list:
    """R RR sets with uniformly random roots, coupled by set id; R < 1
    raises ``ValueError``."""
    if R < 1:
        raise ValueError(f"R = {R}: RIS needs at least one RR set")
    out = []
    for i in range(R):
        rng = _rr_rng(seed, i)
        root = int(rng.integers(0, graph.n))
        out.append(simulate_cascade(graph, p_eff, [root], rng, forward=False))
    return out


def greedy_max_cover(rr_sets: list, k: int, n: int) -> tuple:
    """Greedy max-cover over R ≥ 1 RR sets.

    Returns ``(seeds, est_spread)`` where est_spread = n · covered / R —
    the unbiased RIS spread estimate of the selected set.
    """
    R = len(rr_sets)
    covering: dict = {}
    for i, s in enumerate(rr_sets):
        for u in s:
            covering.setdefault(u, []).append(i)
    covered = np.zeros(R, dtype=bool)
    gains = {u: len(ids) for u, ids in covering.items()}
    seeds = []
    for _ in range(min(k, len(gains))):
        u = max(gains, key=lambda x: (gains[x], -x))
        if gains[u] == 0:
            break
        seeds.append(u)
        for i in covering[u]:
            if not covered[i]:
                covered[i] = True
                for w in rr_sets[i]:
                    gains[w] -= 1
        del gains[u]
    return seeds, float(n * covered.sum() / R)


def ris_im(
    graph: LocalGraph,
    p_eff: np.ndarray,
    k: int,
    *,
    R: int = 1000,
    seed: int = 0,
) -> tuple:
    """RIS influence maximization baseline: (seeds, estimated spread)."""
    sets = rr_sets_local(graph, p_eff, R=R, seed=seed)
    return greedy_max_cover(sets, k, graph.n)
