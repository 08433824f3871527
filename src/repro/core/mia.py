"""Maximum Influence Arborescence engine (paper §II-E, model of [4]).

OCTOPUS restricts influence paths of a user ``u`` to a tree rooted at
``u`` where the u→v path is the maximum-probability path, ignoring paths
below a threshold ``θ``. This module provides:

* :func:`mia_search` — the one Dijkstra kernel every tree in the system
  runs on, forward or reverse.
* :func:`mioa` / :func:`miia` — forward / reverse arborescences (the
  online path-exploration engine).
* :func:`mia_sigma` / :func:`mia_marginal` — per-seed-set spread and
  marginal gains under the standard MIA independent-path approximation
  ``ap(S,v) = 1 − Π_{s∈S}(1 − ap(s,v))`` (built by :func:`ap_map`), which
  powers instant greedy IM.
* :func:`extract_paths` — the rows the d3js front-end would visualize
  (node, probability, depth, full path, first-hop cluster).

Path probabilities multiply, so Dijkstra runs on weights −log pp(e) and
prunes any partial path with probability < θ; each tree is tiny in
practice, which is what makes the engine "online". The kernel walks the
graph's CSR as Python lists (``LocalGraph.adjacency_lists``, built once per
graph) with the weights of one query in the same order (:func:`edge_weights`,
built once per query), so an edge relaxation is a few list reads and one
float add.
"""
import heapq
import sys
from math import exp, log

import numpy as np
import pandas as pd

from repro.graphlib.builder import LocalGraph

_INF = float("inf")


def edge_weights(graph: LocalGraph, p_eff: np.ndarray, *, forward: bool = True) -> np.ndarray:
    """Dijkstra weights −log pp(e) of one query, in out-CSR order (or
    in-CSR order with ``forward=False``). Edges with pp(e) ≤ 0 get +inf,
    which the kernel never relaxes.

    The kernel reads a Python list fastest, but converting all E weights
    costs about as much as a small tree: callers that build many trees of
    one query pass ``.tolist()``, a single tree reads the array as is."""
    p = np.asarray(p_eff, dtype=np.float64)[graph.out_eid if forward else graph.in_eid]
    w = np.full(len(p), _INF)
    live = p > 0.0
    w[live] = -np.log(p[live])
    return w


def check_theta(theta: float) -> None:
    """Raise ``ValueError`` unless the path threshold θ is in [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta {theta} is outside [0, 1]")


def mia_search(graph: LocalGraph, weights, root: int, theta: float = 0.01,
               *, forward: bool = True) -> tuple:
    """Max-probability paths from ``root`` (into ``root`` when
    ``forward=False``) with probability ≥ θ, by Dijkstra on ``weights``
    from :func:`edge_weights` for the same direction (array or list).

    Returns ``(dist, parent)``: −log path probability and tree parent per
    reached node (the root maps to ``0.0`` / ``-1``). Raises
    ``ValueError`` for a root outside [0, n) or θ outside [0, 1].
    """
    if not 0 <= root < graph.n:
        raise ValueError(f"root {root} is not a user of a {graph.n}-user graph")
    check_theta(theta)
    ptr, nbr = graph.adjacency_lists(forward)
    lim = -log(theta) + 1e-12 if theta > 0 else sys.float_info.max
    dist = {root: 0.0}
    parent = {root: -1}
    heap = [(0.0, root)]
    pop, push, get = heapq.heappop, heapq.heappush, dist.get
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry: u was settled at a shorter distance
        for i in range(ptr[u], ptr[u + 1]):
            nd = d + weights[i]
            if nd <= lim:
                v = nbr[i]
                if nd < get(v, _INF) - 1e-15:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v))
    return dist, parent


def mioa(graph: LocalGraph, p_eff: np.ndarray, root: int, theta: float = 0.01,
         *, weights=None) -> dict:
    """Maximum-influence out-arborescence of ``root``.

    ``p_eff``: (E,) effective edge probabilities pp_γ. Returns
    ``{node: (prob, parent)}`` for every node whose max-prob path from
    ``root`` has probability ≥ theta; the root maps to ``(1.0, -1)``.
    ``weights`` (``edge_weights(graph, p_eff).tolist()``) skips rebuilding
    the query's weights when many trees share one query.
    """
    if weights is None:
        weights = edge_weights(graph, p_eff)
    dist, parent = mia_search(graph, weights, root, theta)
    return {v: (exp(-d), parent[v]) for v, d in dist.items()}


def miia(graph: LocalGraph, p_eff: np.ndarray, root: int, theta: float = 0.01) -> dict:
    """Maximum-influence in-arborescence: who influences ``root`` and how.
    Returns ``{node: (prob, parent)}`` where ``parent`` is the next hop
    from ``node`` toward ``root`` (i.e. the tree is over reversed edges)."""
    weights = edge_weights(graph, p_eff, forward=False)
    dist, parent = mia_search(graph, weights, root, theta, forward=False)
    return {v: (exp(-d), parent[v]) for v, d in dist.items()}


def mia_sigma_single(graph: LocalGraph, p_eff: np.ndarray, u: int, theta: float = 0.01) -> float:
    """σ(u) for a single seed: sum of path probabilities over its MIOA."""
    return float(sum(p for p, _ in mioa(graph, p_eff, u, theta).values()))


def mia_sigma(graph: LocalGraph, p_eff: np.ndarray, seeds, theta: float = 0.01) -> float:
    """Seed-set spread under the MIA independent-path approximation."""
    return float(sum(ap_map(graph, p_eff, seeds, theta).values()))


def ap_map(graph: LocalGraph, p_eff: np.ndarray, seeds, theta: float = 0.01) -> dict:
    """Per-node activation probability ap(S, v) = 1 − Π (1 − ap(s, v)),
    folding the seeds' trees (built on one weight list) in seed order."""
    weights = edge_weights(graph, p_eff).tolist()
    one_minus: dict = {}
    for s in seeds:
        for v, (p, _) in mioa(graph, p_eff, s, theta, weights=weights).items():
            one_minus[v] = one_minus.get(v, 1.0) * (1.0 - p)
    return {v: 1.0 - om for v, om in one_minus.items()}


def mia_marginal(graph: LocalGraph, p_eff: np.ndarray, u: int, ap_seeds: dict,
                 theta: float = 0.01, tree: dict | None = None) -> float:
    """Marginal gain Δσ(u | S) given ``ap_seeds`` = ap(S, ·) map.

    Under the independence approximation,
    Δ = Σ_{v ∈ MIOA(u)} (1 − ap(S, v)) · ap(u, v).
    ``tree`` (u's MIOA) may be passed to reuse a cached tree.
    """
    if tree is None:
        tree = mioa(graph, p_eff, u, theta)
    return float(
        sum((1.0 - ap_seeds.get(v, 0.0)) * p for v, (p, _) in tree.items())
    )


def extract_paths(tree: dict, root: int) -> pd.DataFrame:
    """Flatten an arborescence into visualization rows.

    Columns: node, prob, depth, path (root→node list), cluster (the
    first hop after the root — the demo's influence 'clusters').
    """
    rows = []
    for v, (p, _) in tree.items():
        path = [v]
        while path[-1] != root:
            path.append(tree[path[-1]][1])
        path.reverse()
        cluster = path[1] if len(path) > 1 else root
        rows.append((v, p, len(path) - 1, path, cluster))
    return (
        pd.DataFrame(rows, columns=["node", "prob", "depth", "path", "cluster"])
        .sort_values(["depth", "node"])
        .reset_index(drop=True)
    )
