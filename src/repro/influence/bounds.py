"""Upper-bound estimation for the best-effort framework (paper §II-C).

The paper: "we devise precomputation based, local graph based, and
neighborhood based methods" for "effective bound estimation". Two are
kept here, with validity proved under the MIA spread model (DESIGN.md §4)
from the envelope pp_γ(e) ≤ pp_max(e) := max_z pp^z_e:

* **PB** (precomputation-based): σ_γ(u) ≤ σ_max(u), the MIA spread on the
  query-independent max-prob graph — precomputed offline for every user
  by the distributed θ-reachability job (or its local mirror).
* **NB** (neighborhood-based): σ_γ(u) ≤ 1 + Σ_{v∈N_out(u)} pp_γ(u,v)·σ_max(v)
  — every max-prob path factors through a first hop. O(out-degree) per
  user, fully vectorized across all users.

The local-graph bound is not kept: it cut exact evaluations but cost
more time than it saved at every scale measured (EXPERIMENTS.md, T2). The
driver-side precompute runs on the one MIA kernel (``core.mia.mioa``).
"""
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.mia import edge_weights, mioa
from repro.graphlib.builder import LocalGraph
from repro.graphlib.traversal import influence_region_stats, max_prob_reach


@dataclass
class Precomputed:
    """Offline per-user index on the max-prob graph: σ_max and MIA tree
    size (|{v : ap_max(u,v) ≥ θ}|), plus the θ it was built with."""

    sigma_max: np.ndarray   # (n,)
    tree_size: np.ndarray   # (n,)
    theta: float


def precompute_local(graph: LocalGraph, *, theta: float = 0.01) -> Precomputed:
    """Driver-side mirror of the distributed precompute (small graphs,
    tests): one truncated Dijkstra per root on pp_max."""
    p_max = graph.max_probs()
    weights = edge_weights(graph, p_max).tolist()
    sigma = np.zeros(graph.n)
    size = np.zeros(graph.n, dtype=np.int64)
    for u in range(graph.n):
        tree = mioa(graph, p_max, u, theta, weights=weights)
        sigma[u] = sum(p for p, _ in tree.values())
        size[u] = len(tree)
    return Precomputed(sigma_max=sigma, tree_size=size, theta=theta)


def precompute_spark(
    spark: SparkSession, graph: LocalGraph, *, theta: float = 0.01, max_iter: int = 30
) -> Precomputed:
    """The offline Spark job: all-roots max-prob reachability on the
    max-prob graph, aggregated to per-root σ_max / tree size."""
    import pandas as pd

    edges = spark.createDataFrame(
        pd.DataFrame(
            {"src": graph.e_src, "dst": graph.e_dst, "p": graph.max_probs()}
        )
    )
    all_roots = spark.createDataFrame(
        pd.DataFrame({"root": np.arange(graph.n, dtype=np.int64)})
    )
    reach = max_prob_reach(edges, all_roots, theta=theta, max_iter=max_iter)
    stats = influence_region_stats(reach).toPandas()
    sigma = np.ones(graph.n)          # isolated roots: just themselves
    size = np.ones(graph.n, dtype=np.int64)
    idx = stats["root"].to_numpy(dtype=np.int64)
    sigma[idx] = stats["sigma"].to_numpy()
    size[idx] = stats["tree_size"].to_numpy()
    return Precomputed(sigma_max=sigma, tree_size=size, theta=theta)


def pb_bounds(pre: Precomputed) -> np.ndarray:
    """(n,) precomputation-based bound: σ_max, query-independent."""
    return pre.sigma_max


def nb_bounds(graph: LocalGraph, p_eff: np.ndarray, pre: Precomputed) -> np.ndarray:
    """(n,) neighborhood-based bound 1 + Σ pp_γ(u,v)·σ_max(v), vectorized
    as one scatter-add over the edge list."""
    contrib = p_eff * pre.sigma_max[graph.e_dst]
    b = np.ones(graph.n)
    np.add.at(b, graph.e_src, contrib)
    return b


def best_upper_bounds(graph: LocalGraph, p_eff: np.ndarray, pre: Precomputed) -> np.ndarray:
    """(n,) combined bound min(PB, NB), the key best-effort CELF starts from."""
    return np.minimum(pb_bounds(pre), nb_bounds(graph, p_eff, pre))
