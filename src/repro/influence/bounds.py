"""Upper-bound estimation for the best-effort framework (paper §II-C).

The paper: "we devise precomputation based, local graph based, and
neighborhood based methods" for "effective bound estimation". Two are
kept here, with validity proved under the MIA spread model (DESIGN.md §4)
from the envelope pp_γ(e) ≤ pp_max(e) := max_z pp^z_e:

* **PB** (precomputation-based): σ_γ(u) ≤ σ_max(u), the MIA spread on the
  query-independent max-prob graph — precomputed offline for every user
  as one MIOA per root on pp_max, as PMIA [4] builds one arborescence per
  node: a Spark fan-out of that per-root kernel (or the kernel on the
  driver).
* **NB** (neighborhood-based): σ_γ(u) ≤ 1 + Σ_{v∈N_out(u)} pp_γ(u,v)·σ_max(v)
  — every max-prob path factors through a first hop. O(out-degree) per
  user, fully vectorized across all users.

The local-graph bound is not kept: it cut exact evaluations but cost
more time than it saved at every scale measured (EXPERIMENTS.md, T2). Both
precomputes run on the one MIA kernel (``core.mia.mioa``).
"""
from dataclasses import dataclass
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.mia import check_theta, edge_weights, mioa
from repro.graphlib.builder import LocalGraph, fan_out


@dataclass
class Precomputed:
    """Offline per-user index on the max-prob graph: σ_max and MIA tree
    size (|{v : ap_max(u,v) ≥ θ}|), plus the θ it was built with."""

    sigma_max: np.ndarray   # (n,)
    tree_size: np.ndarray   # (n,)
    theta: float


def _region_stats(graph: LocalGraph, roots: np.ndarray, theta: float) -> pd.DataFrame:
    """The per-root kernel: ``(root, sigma, tree_size)`` rows, one MIOA on
    pp_max per root, σ its summed path probabilities and size its nodes."""
    p_max = graph.max_probs()
    weights = edge_weights(graph, p_max).tolist()
    sigma, size = [], []
    for u in roots.tolist():
        tree = mioa(graph, p_max, u, theta, weights=weights)
        sigma.append(sum(p for p, _ in tree.values()))
        size.append(len(tree))
    return pd.DataFrame({"root": roots, "sigma": np.array(sigma, dtype=np.float64),
                         "tree_size": np.array(size, dtype=np.int64)})


def _precomputed(n: int, rows: pd.DataFrame, theta: float) -> Precomputed:
    sigma = np.zeros(n)
    size = np.zeros(n, dtype=np.int64)
    roots = rows["root"].to_numpy(dtype=np.int64)
    sigma[roots] = rows["sigma"].to_numpy(dtype=np.float64)
    size[roots] = rows["tree_size"].to_numpy(dtype=np.int64)
    return Precomputed(sigma_max=sigma, tree_size=size, theta=theta)


def precompute_local(graph: LocalGraph, *, theta: float = 0.01) -> Precomputed:
    """The precompute on the driver: the per-root kernel over every user."""
    return _precomputed(graph.n, _region_stats(graph, np.arange(graph.n), theta), theta)


def max_prob_reach(spark: SparkSession, graph: LocalGraph, theta: float) -> pd.DataFrame:
    """The distributed σ_max step: the per-root kernel fanned out over every
    user, collected as ``(root, sigma, tree_size)`` rows. θ outside [0, 1]
    raises ``ValueError`` here, before any Spark job starts."""
    check_theta(theta)
    return fan_out(spark, graph, np.arange(graph.n), partial(_region_stats, theta=theta),
                   "root long, sigma double, tree_size long")


def precompute_spark(
    spark: SparkSession, graph: LocalGraph, *, theta: float = 0.01, max_iter=None
) -> Precomputed:
    """The offline Spark job; equal to :func:`precompute_local`, bit for bit.

    ``max_iter`` is ignored: it bounded the rounds of an iterative-join
    predecessor, and the offline benchmark's warm-up still passes it."""
    return _precomputed(graph.n, max_prob_reach(spark, graph, theta), theta)


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
