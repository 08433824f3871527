"""Topic-sample precomputation (paper §II-C, from [3]).

"We devise a topic-sample-based algorithm that pre-computes seed sets for
some offline-sampled topic distributions. Then, we use the samples to
better estimate upper and lower bounds for pruning instead of directly
answering the query."

Offline: sample topic distributions (all Z pure topics + Dirichlet
draws), and solve IM exactly (greedy-MIA) for each — distributed across
samples with ``mapInPandas``. Online: evaluating a *stored* seed set
under the query γ is cheap (k MIOA trees), so the nearest samples yield
(a) a valid lower bound on the optimal greedy value and (b) a warm-start
candidate order, both of which tighten CELF pruning while preserving the
exact-greedy output (DESIGN.md §7).
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.mia import mia_sigma
from repro.graphlib.builder import LocalGraph


@dataclass
class TopicSampleIndex:
    """Precomputed seed sets for sampled topic distributions."""

    gammas: np.ndarray      # (S, Z)
    seed_sets: list         # S lists of k seeds (greedy order)
    spreads: np.ndarray     # (S,) greedy spread under the sample's own γ
    theta: float

    def nearest(self, gamma: np.ndarray, m: int = 3) -> np.ndarray:
        """Indices of the ``m`` samples closest to ``gamma`` (cosine)."""
        g = np.asarray(gamma, dtype=np.float64)
        gs = self.gammas
        sim = (gs @ g) / (
            np.linalg.norm(gs, axis=1) * np.linalg.norm(g) + 1e-12
        )
        return np.argsort(-sim)[:m]


def sample_gammas(Z: int, *, n_random: int = 8, alpha: float = 0.4, seed: int = 0) -> np.ndarray:
    """All Z pure topics + ``n_random`` Dirichlet draws."""
    g = np.random.default_rng(seed)
    pure = np.eye(Z)
    rand = g.dirichlet(np.full(Z, alpha), size=n_random) if n_random else np.empty((0, Z))
    return np.vstack([pure, rand])


def _greedy_seeds(graph: LocalGraph, gamma: np.ndarray, k: int, theta: float) -> tuple:
    """Exact greedy-MIA ``(seeds, spread, n_evals)`` for one sampled γ."""
    from repro.core.keyword_im import greedy_mia  # keyword_im imports this module

    return greedy_mia(graph, graph.effective_probs(gamma), k, theta)


def build_topic_samples_local(
    graph: LocalGraph,
    *,
    k: int,
    theta: float = 0.01,
    n_random: int = 8,
    seed: int = 0,
) -> TopicSampleIndex:
    """Driver-side build (tests / tiny graphs)."""
    gammas = sample_gammas(graph.Z, n_random=n_random, seed=seed)
    seed_sets, spreads = [], []
    for gm in gammas:
        seeds, spread, _ = _greedy_seeds(graph, gm, k, theta)
        seed_sets.append(seeds)
        spreads.append(spread)
    return TopicSampleIndex(
        gammas=gammas, seed_sets=seed_sets, spreads=np.asarray(spreads), theta=theta
    )


def build_topic_samples_spark(
    spark: SparkSession,
    graph: LocalGraph,
    *,
    k: int,
    theta: float = 0.01,
    n_random: int = 8,
    seed: int = 0,
) -> TopicSampleIndex:
    """The offline Spark sweep: one greedy-IM solve per sampled γ, fanned
    out with ``mapInPandas`` (graph closure-captured). Identical output to
    the local build — greedy-MIA is deterministic."""
    gammas = sample_gammas(graph.Z, n_random=n_random, seed=seed)
    g_args = (
        graph.n, graph.Z, graph.e_src, graph.e_dst, graph.probs,
        graph.out_ptr, graph.out_eid, graph.in_ptr, graph.in_eid,
    )

    def run(batches):
        g = LocalGraph(*g_args)
        for pdf in batches:
            rows = []
            for i in pdf["id"].to_numpy():
                gm = gammas[int(i)]
                seeds, spread, _ = _greedy_seeds(g, gm, k, theta)
                for rank, s in enumerate(seeds):
                    rows.append((int(i), rank, int(s), float(spread)))
            yield pd.DataFrame(
                rows, columns=["sample_id", "rank", "seed", "spread"]
            )

    out = (
        spark.range(len(gammas))
        .repartition(min(len(gammas), 16))
        .mapInPandas(run, schema="sample_id long, rank long, seed long, spread double")
        .toPandas()
        .sort_values(["sample_id", "rank"])
    )
    seed_sets = [
        out.loc[out["sample_id"] == i, "seed"].tolist() for i in range(len(gammas))
    ]
    spreads = np.asarray(
        [out.loc[out["sample_id"] == i, "spread"].iloc[0] for i in range(len(gammas))]
    )
    return TopicSampleIndex(
        gammas=gammas, seed_sets=seed_sets, spreads=spreads, theta=theta
    )


def warm_start_candidates(
    index: TopicSampleIndex, gamma: np.ndarray, *, m: int = 3
) -> list:
    """Union of the ``m`` nearest samples' seed sets, nearest-first —
    candidates most likely to have top marginal gains under γ."""
    out: list = []
    for i in index.nearest(gamma, m):
        for s in index.seed_sets[i]:
            if s not in out:
                out.append(s)
    return out


def sample_lower_bound(
    graph: LocalGraph, index: TopicSampleIndex, gamma: np.ndarray, *, m: int = 3
) -> float:
    """Valid lower bound on the optimal greedy spread under γ: the best
    exact evaluation of a stored seed set (a feasible solution)."""
    p_eff = graph.effective_probs(gamma)
    return max(
        mia_sigma(graph, p_eff, index.seed_sets[i], index.theta)
        for i in index.nearest(gamma, m)
    )
