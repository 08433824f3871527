"""Personalized influential keywords suggestion (paper §II-D, [6]).

Given a target user, suggest the k-sized keyword set maximizing *that
user's* influence spread — their "selling points". NP-hard (even to
approximate within a constant), so OCTOPUS estimates spreads by sampling
with three efficiency devices, all reproduced here:

* **lazy propagation sampling** — per-sample edge randomness ``r_e`` is a
  *stateless* hash of (index seed, sample id, edge id), drawn only for
  edges a traversal actually touches; the same ``r_e`` is reused across
  every candidate keyword set, so comparisons between sets are coupled
  (low variance) and nothing is resampled per query.
* **influencer index** — for R uniformly sampled "monitor" users, the
  reverse-reachable subgraph under the permissive envelope
  ``r_e ≤ pp_max(e)`` is precomputed by one per-sample kernel, on the
  driver or fanned out on Spark (``graphlib.builder.fan_out``). Because
  ``pp_γ(e) ≤ pp_max(e)`` for every γ, any edge live under any query is
  in the stored subgraph; online evaluation never touches the full graph.
  Each sample keeps its edges as a Python in-adjacency
  ``dst → [(src, eid, r_e), ...]``, and the index keeps an inverted list
  ``by_user: user → [sample ids]`` of the envelopes that hold each user.
* **pruning + delayed materialization** — an estimate visits only the
  samples on the user's inverted list. It computes ``pp_γ`` once (one
  (E, Z) @ γ matvec), and a reverse BFS from each monitor tests an edge's
  γ-liveness ``r_e ≤ pp_γ(e)`` only when it reaches that edge, stopping as
  soon as it meets the user.

The estimator is unbiased: E[n/R · #{samples whose monitor the target
reaches}] = σ_γ({target}) under IC, with standard error n·√(p̂(1−p̂)/R),
p̂ = estimate/n (:meth:`InfluencerIndex.stderr`).
"""
import gc
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.model import TopicAwareInfluenceModel
from repro.graphlib.builder import LocalGraph, fan_out
from repro.influence.spread import mc_spread_local

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def edge_uniform(seed: int, sample_id: int, eids: np.ndarray) -> np.ndarray:
    """Stateless U(0,1) per (seed, sample, edge) via splitmix64 — the
    lazy-propagation randomness, identical regardless of traversal order
    or which process computes it."""
    c1 = (0x9E3779B97F4A7C15 * (sample_id + 1)) & 0xFFFFFFFFFFFFFFFF
    c2 = (0xD1B54A32D192ED03 * (seed + 1)) & 0xFFFFFFFFFFFFFFFF
    x = eids.astype(np.uint64)
    x = (x + np.uint64(c1)) & _MASK
    x = (x + np.uint64(c2)) & _MASK
    x ^= x >> np.uint64(30)
    x = (x * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    x ^= x >> np.uint64(27)
    x = (x * np.uint64(0x94D049BB133111EB)) & _MASK
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


@dataclass
class _Sample:
    """One monitor's stored envelope subgraph."""

    root: int
    eids: np.ndarray       # stored edge ids (global)
    nodes: frozenset       # envelope reverse-reachable node set
    in_adj: dict           # dst -> [(src, eid, r_e), ...] over the stored edges


def _reverse_envelope(graph: LocalGraph, root: int, seed: int, sample_id: int,
                      p_max: np.ndarray) -> tuple:
    """Reverse BFS from ``root`` keeping edges with r_e ≤ pp_max(e), one
    level at a time: the frontier's in-edges (each node's together, in CSR
    order) get their r_e in one :func:`edge_uniform` call, and the live
    edges' unseen sources, in first-seen order, form the next frontier.
    ``p_max`` is ``graph.max_probs()``, computed once per batch.

    Returns the kept ``(eids, r)``, as :func:`_assemble_sample` takes them."""
    found = np.zeros(graph.n, dtype=bool)
    found[root] = True
    frontier = np.array([root], dtype=np.int64)
    kept_e, kept_r = [], []
    while len(frontier):
        starts, ends = graph.in_ptr[frontier], graph.in_ptr[frontier + 1]
        lens = ends - starts
        pos = np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)
        eids = graph.in_eid[pos]
        rs = edge_uniform(seed, sample_id, eids)
        live = rs <= p_max[eids]
        eids, rs = eids[live], rs[live]
        kept_e.append(eids)
        kept_r.append(rs)
        srcs = graph.e_src[eids]
        srcs = srcs[~found[srcs]]
        _, first = np.unique(srcs, return_index=True)
        frontier = srcs[np.sort(first)]
        found[frontier] = True
    return np.concatenate(kept_e), np.concatenate(kept_r)


def _envelopes(graph: LocalGraph, ids: np.ndarray, roots: np.ndarray, seed: int) -> pd.DataFrame:
    """The per-sample kernel of both builds: ``(id, eids, r)`` rows, the
    reverse envelope of sample ``id`` from monitor ``roots[id]``."""
    p_max = graph.max_probs()
    kept = [_reverse_envelope(graph, int(roots[i]), seed, i, p_max) for i in ids.tolist()]
    return pd.DataFrame({"id": ids, "eids": [e for e, _ in kept], "r": [r for _, r in kept]})


def _assemble_sample(graph: LocalGraph, root: int, eids: np.ndarray, r: np.ndarray) -> _Sample:
    """Assemble one stored sample from its kept edges and their r_e: the
    envelope's nodes are the root and the sources of the kept edges. The
    in-adjacency holds plain Python objects, which the estimate's BFS reads
    fastest."""
    srcs = graph.e_src[eids]
    in_adj: dict = {}
    for d, edge in zip(graph.e_dst[eids].tolist(), zip(srcs.tolist(), eids.tolist(), r.tolist())):
        in_adj.setdefault(d, []).append(edge)
    nodes = frozenset([root, *np.unique(srcs).tolist()])
    return _Sample(root=root, eids=eids, nodes=nodes, in_adj=in_adj)


def _reaches(in_adj: dict, root: int, user: int, pp) -> bool:
    """Whether ``user`` reaches ``root`` over edges with r_e ≤ pp_γ(e): a
    reverse BFS from ``root`` that tests an edge's liveness only when it
    reaches the edge (delayed materialization)."""
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u, e, r in in_adj.get(v, ()):
                if r <= pp[e] and u not in seen:
                    if u == user:
                        return True
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return False


@dataclass
class InfluencerIndex:
    """R monitor samples with coupled envelope subgraphs.

    ``probs`` is the graph's (E, Z) per-topic edge-probability matrix,
    shared, not copied. ``by_user[u]`` lists, in order, the ids of the
    samples whose envelope holds ``u``: the only samples ``u``'s estimate
    visits."""

    n: int
    R: int
    seed: int
    samples: list  # of _Sample
    probs: np.ndarray = field(repr=False)
    by_user: list = field(init=False, repr=False)

    def __post_init__(self):
        self.by_user = [[] for _ in range(self.n)]
        for i, s in enumerate(self.samples):
            for u in s.nodes:
                self.by_user[u].append(i)

    def estimate(self, user: int, gamma: np.ndarray) -> float:
        """σ̂_γ({user}) = n/R · #{samples whose monitor ``user`` reaches
        under r_e ≤ pp_γ(e)}, over the samples whose envelope holds ``user``."""
        if not 0 <= user < self.n:
            return 0.0  # not a user of the graph, so in no envelope
        # One matvec per estimate; a memoryview reads single entries as
        # Python floats without converting all E of them.
        pp = memoryview(self.probs @ np.asarray(gamma, dtype=np.float64))
        hits = 0
        for i in self.by_user[user]:
            s = self.samples[i]
            hits += user == s.root or _reaches(s.in_adj, s.root, user, pp)
        return self.n * hits / self.R

    def stderr(self, est: float) -> float:
        """Standard error of an estimate: n·√(p̂(1−p̂)/R), p̂ = est/n, the
        binomial error of the hit fraction over R samples."""
        p = est / self.n
        return self.n * math.sqrt(p * (1.0 - p) / self.R)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a build allocates its
    samples. Their ~0.6 M adjacency tuples (R=300, SF 0.1) form no
    reference cycles, yet their allocation count alone triggers collections
    that walk the whole heap: 0.2 s of a 0.5 s local build."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _monitor_roots(n: int, R: int, seed: int) -> np.ndarray:
    """The R monitor users of an index; R < 1 raises ``ValueError``."""
    if R < 1:
        raise ValueError(f"R = {R}: an index needs at least one sample")
    return np.random.default_rng(seed).integers(0, n, size=R)


def _index(graph: LocalGraph, roots: np.ndarray, seed: int, rows: pd.DataFrame) -> InfluencerIndex:
    """The index from the kernel's rows, in sample-id order."""
    rows = rows.sort_values("id")
    with _collector_paused():
        samples = [
            _assemble_sample(graph, int(roots[i]), np.asarray(e, dtype=np.int64),
                             np.asarray(r, dtype=np.float64))
            for i, e, r in zip(rows["id"].tolist(), rows["eids"], rows["r"])
        ]
        return InfluencerIndex(n=graph.n, R=len(roots), seed=seed, samples=samples,
                               probs=graph.probs)


def build_influencer_index_local(
    graph: LocalGraph, *, R: int = 200, seed: int = 0
) -> InfluencerIndex:
    """Driver-side index build: the per-sample kernel over every sample id."""
    roots = _monitor_roots(graph.n, R, seed)
    return _index(graph, roots, seed, _envelopes(graph, np.arange(R), roots, seed))


def build_influencer_index_spark(
    spark: SparkSession, graph: LocalGraph, *, R: int = 200, seed: int = 0
) -> InfluencerIndex:
    """The offline Spark job: the per-sample kernel fanned out over sample
    ids, one ``(id, eids, r)`` row per sample. Identical index to the local
    build, sample by sample."""
    roots = _monitor_roots(graph.n, R, seed)
    rows = fan_out(spark, graph, np.arange(R), partial(_envelopes, roots=roots, seed=seed),
                   "id long, eids array<long>, r array<double>")
    return _index(graph, roots, seed, rows)


@dataclass
class SuggestResult:
    """A Scenario-2 answer."""

    user: int
    method: str
    keywords: list
    gamma: np.ndarray
    est_spread: float
    n_estimates: int
    est_stderr: float | None  # index standard error; None for the MC estimator


def _estimator(model: TopicAwareInfluenceModel, user: int, method: str,
               index: InfluencerIndex | None, n_mc: int, seed: int):
    """``method``'s spread estimator of ``user`` as a function of γ: the
    influencer index (``index`` and ``freq``) or Monte-Carlo (``mc``)."""
    if method == "mc":
        g = model.graph
        return lambda gamma: mc_spread_local(
            g, g.effective_probs(gamma), [user], n_samples=n_mc, seed=seed
        )
    if method not in ("index", "freq"):
        raise ValueError(f"unknown estimator {method!r}")
    if index is None:
        raise ValueError(f"method {method!r} needs an influencer index")
    return partial(index.estimate, user)


def suggest_keywords(
    model: TopicAwareInfluenceModel,
    user: int,
    k: int,
    *,
    method: str = "index",
    index: InfluencerIndex | None = None,
    candidates: list,
    n_mc: int = 100,
    seed: int = 0,
    exhaustive: bool = False,
) -> SuggestResult:
    """Suggest the k keywords among ``candidates`` (the user's own item
    vocabulary, ``topics.keywords.user_keywords``) that maximize the
    user's spread.

    ``method`` selects the spread estimator: ``index`` (influencer index,
    the OCTOPUS engine), ``mc`` (from-scratch Monte-Carlo, the slow
    baseline), or ``freq`` (the k most frequent candidates, scored by the
    index). ``index`` and ``freq`` without an index raise ``ValueError``.
    ``exhaustive=True`` scores every k-subset (test-scale only);
    otherwise keywords are added greedily. With k = 0 or no candidates
    both return ``keywords=[]`` and the spread under the empty keyword set
    (γ = π). k < 0 raises ``ValueError``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    est = _estimator(model, user, method, index, n_mc, seed)

    def result(kind, keywords, gamma, spread, n_est):
        stderr = None if method == "mc" else index.stderr(float(spread))
        return SuggestResult(user=user, method=kind, keywords=keywords, gamma=gamma,
                             est_spread=float(spread), n_estimates=n_est, est_stderr=stderr)

    if method == "freq":
        W = candidates[:k]
        gm = model.gamma(W)
        return result("freq", W, gm, est(gm), 1)
    n_est = 0
    if exhaustive:
        best, best_sp, best_gm = None, -1.0, None
        for combo in itertools.combinations(candidates, min(k, len(candidates))):
            gm = model.gamma(list(combo))
            sp = est(gm)
            n_est += 1
            if sp > best_sp:
                best, best_sp, best_gm = list(combo), sp, gm
        return result(f"exhaustive-{method}", best, best_gm, best_sp, n_est)
    W: list = []
    gm = model.gamma(W)
    cur = -1.0
    for _ in range(min(k, len(candidates))):
        best_w, best_sp, best_gm = None, -1.0, None
        for w in candidates:
            if w in W:
                continue
            cand_gm = model.gamma(W + [w])
            sp = est(cand_gm)
            n_est += 1
            if sp > best_sp:
                best_w, best_sp, best_gm = w, sp, cand_gm
        if best_w is None:
            break
        W.append(best_w)
        gm, cur = best_gm, best_sp
    if not W:  # k = 0 or no candidates: score γ = π, as the exhaustive path does
        cur = est(gm)
        n_est += 1
    return result(f"greedy-{method}", W, gm, cur, n_est)
