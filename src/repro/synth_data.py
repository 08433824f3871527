"""Synthetic topic-aware social networks and action logs at a
configurable scale factor.

Substitutes for the paper's ACMCite (aminer.org citation network) and QQ
(Tencent, proprietary) datasets — see DESIGN.md §2. The generator emits a
ground-truth topic-aware IC model (per-topic edge probabilities, topic
prior, keyword distributions) plus action logs sampled *from* that model,
so learned parameters and query answers can be validated against truth.
SF=1.0 is 30 000 users; tests use SF ≤ 0.01 and benchmarks SF 0.1.
Generators are deterministic in ``seed``.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.graphlib.builder import local_graph_from_network

_N_USERS_PER_SF = 30_000
_N_ITEMS_PER_SF = 120_000
_WORDS_PER_TOPIC = 25
_AVG_OUT_DEGREE = 12.0
#: Keywords drawn per item, and the cascade size at which sampling stops.
_WORDS_MIN, _WORDS_MAX = 3, 8
_MAX_CASCADE = 200

#: Human-readable topic labels used to synthesize a vocabulary. Mirrors the
#: research-area flavour of ACMCite in the paper's Scenario 1/2.
TOPIC_NAMES = [
    "mining", "learning", "systems", "networks",
    "graphics", "theory", "security", "databases",
    "multimedia", "hci",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


#: Session settings :func:`spark_frame` overrides for its one call.
_LOCAL_RELATION = "spark.sql.execution.arrow.localRelationThreshold"
_BATCH_ROWS = "spark.sql.execution.arrow.maxRecordsPerBatch"


def spark_frame(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Hand a pandas frame to Spark as one Arrow batch per core.

    Spark keeps a frame under ``localRelationThreshold`` (48 MB) as a
    ``LocalRelation`` on the driver and serializes its rows into every task
    of every scan, and cuts a larger one into ``maxRecordsPerBatch``-row
    partitions (10 000). For this one call the threshold is 0 and a batch
    holds ``ceil(rows / defaultParallelism)`` rows, so the frame is a
    ``LogicalRDD`` of at most ``defaultParallelism`` Arrow batches; the
    session's values are restored afterwards, also when the call raises.
    The frame goes over as an Arrow table, which keeps the schema of an
    empty frame and does not depend on the session's Arrow switch."""
    table = pa.Table.from_pandas(pdf, preserve_index=False)
    batch = max(1, -(-len(pdf) // spark.sparkContext.defaultParallelism))
    saved = {k: spark.conf.get(k) for k in (_LOCAL_RELATION, _BATCH_ROWS)}
    spark.conf.set(_LOCAL_RELATION, "0")
    spark.conf.set(_BATCH_ROWS, str(batch))
    try:
        return spark.createDataFrame(table)
    finally:
        for k, v in saved.items():
            spark.conf.set(k, v)


@dataclass
class SocialNetwork:
    """A synthetic topic-aware social network with ground truth.

    Pandas frames are the source of truth (deterministic in ``seed``);
    ``edges_df`` lifts the edges into Spark through :func:`spark_frame`.
    """

    n_users: int
    Z: int
    topic_names: list
    words: list                    # vocabulary, length V
    pi: np.ndarray                 # (Z,) topic prior
    pwz: np.ndarray                # (Z, V) keyword distribution p(w|z)
    affinity: np.ndarray           # (n_users, Z) user topic affinity
    edges: pd.DataFrame            # src, dst, pp_0..pp_{Z-1}
    seed: int = 0

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def prob_cols(self) -> list:
        return [f"pp_{z}" for z in range(self.Z)]

    def edge_probs(self) -> np.ndarray:
        """(E, Z) per-topic activation probabilities, edge order = edges."""
        return self.edges[self.prob_cols].to_numpy(dtype=np.float64)

    def edges_df(self, spark: SparkSession) -> DataFrame:
        """Spark edges with per-topic probs in wide columns pp_z."""
        return spark_frame(spark, self.edges)


@dataclass
class ActionLog:
    """Items (papers / product posts) and propagation trials sampled from
    the ground-truth model — the 'social actions (UGC)' fed to OCTOPUS."""

    items: pd.DataFrame       # item_id, author, topic_true, keywords (list)
    trials: pd.DataFrame      # item_id, src, dst, success (bool)

    def items_df(self, spark: SparkSession) -> DataFrame:
        return spark_frame(spark, self.items)

    def trials_df(self, spark: SparkSession) -> DataFrame:
        return spark_frame(spark, self.trials)


def _make_vocab(Z: int):
    """Topic-blocked vocabulary: topic z concentrates ~92% of its mass on
    its own word block with a Zipfian profile, 8% spread uniformly —
    so keywords are informative but ambiguous enough to exercise Bayes."""
    names = [TOPIC_NAMES[z % len(TOPIC_NAMES)] for z in range(Z)]
    words = [f"{names[z]}_w{i}" for z in range(Z) for i in range(_WORDS_PER_TOPIC)]
    V = len(words)
    pwz = np.full((Z, V), 0.08 / V)
    zipf = 1.0 / np.arange(1, _WORDS_PER_TOPIC + 1) ** 0.8
    zipf /= zipf.sum()
    for z in range(Z):
        lo = z * _WORDS_PER_TOPIC
        pwz[z, lo : lo + _WORDS_PER_TOPIC] += 0.92 * zipf
    pwz /= pwz.sum(axis=1, keepdims=True)
    return words, pwz


def social_network(
    *,
    sf: float = 0.01,
    Z: int = 8,
    mutual: bool = False,
    seed: int = 7,
) -> SocialNetwork:
    """Generate a citation-style (``mutual=False``) or friendship-style
    (``mutual=True``, the QQ flavour) network with ground-truth topic model.

    Power-law out-degrees, topical homophily (edges prefer users sharing a
    primary topic), and per-topic edge probabilities boosted where both
    endpoints care about the topic.
    """
    n = max(20, int(_N_USERS_PER_SF * sf))
    g = _rng(seed)

    # User topic affinities: sparse Dirichlet → a dominant topic + tail.
    affinity = g.dirichlet(np.full(Z, 0.3), size=n)
    primary = affinity.argmax(axis=1)
    pi = np.bincount(primary, minlength=Z).astype(np.float64) + 1.0
    pi /= pi.sum()

    # Power-law out-degrees, preferential-attachment-ish in-degree weights.
    deg = np.minimum(
        (g.pareto(1.6, n) + 1.0) * _AVG_OUT_DEGREE * 0.55, n / 3
    ).astype(np.int64)
    deg = np.maximum(deg, 1)
    in_weight = (g.pareto(1.4, n) + 1.0)
    in_weight /= in_weight.sum()

    srcs, dsts = [], []
    by_topic = [np.flatnonzero(primary == z) for z in range(Z)]
    for u in range(n):
        d = deg[u]
        same = by_topic[primary[u]]
        n_same = int(round(d * 0.7))
        cand = []
        if len(same) > 1 and n_same:
            w = in_weight[same].copy()
            w[same == u] = 0.0
            if w.sum() > 0:
                cand.append(
                    g.choice(same, size=min(n_same, (w > 0).sum()),
                             replace=False, p=w / w.sum())
                )
        n_rand = d - sum(len(c) for c in cand)
        if n_rand > 0:
            cand.append(g.choice(n, size=n_rand, replace=False, p=in_weight))
        tgt = np.unique(np.concatenate(cand)) if cand else np.array([], np.int64)
        tgt = tgt[tgt != u]
        srcs.append(np.full(len(tgt), u, dtype=np.int64))
        dsts.append(tgt.astype(np.int64))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    if mutual:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        pairs = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        src = pairs["src"].to_numpy()
        dst = pairs["dst"].to_numpy()

    # Per-topic activation probabilities: base noise + homophily boost.
    E = len(src)
    base = g.random((E, Z)) * 0.04
    boost = 0.5 * np.sqrt(affinity[src] * affinity[dst])
    probs = np.clip(base + boost * (0.25 + 0.5 * g.random((E, 1))), 1e-4, 0.6)

    edges = pd.DataFrame({"src": src, "dst": dst})
    for z in range(Z):
        edges[f"pp_{z}"] = probs[:, z]
    edges = edges.sort_values(["src", "dst"]).reset_index(drop=True)

    words, pwz = _make_vocab(Z)
    names = [TOPIC_NAMES[z % len(TOPIC_NAMES)] for z in range(Z)]
    return SocialNetwork(
        n_users=n, Z=Z, topic_names=names, words=words, pi=pi, pwz=pwz,
        affinity=affinity, edges=edges, seed=seed,
    )


def action_log(
    net: SocialNetwork,
    *,
    sf: float = 0.01,
    seed: int = 11,
) -> ActionLog:
    """Sample items + IC propagation trials from the ground truth.

    Each item: an author (degree-weighted — prolific users write more), a
    topic drawn from the author's affinity, keywords from ``p(w|z)``, and a
    truncated IC cascade from the author under topic-z edge probabilities.
    Every exposure is recorded as a trial with its success bit — exactly
    the (positive and negative) evidence the EM learner in [2] consumes.
    """
    g = _rng(seed)
    n_items = max(10, int(_N_ITEMS_PER_SF * sf))
    Z, V = net.Z, len(net.words)
    # The engine's out-CSR, with heads and probabilities in its edge order.
    graph = local_graph_from_network(net)
    ptr, e_dst, e_probs = graph.out_ptr, graph.e_dst[graph.out_eid], graph.probs[graph.out_eid]

    auth_w = np.diff(ptr) + 1.0
    auth_w /= auth_w.sum()
    authors = g.choice(net.n_users, size=n_items, p=auth_w)
    words_arr = np.asarray(net.words, dtype=object)

    item_rows, trial_rows = [], []
    for d in range(n_items):
        u0 = int(authors[d])
        z = int(g.choice(Z, p=net.affinity[u0]))
        n_w = int(g.integers(_WORDS_MIN, _WORDS_MAX + 1))
        kws = list(dict.fromkeys(g.choice(words_arr, size=n_w, p=net.pwz[z])))
        item_rows.append((d, u0, z, kws))
        active = {u0}
        frontier = [u0]
        while frontier and len(active) < _MAX_CASCADE:
            nxt = []
            for u in frontier:
                lo, hi = ptr[u], ptr[u + 1]
                if lo == hi:
                    continue
                vs = e_dst[lo:hi]
                ps = e_probs[lo:hi, z]
                hit = g.random(hi - lo) < ps
                for v, s in zip(vs, hit):
                    v = int(v)
                    if v in active:
                        continue
                    trial_rows.append((d, u, v, bool(s)))
                    if s:
                        active.add(v)
                        nxt.append(v)
            frontier = nxt
    items = pd.DataFrame(
        item_rows, columns=["item_id", "author", "topic_true", "keywords"]
    )
    trials = pd.DataFrame(trial_rows, columns=["item_id", "src", "dst", "success"])
    return ActionLog(items=items, trials=trials)
