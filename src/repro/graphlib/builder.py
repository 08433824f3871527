"""Social-graph construction and the collected ``LocalGraph``.

OCTOPUS's architecture splits into an offline Spark layer (index and model
precomputation) and a real-time engine; ``LocalGraph`` is the collected CSR
representation the online engine runs on, and :func:`fan_out` runs a driver
kernel over it, or over any other broadcast data, on Spark. Builders here
also derive the social graph *from action logs* (the paper constructs the
ACMCite graph from citation actions).
"""
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def graph_from_trials(trials_df: DataFrame) -> DataFrame:
    """Derive the social graph from the action log: one edge per (src, dst)
    pair that ever had a propagation trial, with trial/success counts.

    This is how OCTOPUS builds the ACMCite graph — 'a v's paper citing a
    u's paper' is an item propagated u→v; the edge set is the support of
    the trial log.
    """
    return (
        trials_df.groupBy("src", "dst")
        .agg(
            F.count(F.lit(1)).alias("n_trials"),
            F.sum(F.col("success").cast("long")).alias("n_success"),
        )
        .orderBy("src", "dst")
    )


def degree_stats(edges_df: DataFrame) -> DataFrame:
    """Per-user out/in degree — the graph summary shown in the demo UI."""
    out_d = edges_df.groupBy(F.col("src").alias("user_id")).agg(
        F.count(F.lit(1)).alias("out_degree")
    )
    in_d = edges_df.groupBy(F.col("dst").alias("user_id")).agg(
        F.count(F.lit(1)).alias("in_degree")
    )
    return (
        out_d.join(in_d, "user_id", "full_outer")
        .fillna(0, subset=["out_degree", "in_degree"])
        .orderBy("user_id")
    )


@dataclass
class LocalGraph:
    """CSR adjacency over a fixed edge order, for the online engine.

    ``probs`` is the (E, Z) per-topic activation matrix in the same edge
    order as ``e_src``/``e_dst``; both CSR views (out by src, in by dst)
    index into that order via ``out_eid``/``in_eid``. The MIA kernel walks
    the same CSR as plain Python lists (:meth:`adjacency_lists`), built
    once per graph on first use; a pickle carries the nine CSR fields only,
    so the lists never ship to Spark tasks.
    """

    n: int
    Z: int
    e_src: np.ndarray      # (E,)
    e_dst: np.ndarray      # (E,)
    probs: np.ndarray      # (E, Z)
    out_ptr: np.ndarray    # (n+1,)
    out_eid: np.ndarray    # (E,) edge ids sorted by src
    in_ptr: np.ndarray     # (n+1,)
    in_eid: np.ndarray     # (E,) edge ids sorted by dst

    def __reduce__(self):
        return LocalGraph, tuple(getattr(self, f.name) for f in fields(LocalGraph))

    @property
    def n_edges(self) -> int:
        return len(self.e_src)

    @classmethod
    def from_edges(cls, src, dst, probs, n: int) -> "LocalGraph":
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim == 1:
            probs = probs[:, None]
        out_eid = np.argsort(src, kind="stable").astype(np.int64)
        out_ptr = np.searchsorted(src[out_eid], np.arange(n + 1)).astype(np.int64)
        in_eid = np.argsort(dst, kind="stable").astype(np.int64)
        in_ptr = np.searchsorted(dst[in_eid], np.arange(n + 1)).astype(np.int64)
        return cls(
            n=n, Z=probs.shape[1], e_src=src, e_dst=dst, probs=probs,
            out_ptr=out_ptr, out_eid=out_eid, in_ptr=in_ptr, in_eid=in_eid,
        )

    def out_edges(self, u: int) -> np.ndarray:
        """Edge ids leaving ``u``."""
        return self.out_eid[self.out_ptr[u] : self.out_ptr[u + 1]]

    def in_edges(self, v: int) -> np.ndarray:
        """Edge ids entering ``v``."""
        return self.in_eid[self.in_ptr[v] : self.in_ptr[v + 1]]

    @cached_property
    def _out_lists(self) -> tuple:
        return self.out_ptr.tolist(), self.e_dst[self.out_eid].tolist()

    @cached_property
    def _in_lists(self) -> tuple:
        return self.in_ptr.tolist(), self.e_src[self.in_eid].tolist()

    def adjacency_lists(self, forward: bool = True) -> tuple:
        """``(ptr, nbr)`` as Python lists: the out-CSR (``nbr`` = heads in
        ``out_eid`` order) or, with ``forward=False``, the in-CSR (``nbr`` =
        tails in ``in_eid`` order). List indexing in the Dijkstra inner
        loop is several times cheaper than indexing numpy arrays."""
        return self._out_lists if forward else self._in_lists

    def effective_probs(self, gamma: np.ndarray) -> np.ndarray:
        """(E,) query-time activation probs pp_γ(e) = Σ_z γ_z · pp^z_e."""
        return self.probs @ np.asarray(gamma, dtype=np.float64)

    def max_probs(self) -> np.ndarray:
        """(E,) query-independent upper envelope max_z pp^z_e."""
        return self.probs.max(axis=1)


def fan_out(spark: SparkSession, data, ids, fn, schema: str) -> pd.DataFrame:
    """Run the driver kernel ``fn(data, id_batch) -> rows`` (a pandas frame
    matching ``schema``) over ``ids`` on Spark, and collect the rows.

    ``data`` (any picklable value: a ``LocalGraph``, an EM block with its
    parameters) is broadcast once; the ids are split into
    ``defaultParallelism`` contiguous batches by ``mapInPandas``. The
    driver twin of a fan-out is ``fn(data, ids)``, so both run the same
    code on the same ids."""
    ids = np.asarray(ids, dtype=np.int64)
    sc = spark.sparkContext
    shared = sc.broadcast(data)

    def run(batches):
        for pdf in batches:
            yield fn(shared.value, ids[pdf["id"].to_numpy()])

    parts = max(1, min(len(ids), sc.defaultParallelism))
    try:
        return spark.range(len(ids), numPartitions=parts).mapInPandas(run, schema).toPandas()
    finally:
        shared.destroy()


def local_graph_from_network(net) -> LocalGraph:
    """Collect a ``synth_data.SocialNetwork`` into the engine's CSR form."""
    return LocalGraph.from_edges(
        net.edges["src"].to_numpy(),
        net.edges["dst"].to_numpy(),
        net.edge_probs(),
        n=net.n_users,
    )
