"""EM learner for the topic-aware IC model (Barbieri et al. [2]).

The paper (§II-B): "both pp^z_{u,v} and p(w|z) can be derived from the
action logs … we can jointly learn pp^z_{u,v} and p(w|z) using the
Expectation-Maximization algorithm in [2]".

Generative model (one latent topic per propagated item):

    z_d ~ π;   w ~ p(·|z_d) for each keyword of item d;
    each exposure trial (u, v) of item d succeeds w.p. pp^{z_d}_{u,v}.

E-step: q_d(z) ∝ π_z · Π_w p(w|z) · Π_trials pp^z (or 1−pp^z on failure).
M-step: closed-form weighted counts, with Beta/Dirichlet smoothing so no
parameter saturates at 0/1 (which would −∞ the likelihood).

The math exists once, as a block kernel in the summation form of Chu et
al., "Map-Reduce for Machine Learning on Multicore" (NIPS 2006): items are
independent in the E-step, so :func:`_block_stats` runs it on one block of
items with dense ids and returns the block's partial sufficient statistics
(loglik, Σq per z, word×z counts, edge×z num/den), which add up across
blocks; :func:`_m_step` turns their sum into parameters. :func:`em_fit_local`
runs the kernel on one block holding the whole log. :func:`em_fit_spark`,
the offline model-learning job of the OCTOPUS architecture, packs the same
block once on the driver, broadcasts it once, and then fans the kernel out
over contiguous item ranges of it (``graphlib.builder.fan_out``), one Spark
job per iteration; a range keeps the log's word and edge ids, so the driver
just adds up the per-range statistics.
"""
import itertools
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphlib.builder import fan_out

#: Beta prior for edge probabilities — mean 0.1, matching sparse cascades.
_BETA_A, _BETA_B = 0.5, 4.5
#: Dirichlet smoothing for p(w|z).
_WORD_ALPHA = 0.05
_EPS = 1e-12


@dataclass
class EMResult:
    """Learned parameters + diagnostics."""

    pi: np.ndarray          # (Z,)
    pwz: np.ndarray         # (Z, V)
    words: list             # length V — column order of pwz
    edge_probs: pd.DataFrame  # (src, dst, z, pp) long form, observed edges only
    loglik: list            # per-iteration training log-likelihood
    q: pd.DataFrame         # (item_id, z, q) final responsibilities
    iter_s: list            # per-iteration wall-clock seconds (E- and M-step)

    def edge_prob_matrix(self, e_src, e_dst, Z: int) -> np.ndarray:
        """(E, Z) matrix aligned to an external edge list; edges never
        observed in the log get the prior mean. Of repeated edges in the
        list, the last one receives the learned row."""
        ext = _edge_keys(e_src, e_dst)
        out = np.full((len(ext), Z), _BETA_A / (_BETA_A + _BETA_B))
        if not len(ext):
            return out
        order = np.argsort(ext, kind="stable")
        ep = self.edge_probs
        obs = _edge_keys(ep["src"], ep["dst"])
        at = order[(np.searchsorted(ext[order], obs, side="right") - 1).clip(0)]
        hit = ext[at] == obs
        out[at[hit], ep["z"].to_numpy()[hit]] = ep["pp"].to_numpy()[hit]
        return out


def _edge_keys(src, dst) -> np.ndarray:
    """One sortable int64 per edge, ``src << 32 | dst``: key order is
    (src, dst) order for user ids in [0, 2³¹)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= 1 << 31):
        raise ValueError("user ids must lie in [0, 2**31)")
    return (src << 32) | dst


@dataclass
class _Block:
    """Items, their keywords and their trials with dense ids: words and
    edges are numbered in sorted order (edges by their key)."""

    items: np.ndarray   # (D,) item ids
    words: np.ndarray   # (Vb,) sorted distinct keywords
    wd: np.ndarray      # keyword occurrence → item
    ww: np.ndarray      # keyword occurrence → word
    keys: np.ndarray    # (Eb,) sorted distinct edge keys
    t_item: np.ndarray  # trial → item
    t_edge: np.ndarray  # trial → edge
    t_succ: np.ndarray  # trial → success


_STATS = ("lo long, loglik double, qsum array<double>, wc array<double>, "
          "num array<double>, den array<double>, q array<double>")


def _pack(items_pdf: pd.DataFrame, trials_pdf: pd.DataFrame) -> _Block:
    """Dense ids for one block, vectorised: item ids by position, words by
    ``pd.factorize``, trials' items by ``get_indexer``, edges by factorizing
    their keys. An empty item table raises ``ValueError``: π = Σq / D is
    undefined."""
    if items_pdf.empty:
        raise ValueError("the item table is empty")
    items = items_pdf["item_id"].to_numpy(np.int64)
    kws = items_pdf["keywords"]
    flat = np.fromiter(itertools.chain.from_iterable(kws), dtype=object)
    ww, words = pd.factorize(flat, sort=True)
    wd = np.repeat(np.arange(len(items)), np.fromiter(map(len, kws), np.int64, len(kws)))
    t_item = pd.Index(items).get_indexer(trials_pdf["item_id"].to_numpy(np.int64))
    if (t_item < 0).any():
        raise ValueError("trials refer to items that are not in the item table")
    t_edge, keys = pd.factorize(_edge_keys(trials_pdf["src"], trials_pdf["dst"]), sort=True)
    return _Block(items, words, wd, ww, keys, t_item, t_edge, trials_pdf["success"].to_numpy(bool))


def _block_stats(b: _Block, pi: np.ndarray, pwz: np.ndarray, pp: np.ndarray):
    """E-step on one block, given the block's columns of p(w|z) (Z, Vb) and
    rows of pp (Eb, Z). Returns (loglik, Σq per z, word×z counts (Z, Vb),
    edge×z num and den (Eb, Z), q (D, Z))."""
    D, Z = len(b.items), len(pi)
    log_pp, log_1mpp = np.log(pp + _EPS), np.log1p(-pp)
    logq = np.tile(np.log(pi + _EPS), (D, 1))
    for z in range(Z):
        logq[:, z] += np.bincount(b.wd, weights=np.log(pwz[z, b.ww] + _EPS), minlength=D)
        lt = np.where(b.t_succ, log_pp[b.t_edge, z], log_1mpp[b.t_edge, z])
        logq[:, z] += np.bincount(b.t_item, weights=lt, minlength=D)
    m = logq.max(axis=1, keepdims=True)
    q = np.exp(logq - m)
    s = q.sum(axis=1, keepdims=True)
    loglik = float((np.log(s).ravel() + m.ravel()).sum())
    q /= s
    wc = np.empty((Z, len(b.words)))
    num, den = np.empty((len(b.keys), Z)), np.empty((len(b.keys), Z))
    for z in range(Z):
        wc[z] = np.bincount(b.ww, weights=q[b.wd, z], minlength=len(b.words))
        qt = q[b.t_item, z]
        num[:, z] = np.bincount(b.t_edge, weights=qt * b.t_succ, minlength=len(b.keys))
        den[:, z] = np.bincount(b.t_edge, weights=qt, minlength=len(b.keys))
    return loglik, q.sum(axis=0), wc, num, den, q


def _m_step(D: int, qsum, wc, num, den):
    """Closed-form M-step on the summed statistics, with Beta/Dirichlet
    smoothing. Returns (π, p(w|z), pp)."""
    pwz = wc + _WORD_ALPHA
    pwz /= pwz.sum(axis=1, keepdims=True)
    return qsum / D, pwz, (num + _BETA_A) / (den + (_BETA_A + _BETA_B))


def _item_range(b: _Block, lo: int, hi: int) -> _Block:
    """Items [lo, hi) of a block, with their keywords and trials; word and
    edge ids stay the block's, so range statistics add up to the block's."""
    a, c = np.searchsorted(b.wd, (lo, hi))
    t = (b.t_item >= lo) & (b.t_item < hi)
    return _Block(b.items[lo:hi], b.words, b.wd[a:c] - lo, b.ww[a:c], b.keys,
                  b.t_item[t] - lo, b.t_edge[t], b.t_succ[t])


def _range_stats(b: _Block, params, ids) -> pd.DataFrame:
    """The fan-out kernel of :func:`em_fit_spark`: :func:`_block_stats` with
    ``params`` = (π, p(w|z), pp) on the contiguous item range ``ids`` of the
    block, as one row."""
    pi, pwz, pp = params
    lo = int(ids[0])
    ll, qsum, wc, num, den, q = _block_stats(_item_range(b, lo, int(ids[-1]) + 1), pi, pwz, pp)
    return pd.DataFrame({"lo": [lo], "loglik": [ll], "qsum": [qsum], "wc": [wc.ravel()],
                         "num": [num.ravel()], "den": [den.ravel()], "q": [q.ravel()]})


def _fit(b: _Block, Z: int, n_iter: int, seed: int, e_step) -> EMResult:
    """The EM loop of both fits. ``e_step(π, p(w|z), pp)`` returns the
    statistics of the whole block (loglik, Σq, word×z, num, den) and q."""
    V, Eo = len(b.words), len(b.keys)
    g = np.random.default_rng(seed)
    pi = np.full(Z, 1.0 / Z)
    pwz = g.dirichlet(np.full(V, 1.0), size=Z)
    pp = np.clip(g.random((Eo, Z)) * 0.2 + 0.02, 1e-3, 0.5)
    loglik, iter_s = [], []
    for _ in range(n_iter):
        t0 = time.perf_counter()
        ll, qsum, wc, num, den, q = e_step(pi, pwz, pp)
        pi, pwz, pp = _m_step(len(b.items), qsum, wc, num, den)
        loglik.append(ll)
        iter_s.append(time.perf_counter() - t0)
    keys = b.keys
    edge_long = pd.DataFrame({"src": np.repeat(keys >> 32, Z),
                              "dst": np.repeat(keys & 0xFFFFFFFF, Z), "z": np.tile(np.arange(Z), Eo),
                              "pp": pp.ravel(), "weight": den.ravel()})
    q_pdf = pd.DataFrame({"item_id": np.repeat(b.items, Z),
                          "z": np.tile(np.arange(Z), len(b.items)), "q": q.ravel()})
    return EMResult(pi=pi, pwz=pwz, words=list(b.words), edge_probs=edge_long,
                    loglik=loglik, q=q_pdf, iter_s=iter_s)


def em_fit_local(
    items_pdf: pd.DataFrame,
    trials_pdf: pd.DataFrame,
    *,
    Z: int,
    n_iter: int = 10,
    seed: int = 0,
) -> EMResult:
    """Numpy reference EM: the kernel on one block holding the whole log.
    Deterministic in ``seed`` (initialization); ``n_iter`` < 1 and an empty
    item table raise ``ValueError``."""
    if n_iter < 1:
        raise ValueError("n_iter must be at least 1")
    b = _pack(items_pdf, trials_pdf)
    return _fit(b, Z, n_iter, seed, partial(_block_stats, b))


def em_fit_spark(
    spark: SparkSession,
    items_df: DataFrame,
    trials_df: DataFrame,
    *,
    Z: int,
    n_iter: int = 10,
    seed: int = 0,
) -> EMResult:
    """Spark EM in summation form: one fan-out job per iteration.

    The log is collected and packed once by :func:`_pack`, as in
    :func:`em_fit_local`, so the shared RNG stream initializes the same
    parameters, and the block is broadcast once per fit. Each iteration
    broadcasts the parameters and runs the kernel on ``defaultParallelism``
    contiguous item ranges; the driver sums the rows in range order. The two
    fits agree up to float summation order — tested in ``tests/test_em.py``.
    ``n_iter`` < 1 raises ``ValueError`` before any Spark job, an empty item
    table once the log is collected, before any fan-out job.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be at least 1")
    b = _pack(items_df.select("item_id", "keywords").toPandas(),
              trials_df.select("item_id", "src", "dst", "success").toPandas())

    block = spark.sparkContext.broadcast(b)

    def e_step(pi, pwz, pp):
        rows = fan_out(spark, (pi, pwz, pp), np.arange(len(b.items)),
                       lambda params, ids: _range_stats(block.value, params, ids),
                       _STATS).sort_values("lo")
        qsum, wc, num, den = (np.sum(np.stack(rows[c]), axis=0)
                              for c in ("qsum", "wc", "num", "den"))
        return (float(rows["loglik"].sum()), qsum, wc.reshape(Z, -1), num.reshape(-1, Z),
                den.reshape(-1, Z), np.concatenate(rows["q"].tolist()).reshape(-1, Z))

    try:
        return _fit(b, Z, n_iter, seed, e_step)
    finally:
        block.destroy()


def match_topics(est_pwz: np.ndarray, true_pwz: np.ndarray) -> np.ndarray:
    """Greedy 1-1 topic alignment (label switching) by cosine similarity.
    Returns ``perm`` with est topic ``perm[z]`` matched to true topic ``z``."""
    Z = true_pwz.shape[0]
    en = est_pwz / (np.linalg.norm(est_pwz, axis=1, keepdims=True) + _EPS)
    tn = true_pwz / (np.linalg.norm(true_pwz, axis=1, keepdims=True) + _EPS)
    sim = tn @ en.T  # (Z_true, Z_est)
    perm = np.full(Z, -1)
    s = sim.copy()
    for _ in range(min(Z, sim.shape[1])):
        zt, ze = np.unravel_index(np.argmax(s), s.shape)
        perm[zt] = int(ze)
        s[zt, :] = -np.inf
        s[:, ze] = -np.inf
    return perm


def recovery_scores(result: EMResult, net) -> dict:
    """Compare learned parameters against a generator's ground truth.

    Returns topic-matching word-distribution cosine (mean over topics) and
    Pearson correlation between learned and true per-topic edge probs on
    observed edges.
    """
    cols = [net.words.index(w) for w in result.words]
    true_p = net.pwz[:, cols]  # ground truth in the learner's word order
    est = result.pwz
    perm = match_topics(est, true_p)
    cos = float(
        np.mean(
            [
                (true_p[z] @ est[perm[z]])
                / (np.linalg.norm(true_p[z]) * np.linalg.norm(est[perm[z]]) + _EPS)
                for z in range(net.Z)
            ]
        )
    )
    truth = {
        (s, d): row
        for s, d, row in zip(
            net.edges["src"], net.edges["dst"], net.edge_probs()
        )
    }
    min_weight = 5.0
    est_v, true_v = [], []
    for row in result.edge_probs.itertuples(index=False):
        t = truth.get((row.src, row.dst))
        if t is None or getattr(row, "weight", min_weight) < min_weight:
            continue
        zt = int(np.flatnonzero(perm == row.z)[0]) if row.z in perm else None
        if zt is None:
            continue
        est_v.append(row.pp)
        true_v.append(t[zt])
    corr = float(np.corrcoef(est_v, true_v)[0, 1]) if len(est_v) > 2 else float("nan")
    return {"word_cosine": cos, "edge_corr": corr, "perm": perm}
