"""Table harnesses — one function per table in EXPERIMENTS.md.

The demo paper prints no numeric tables, so each harness operationalizes
one demo scenario / efficiency claim (DESIGN.md §6) and returns a pandas
DataFrame with the rows recorded in EXPERIMENTS.md. ``jobs/`` wraps them
for spark-submit; ``benchmarks/`` wraps them for pytest-benchmark.

All harnesses are deterministic in their seeds except wall-clock columns.
"""
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro import synth_data as sd
from repro.core.keyword_im import (
    best_effort_im,
    greedy_mia,
    naive_mc_im,
    naive_mia_im,
    naive_ris_im,
)
from repro.core.keyword_suggest import build_influencer_index_spark, suggest_keywords
from repro.core.mia import extract_paths, miia, mioa, mia_sigma_single
from repro.core.model import TopicAwareInfluenceModel
from repro.influence.bounds import nb_bounds, pb_bounds, precompute_spark
from repro.influence.spread import mc_spread_local, simulate_cascade, _sample_rng
from repro.topics.em import em_fit_spark, recovery_scores
from repro.topics.keywords import user_keywords


@dataclass
class Workbench:
    """Shared experiment state: network + model + offline σ_max index."""

    net: object
    log: object
    model: TopicAwareInfluenceModel
    pre: object
    precompute_s: float


def default_queries(net) -> list:
    """Keyword queries spanning the demo's flavours: two strong keywords
    per topic ('data mining'-style), plus two cross-topic mixtures."""
    per_topic = [
        [f"{name}_w0", f"{name}_w1"] for name in dict.fromkeys(net.topic_names)
    ]
    mixed = [
        per_topic[i][:1] + per_topic[(i + 1) % len(per_topic)][:1]
        for i in range(min(2, len(per_topic)))
    ]
    return per_topic + mixed


def top_influencers(wb: Workbench, n: int) -> list:
    """The first ``n`` greedy-MIA seeds under pure topic 0 (unbounded CELF,
    so the exact greedy order)."""
    g = wb.model.graph
    seeds, _, _ = greedy_mia(g, g.effective_probs(np.eye(g.Z)[0]), n, wb.model.theta)
    return seeds


def build_workbench(
    spark, *, sf: float = 0.1, Z: int = 8,
    theta: float = 0.01, sf_items: float = 0.02, seed: int = 7,
) -> Workbench:
    """Generate the network/action log and run the offline precomputation
    on Spark."""
    net = sd.social_network(sf=sf, Z=Z, seed=seed)
    log = sd.action_log(net, sf=sf_items, seed=seed + 4)
    model = TopicAwareInfluenceModel.from_network(net, log, theta=theta)
    t0 = time.perf_counter()
    pre = precompute_spark(spark, model.graph, theta=theta)
    pre_s = time.perf_counter() - t0
    return Workbench(net=net, log=log, model=model, pre=pre, precompute_s=pre_s)


# ---------------------------------------------------------------------- T1
def table1_keyword_im(
    wb: Workbench, *, k: int = 10,
    ris_R: int = 2000, mc_eval_samples: int = 200,
    include_naive_mc: bool = False, naive_mc_candidates: int = 50,
    naive_mc_samples: int = 50,
) -> pd.DataFrame:
    """Scenario 1 — keyword-based influence maximization.

    Per (default query, method): latency, #exact evaluations, and the MC
    spread of the returned seed set under a fixed 200-sample estimator (so
    quality is comparable across methods). ``spread_vs_greedy`` normalizes MC spread
    by the naive-MIA (exact greedy) answer for the same query.
    """
    model, pre = wb.model, wb.pre
    rows = []
    for W in default_queries(wb.net):
        gamma, p_eff = model.query_probs(W)

        def mc_of(seeds):
            return mc_spread_local(model.graph, p_eff, seeds, n_samples=mc_eval_samples)

        runs = []
        t0 = time.perf_counter()
        a = naive_mia_im(model, W, k)
        runs.append((a, time.perf_counter() - t0))
        greedy_mc = mc_of(a.seeds)
        t0 = time.perf_counter()
        a = naive_ris_im(model, W, k, R=ris_R)
        runs.append((a, time.perf_counter() - t0))
        t0 = time.perf_counter()
        a = best_effort_im(model, pre, W, k)
        runs.append((a, time.perf_counter() - t0))
        if include_naive_mc:
            deg = np.bincount(model.graph.e_src, minlength=model.graph.n)
            cand = np.argsort(-deg)[:naive_mc_candidates].tolist()
            t0 = time.perf_counter()
            a = naive_mc_im(model, W, k, n_samples=naive_mc_samples, candidates=cand)
            runs.append((a, time.perf_counter() - t0))
        for a, dt in runs:
            mc = mc_of(a.seeds)
            rows.append(
                {
                    "query": " ".join(W), "method": a.method, "k": k,
                    "latency_s": round(dt, 4),
                    "n_exact_evals": a.n_exact_evals,
                    "mia_spread": round(a.mia_spread, 2),
                    "mc_spread": round(mc, 2),
                    "spread_vs_greedy": round(mc / greedy_mc, 4),
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- T2
def table2_bounds(
    wb: Workbench, *, k: int = 10, queries: list | None = None,
    n_eval_users: int = 300,
) -> pd.DataFrame:
    """Bound-family effectiveness.

    Per (query, bound family): validity (UB ≥ exact σ for every sampled
    user), mean tightness UB/σ, and the fraction of users whose exact
    spread best-effort CELF never evaluates when keyed by that family.
    """
    model, pre = wb.model, wb.pre
    g = model.graph
    queries = queries or default_queries(wb.net)
    rng = np.random.default_rng(0)
    users = rng.choice(g.n, size=min(n_eval_users, g.n), replace=False)
    rows = []
    for W in queries:
        gamma, p_eff = model.query_probs(W)
        exact = np.array(
            [mia_sigma_single(g, p_eff, int(u), model.theta) for u in users]
        )
        fams = {"PB": pb_bounds(pre), "NB": nb_bounds(g, p_eff, pre)}
        fams["min(PB,NB)"] = np.minimum(fams["PB"], fams["NB"])
        for fam, full in fams.items():
            ub = full[users]
            _, _, n_evals = greedy_mia(g, p_eff, k, model.theta, upper_bounds=full)
            rows.append(
                {
                    "query": " ".join(W), "bound": fam,
                    "valid": bool((ub >= exact - 1e-9).all()),
                    "mean_tightness": round(float(np.mean(ub / np.maximum(exact, 1e-9))), 3),
                    "frac_pruned": round(1.0 - n_evals / g.n, 4),
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- T3
def table3_suggest(
    wb: Workbench, spark, *, k: int = 3, n_targets: int = 6,
    pool_size: int = 12, index_R: int = 300, n_mc: int = 100,
    mc_eval_samples: int = 300, exhaustive_pool: int = 8, seed: int = 0,
) -> tuple:
    """Scenario 2 — personalized influential keyword suggestion.

    Targets are the most prolific authors. Per (target, method): latency,
    #spread estimates, and the MC spread of the suggested keyword set
    (fixed estimator). ``vs_exhaustive`` normalizes by exhaustive search
    over a reduced pool with the index estimator (the attainable optimum
    at test scale). Returns (rows_df, meta) where meta records the offline
    index-build time (Spark).
    """
    model = wb.model
    items = wb.log.items
    authors = items["author"].value_counts().index[:n_targets].tolist()
    t0 = time.perf_counter()
    index = build_influencer_index_spark(spark, model.graph, R=index_R, seed=seed)
    index_s = time.perf_counter() - t0
    rows = []
    for u in authors:
        u = int(u)

        def mc_of(keywords):
            gm = model.gamma(keywords)
            return mc_spread_local(
                model.graph, model.edge_probs(gm), [u],
                n_samples=mc_eval_samples, seed=seed,
            )

        cands = user_keywords(items, u, max_candidates=pool_size)
        t0 = time.perf_counter()
        r_ex = suggest_keywords(
            model, u, k, method="index", index=index,
            candidates=cands[:exhaustive_pool], exhaustive=True,
        )
        ex_dt = time.perf_counter() - t0
        ex_mc = mc_of(r_ex.keywords)
        runs = []
        t0 = time.perf_counter()
        runs.append((suggest_keywords(model, u, k, method="index", index=index,
                                      candidates=cands), time.perf_counter() - t0))
        t0 = time.perf_counter()
        runs.append((suggest_keywords(model, u, k, method="mc", n_mc=n_mc,
                                      candidates=cands, seed=seed),
                     time.perf_counter() - t0))
        t0 = time.perf_counter()
        runs.append((suggest_keywords(model, u, k, method="freq", index=index,
                                      candidates=cands), time.perf_counter() - t0))
        runs.append((r_ex, ex_dt))
        for r, dt in runs:
            mc = mc_of(r.keywords)
            rows.append(
                {
                    "target": u, "method": r.method,
                    "keywords": " ".join(r.keywords),
                    "latency_s": round(dt, 4),
                    "n_estimates": r.n_estimates,
                    "mc_spread": round(mc, 2),
                    "vs_exhaustive": round(mc / max(ex_mc, 1e-9), 4),
                }
            )
    return pd.DataFrame(rows), {"index_build_s": round(index_s, 3), "index_R": index_R}


# ---------------------------------------------------------------------- T4
def table4_mia_paths(
    wb: Workbench, *, thetas=(0.3, 0.1, 0.03, 0.01), n_roots: int = 6,
    mc_region_samples: int = 200,
) -> pd.DataFrame:
    """Scenario 3 — influential path exploration.

    The exploration happens under a *topical* query (the demo explores
    how a researcher influences their area): the first two-keyword topic
    query. Roots are the first ``n_roots`` greedy-MIA
    seeds under pure topic 0. Per (root, θ): MIOA tree size/depth/#clusters + latency;
    the reverse MIIA size; and the MC influence-region baseline (nodes
    with activation prob ≥ θ estimated from ``mc_region_samples``
    cascades) with its latency and node-set Jaccard vs the MIA tree.
    """
    model = wb.model
    g = model.graph
    gamma = model.gamma(default_queries(wb.net)[0])
    p_eff = g.effective_probs(gamma)
    roots = top_influencers(wb, n_roots)
    rows = []
    for root in roots:
        root = int(root)
        # MC influence region (the expensive alternative to MIA).
        t0 = time.perf_counter()
        counts = np.zeros(g.n)
        for i in range(mc_region_samples):
            for v in simulate_cascade(g, p_eff, [root], _sample_rng(0, i)):
                counts[v] += 1
        ap_mc = counts / mc_region_samples
        mc_dt = time.perf_counter() - t0
        for theta in thetas:
            t0 = time.perf_counter()
            tree = mioa(g, p_eff, root, theta)
            dt = time.perf_counter() - t0
            paths = extract_paths(tree, root)
            t0 = time.perf_counter()
            rtree = miia(g, p_eff, root, theta)
            rdt = time.perf_counter() - t0
            region = set(np.flatnonzero(ap_mc >= theta).tolist()) | {root}
            tset = set(tree)
            jac = len(tset & region) / max(len(tset | region), 1)
            rows.append(
                {
                    "root": root, "theta": theta,
                    "tree_size": len(tree),
                    "max_depth": int(paths["depth"].max()),
                    "n_clusters": int(paths.loc[paths["depth"] > 0, "cluster"].nunique()),
                    "mioa_ms": round(dt * 1e3, 2),
                    "miia_size": len(rtree),
                    "miia_ms": round(rdt * 1e3, 2),
                    "mc_region_size": len(region),
                    "mc_region_ms": round(mc_dt * 1e3, 1),
                    "jaccard_vs_mc": round(jac, 3),
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- T5
def table5_em(
    spark, *, sf: float = 0.02, Z: int = 6, sf_items_list=(0.005, 0.01),
    n_iter: int = 6, seed: int = 7,
) -> pd.DataFrame:
    """Model learning from action logs.

    Per (log scale, iteration): training log-likelihood; final row also
    records ground-truth recovery (word-distribution cosine after topic
    matching, per-topic edge-prob correlation on well-observed cells) and
    the fit's wall clock; every row records its iteration's seconds
    (``iter_s``, E- and M-step). Fits with the Spark EM.
    """
    net = sd.social_network(sf=sf, Z=Z, seed=seed)
    rows = []
    for sf_items in sf_items_list:
        log = sd.action_log(net, sf=sf_items, seed=seed + 4)
        t0 = time.perf_counter()
        res = em_fit_spark(
            spark, log.items_df(spark), log.trials_df(spark),
            Z=Z, n_iter=n_iter, seed=0,
        )
        dt = time.perf_counter() - t0
        sc = recovery_scores(res, net)
        for it, ll in enumerate(res.loglik):
            rows.append(
                {
                    "sf_items": sf_items, "n_items": len(log.items),
                    "n_trials": len(log.trials), "iter": it,
                    "loglik": round(ll, 1),
                    "word_cosine": round(sc["word_cosine"], 3) if it == len(res.loglik) - 1 else float("nan"),
                    "edge_corr": round(sc["edge_corr"], 3) if it == len(res.loglik) - 1 else float("nan"),
                    "iter_s": round(res.iter_s[it], 3),
                    "total_s": round(dt, 1) if it == len(res.loglik) - 1 else float("nan"),
                }
            )
    return pd.DataFrame(rows)
