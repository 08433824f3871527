"""The three OCTOPUS workloads: seeded inputs, requests, checks, metrics.

Every workload is a closed loop of one client: an analyst waits for each
answer before asking the next. Requests go through the system's public
entry points, looked up on their modules at call time so the traced run's
wrappers (``spans.Recorder``) see them.

* ``kwim``: keyword influence-maximisation queries (``best_effort_im``),
  the paper's headline query; its time is MIA trees inside CELF, and it
  is the only workload that computes PB/NB bounds.
* ``explore``: sessions of keyword suggestion on the influencer index
  followed by MIOA/MIIA path trees, for two target authors each; its time
  is index estimates, with no bounds or CELF work, so a Dijkstra or bound
  change should leave it flat. A target's cost is bimodal (an author in
  few index envelopes is cheap, a hub is not), which puts the one-target
  median in the trough between the modes, where it jumped by 18 % between
  seeds; over two targets it moves by about 6 %.
* ``offline``: one refresh of the Spark builds the online answers depend
  on (σ_max precompute, influencer index, EM model); the write side.

The data are fixed, so that a run's cost does not hinge on the seed: the
SF 0.1 network and action log of ``benchmarks/conftest.py`` (``DATA_SEED``)
and the influencer-index samples (``INDEX_SEED``, as in T3). ``--seed``
drives the query and session streams and the EM starting point.

Each answer is checked right after it returns, outside its timing and with
the run's clock paused, and only a small summary of it is kept: holding
every tree and index would grow the heap the garbage collector walks.
"""
import itertools
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro import synth_data as sd
from repro.core import keyword_im, keyword_suggest, mia
from repro.core.model import TopicAwareInfluenceModel
from repro.influence import bounds
from repro.topics import em
from repro.topics.keywords import user_keywords

from spans import Recorder, self_seconds, under

DATA_SEED = 7
INDEX_SEED = 0
SF, Z, THETA = 0.1, 8, 0.01
INDEX_R = 300
KS = (5, 10, 20)
PATH_THETAS = (0.1, 0.03, 0.01)
SUGGEST_K, CANDIDATES = 3, 12
TARGETS_PER_SESSION = 2
EM_SF, EM_Z, EM_ITEMS, EM_ITERS = 0.02, 6, 0.01, 6
SETUP_REPEATS = 3
NAIVE_CHECKS = 3
GOLDEN = (5 ** 0.5 - 1) / 2

#: (module, attribute, span name, note taken from (args, result)).
TRACE_TARGETS = [
    ("repro.core.keyword_im", "mioa", "mia.tree", lambda a, r: len(r)),
    ("repro.core.mia", "mioa", "mia.tree", lambda a, r: len(r)),
    ("repro.core.mia", "miia", "mia.tree", lambda a, r: len(r)),
    ("repro.core.keyword_im", "mia_marginal", "mia.marginal", None),
    ("repro.core.keyword_im", "mia_sigma", "mia.finish", None),
    ("repro.core.mia", "extract_paths", "mia.paths", None),
    ("repro.core.keyword_im", "celf", "celf", None),
    ("repro.core.keyword_im", "best_upper_bounds", "bounds", None),
    ("repro.core.model", "gamma_from_keywords", "keywords.gamma", None),
    ("repro.graphlib.builder", "LocalGraph.effective_probs", "model.edge_probs", None),
    ("repro.core.keyword_suggest", "suggest_keywords", "suggest", None),
    ("repro.core.keyword_suggest", "InfluencerIndex.estimate", "index.estimate",
     lambda a, r: a[1]),
    ("repro.influence.bounds", "precompute_spark", "offline.precompute", None),
    ("repro.influence.bounds", "max_prob_reach", "traversal.reach", None),
    ("repro.core.keyword_suggest", "build_influencer_index_spark", "offline.index", None),
    ("repro.topics.em", "em_fit_spark", "offline.em", None),
]

E2E_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "requests_per_s": "1/s",
}

#: Per-layer metric → unit. Every workload reports all of them; a layer a
#: workload does not use reads 0 there.
LAYER_UNITS = {
    "mia.trees": "count", "mia.tree_ms": "ms", "mia.tree_nodes_mean": "count",
    "mia.marginal_ms": "ms", "mia.finish_ms": "ms", "mia.paths_ms": "ms",
    "celf.exact_evals": "count", "celf.self_ms": "ms",
    "bounds.ms": "ms", "bounds.pruned_frac": "frac",
    "keywords.gamma_calls": "count", "keywords.gamma_ms": "ms",
    "model.edge_probs_calls": "count", "model.edge_probs_ms": "ms",
    "suggest.estimates": "count", "index.estimate_ms": "ms",
    "index.samples_scanned_frac": "frac", "index.stored_edges": "count",
    "precompute_s": "s", "traversal.reach_s": "s", "influencer_index_s": "s",
    "em_s": "s", "em.iter_s": "s",
    **{f"spark.{b}.{c}": "count" for b in ("precompute", "index", "em")
       for c in ("jobs", "stages", "tasks")},
    "im_spread_mean": "users", "suggest_spread_mean": "users", "em_loglik": "nats",
    "trace.request_ms": "ms", "trace.overhead_frac": "frac",
}


@dataclass
class Done:
    """One request of the closed loop: its input and, per execution, the
    kept summary of the answer, the latency and any error."""

    inp: object
    out: object = None
    seconds: float = 0.0
    error: str | None = None
    traced_out: object = None        # traced run only: the traced execution
    traced_seconds: float = 0.0
    traced_error: str | None = None


def _execute(run, *args):
    t0 = time.perf_counter()
    try:
        out = run(*args)
    except Exception:
        err = traceback.format_exc()
        print(err, file=sys.stderr)
        return None, time.perf_counter() - t0, err
    return out, time.perf_counter() - t0, None


def closed_loop(w, st, seed: int, seconds: float, rec: Recorder | None = None):
    """Issue requests back to back until the next one would end after
    ``seconds`` of request time. With a recorder, each request runs twice
    on the same input, untraced and traced in alternating order, so the
    tracing overhead is measured on identical work.

    Returns (done, wall seconds without the checks, check failures)."""
    done: list = []
    busy: list = []
    bad: list = []
    paused = 0.0
    t0 = time.perf_counter()
    for i, inp in enumerate(w.stream(st, seed)):
        start, pause_before = time.perf_counter(), paused
        d = Done(inp)
        modes = (False,) if rec is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                rec.install()
                try:
                    with rec.root("request", i):
                        out, sec, err = _execute(w.run, st, inp)
                finally:
                    rec.uninstall()
            else:
                out, sec, err = _execute(w.run, st, inp)
            c0 = time.perf_counter()
            if out is not None:
                bad += [f"request {i}: {m}" for m in w.check(st, inp, out)]
                out = w.keep(out)
            paused += time.perf_counter() - c0
            if traced:
                d.traced_out, d.traced_seconds, d.traced_error = out, sec, err
            else:
                d.out, d.seconds, d.error = out, sec, err
        if rec is not None and d.out is not None and d.traced_out is not None and (
            not w.same(d.out, d.traced_out)
        ):
            bad.append(f"request {i}: traced answer differs from untraced")
        done.append(d)
        now = time.perf_counter()
        busy.append(now - start - (paused - pause_before))
        if now - paused + statistics.median(busy) > t0 + seconds:
            break
    return done, time.perf_counter() - t0 - paused, bad


def end_to_end(done: list, wall: float) -> dict:
    lat = sorted(d.seconds * 1e3 for d in done if d.error is None)
    if not lat:
        return {}
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
        "requests_per_s": len(done) / wall,
    }


def span_layers(spans: list, n: int) -> dict:
    """Per-request layer times and counts that come straight from spans."""
    own = self_seconds(spans)
    in_finish = under(spans, "mia.finish")
    tot: dict = {}
    cnt: dict = {}
    nodes = []
    for s, o, fin in zip(spans, own, in_finish):
        name = s.name
        if name == "mia.tree":
            if fin:
                continue  # the answer-finish re-run counts in mia.finish_ms
            nodes.append(s.note)
        # CELF's own work is its self time: its children are trees and marginals.
        tot[name] = tot.get(name, 0.0) + (o if name == "celf" else s.seconds)
        cnt[name] = cnt.get(name, 0) + 1
    per = lambda key, scale=1e3: tot.get(key, 0.0) * scale / n  # noqa: E731
    return {
        "mia.trees": cnt.get("mia.tree", 0) / n,
        "mia.tree_ms": per("mia.tree"),
        "mia.tree_nodes_mean": float(np.mean(nodes)) if nodes else 0.0,
        "mia.marginal_ms": per("mia.marginal"),
        "mia.finish_ms": per("mia.finish"),
        "mia.paths_ms": per("mia.paths"),
        "celf.self_ms": per("celf"),
        "bounds.ms": per("bounds"),
        "keywords.gamma_calls": cnt.get("keywords.gamma", 0) / n,
        "keywords.gamma_ms": per("keywords.gamma"),
        "model.edge_probs_calls": cnt.get("model.edge_probs", 0) / n,
        "model.edge_probs_ms": per("model.edge_probs"),
        "index.estimate_ms": per("index.estimate"),
        "traversal.reach_s": per("traversal.reach", 1.0),
        "trace.request_ms": per("request"),
    }


def overhead(done: list) -> float:
    """Median traced/untraced latency ratio over the paired executions, − 1."""
    ratios = [d.traced_seconds / d.seconds for d in done
              if d.error is None and d.traced_error is None and d.seconds > 0]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def social_model(*, items: bool = False) -> TopicAwareInfluenceModel:
    net = sd.social_network(sf=SF, Z=Z, seed=DATA_SEED)
    log = sd.action_log(net, sf=0.02, seed=DATA_SEED + 4) if items else None
    return TopicAwareInfluenceModel.from_network(net, log, theta=THETA)


class Workload:
    """Defaults shared by the three workloads."""

    ops_per_request = 1

    def keep(self, out):
        return out

    def final_check(self, st, done, seed) -> list:
        return []

    def close(self) -> None:
        """Release what the set-ups started; runs even after a failure."""


# ---------------------------------------------------------------- kwim
@dataclass(frozen=True)
class Query:
    words: tuple
    k: int
    cross_topic: bool


def kwim_queries(vocab, seed: int):
    """Endless stream of distinct keyword queries, in seeded blocks of
    nine: each k in ``KS`` gets two single-topic queries (1–3 words from
    one p(w|z)) and one cross-topic query (2–3 words from two topics). The
    (first) topic of each k's queries is drawn ∝ π off its own golden-ratio
    sequence from a seeded start, so every run's window holds each k,
    shape and topic in proportion; the rest is random."""
    rng = np.random.default_rng(seed)
    V = len(vocab.words)
    pi = vocab.pi / vocab.pi.sum()
    cdf = np.cumsum(pi)
    u = {k: rng.random() for k in KS}
    block = [(k, cross) for k in KS for cross in (False, False, True)]
    seen: set = set()

    def draw(k, cross):
        u[k] = (u[k] + GOLDEN) % 1.0
        z1 = min(int(np.searchsorted(cdf, u[k], side="right")), vocab.Z - 1)
        if cross:
            rest = np.where(np.arange(vocab.Z) == z1, 0.0, pi)
            z2 = rng.choice(vocab.Z, p=rest / rest.sum())
            topics = [z1, z2] + [rng.choice([z1, z2])] * int(rng.integers(0, 2))
        else:
            topics = [z1] * int(rng.integers(1, 4))
        return tuple(vocab.words[rng.choice(V, p=vocab.pwz[z])] for z in topics)

    while True:
        for j in rng.permutation(len(block)):
            k, cross = block[j]
            words = draw(k, cross)
            while len(set(words)) < len(words) or frozenset(words) in seen:
                words = draw(k, cross)
            seen.add(frozenset(words))
            yield Query(words, k, cross)


class Kwim(Workload):
    name = "kwim"

    def setup(self, seed):
        model = social_model()
        return {"model": model, "pre": bounds.precompute_local(model.graph, theta=THETA)}

    def stream(self, st, seed):
        return kwim_queries(st["model"].vocab, seed)

    def run(self, st, q):
        return keyword_im.best_effort_im(st["model"], st["pre"], list(q.words), q.k)

    def check(self, st, q, out):
        if len(out.seeds) == q.k and len(set(out.seeds)) == q.k:
            return []
        return [f"seeds {out.seeds} for k={q.k}"]

    def same(self, a, b):
        return a.seeds == b.seeds

    def final_check(self, st, done, seed):
        """``mia_spread`` equals the unbounded greedy's on a seeded sample."""
        bad = []
        ok = [i for i, d in enumerate(done) if d.out is not None]
        rng = np.random.default_rng(seed + 1)
        for i in rng.choice(ok, size=min(NAIVE_CHECKS, len(ok)), replace=False):
            d = done[int(i)]
            ref = keyword_im.naive_mia_im(st["model"], list(d.inp.words), d.inp.k)
            if abs(d.out.mia_spread - ref.mia_spread) > 1e-9 * abs(ref.mia_spread):
                bad.append(f"request {i}: spread {d.out.mia_spread} != naive {ref.mia_spread}")
        return bad

    def mix(self, done):
        n = len(done)
        return {
            "queries": n,
            "cross_topic_share": sum(d.inp.cross_topic for d in done) / n,
            "k_mix": {k: sum(d.inp.k == k for d in done) / n for k in KS},
            "words_mix": {w: sum(len(d.inp.words) == w for d in done) / n
                          for w in (1, 2, 3)},
        }

    def layers(self, st, done, spans):
        outs = [d.traced_out for d in done]
        n = st["model"].graph.n
        return {
            "celf.exact_evals": float(np.mean([a.n_exact_evals for a in outs])),
            "bounds.pruned_frac": float(np.mean([1 - a.n_exact_evals / n for a in outs])),
            "im_spread_mean": float(np.mean([a.mia_spread for a in outs])),
        }


# ---------------------------------------------------------------- explore
@dataclass(frozen=True)
class Session:
    targets: tuple  # ((user, θ), ...), ``TARGETS_PER_SESSION`` of them


def explore_sessions(items, seed: int):
    """Endless session stream. Targets are authors drawn with probability
    ∝ item count, read off a golden-ratio (Kronecker) sequence over the
    count-ordered cumulative weights from a seeded start, so that every
    prefix of the stream holds prolific and occasional authors in
    proportion and each run's window sees the same mix. Path-tree θ cycles
    through ``PATH_THETAS`` in seeded order, one per target."""
    rng = np.random.default_rng(seed)
    counts = items["author"].value_counts()
    users, n = counts.index.to_numpy(), counts.to_numpy()
    order = np.lexsort((users, -n))  # most prolific first, ties by id
    users, cdf = users[order], np.cumsum(n[order]) / n.sum()
    thetas = rng.permutation(PATH_THETAS)
    u = rng.random()
    targets = []
    for j in itertools.count():
        u = (u + GOLDEN) % 1.0
        i = min(int(np.searchsorted(cdf, u, side="right")), len(users) - 1)
        targets.append((int(users[i]), float(thetas[j % len(thetas)])))
        if len(targets) == TARGETS_PER_SESSION:
            yield Session(tuple(targets))
            targets = []


@dataclass
class Explored:
    candidates: list
    suggested: object
    trees: tuple
    paths: tuple


class Explore(Workload):
    name = "explore"

    def setup(self, seed):
        model = social_model(items=True)
        index = keyword_suggest.build_influencer_index_local(
            model.graph, R=INDEX_R, seed=INDEX_SEED
        )
        return {"model": model, "index": index}

    def stream(self, st, seed):
        return explore_sessions(st["model"].items, seed)

    def run(self, st, s):
        model, out = st["model"], []
        for user, theta in s.targets:
            cands = user_keywords(model.items, user, max_candidates=CANDIDATES)
            r = keyword_suggest.suggest_keywords(
                model, user, SUGGEST_K, method="index", index=st["index"], candidates=cands
            )
            p = model.edge_probs(r.gamma)
            trees = (mia.mioa(model.graph, p, user, theta), mia.miia(model.graph, p, user, theta))
            out.append(Explored(cands, r, trees, tuple(mia.extract_paths(t, user) for t in trees)))
        return out

    def check(self, st, s, out):
        bad = []
        for (user, theta), x in zip(s.targets, out):
            kw = x.suggested.keywords
            if not set(kw) <= set(x.candidates) or len(kw) != min(SUGGEST_K, len(x.candidates)):
                bad.append(f"user {user}: keywords {kw} not from {x.candidates}")
            for tree, rows in zip(x.trees, x.paths):
                if tree.get(user) != (1.0, -1):
                    bad.append(f"user {user}: root entry {tree.get(user)}")
                if min(p for p, _ in tree.values()) < theta * (1 - 1e-9):
                    bad.append(f"user {user}: tree prob below θ={theta}")
                if len(rows) != len(tree) or set(rows["node"]) != set(tree):
                    bad.append(f"user {user}: {len(rows)} path rows for {len(tree)} tree nodes")
        return bad

    def keep(self, out):
        return [x.suggested for x in out]

    def same(self, a, b):
        return [r.keywords for r in a] == [r.keywords for r in b]

    def mix(self, done):
        targets = [t for d in done for t in d.inp.targets]
        n = len(targets)
        return {
            "sessions": len(done),
            "targets": n,
            "distinct_targets": len({u for u, _ in targets}),
            "theta_mix": {t: sum(th == t for _, th in targets) / n for t in PATH_THETAS},
        }

    def layers(self, st, done, spans):
        outs = [d.traced_out for d in done]
        index = st["index"]
        users = [s.note for s in spans if s.name == "index.estimate"]
        reach = {u: sum(u in x.nodes for x in index.samples) / index.R for u in set(users)}
        return {
            "suggest.estimates": float(np.mean([sum(r.n_estimates for r in o) for o in outs])),
            "index.samples_scanned_frac": float(np.mean([reach[u] for u in users])),
            "index.stored_edges": float(sum(len(x.eids) for x in index.samples)),
            "suggest_spread_mean": float(np.mean([r.est_spread for o in outs for r in o])),
        }


# ---------------------------------------------------------------- offline
def spark_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        gateway.shutdown()
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def spark_counts(sc, group: str) -> tuple:
    """(jobs, stages run, tasks completed) of one job group, read from the
    status tracker after the build returns."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = tasks = 0
    for j in jobs:
        info = tracker.getJobInfo(j)
        for sid in info.stageIds if info else ():
            st = tracker.getStageInfo(sid)
            if st is not None and st.numCompletedTasks > 0:
                stages += 1
                tasks += st.numCompletedTasks
    return len(jobs), stages, tasks


class Offline(Workload):
    name = "offline"
    ops_per_request = 3  # each refresh is three checked builds

    def __init__(self):
        self.spark = None

    def setup(self, seed):
        model = social_model()
        em_net = sd.social_network(sf=EM_SF, Z=EM_Z, seed=DATA_SEED)
        log = sd.action_log(em_net, sf=EM_ITEMS, seed=DATA_SEED + 4)
        if self.spark is not None:
            self.spark.stop()
        self.spark = spark_session()
        self._warm_up(self.spark)
        return {"graph": model.graph, "log": log, "spark": self.spark}

    @staticmethod
    def _warm_up(spark):
        """Run each build once on tiny inputs: JVM classes, Python workers
        and Arrow paths are loaded before anything is timed."""
        net = sd.social_network(sf=0.01, Z=2, seed=DATA_SEED)
        g = TopicAwareInfluenceModel.from_network(net).graph
        bounds.precompute_spark(spark, g, theta=THETA, max_iter=1)
        keyword_suggest.build_influencer_index_spark(spark, g, R=8, seed=0)
        log = sd.action_log(net, sf=0.0005, seed=0)
        em.em_fit_spark(spark, log.items_df(spark), log.trials_df(spark),
                        Z=2, n_iter=1, seed=0)

    def stream(self, st, seed):
        while True:
            yield seed

    @staticmethod
    def _build(st, key, fn):
        """Run one build; while traced, count its Spark jobs from outside."""
        sc = st["spark"].sparkContext
        traced = st["rec"] is not None and st["rec"].active
        group = f"perfbench-{key}"
        if traced:
            sc.setJobGroup(group, key)
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if not traced:
            return out, dt, None
        sc.setLocalProperty("spark.jobGroup.id", None)
        return out, dt, spark_counts(sc, group)

    def run(self, st, seed):
        spark, graph, log = st["spark"], st["graph"], st["log"]
        builds = {
            "precompute": lambda: bounds.precompute_spark(spark, graph, theta=THETA),
            "index": lambda: keyword_suggest.build_influencer_index_spark(
                spark, graph, R=INDEX_R, seed=INDEX_SEED),
            "em": lambda: em.em_fit_spark(
                spark, log.items_df(spark), log.trials_df(spark),
                Z=EM_Z, n_iter=EM_ITERS, seed=seed),
        }
        out = {"seconds": {}, "spark": {}}
        for key, fn in builds.items():
            out[key], out["seconds"][key], out["spark"][key] = self._build(st, key, fn)
        return out

    def check(self, st, inp, out):
        if "ref" not in st:
            st["ref"] = (
                bounds.precompute_local(st["graph"], theta=THETA),
                keyword_suggest.build_influencer_index_local(
                    st["graph"], R=INDEX_R, seed=INDEX_SEED),
            )
        ref_pre, ref_idx = st["ref"]
        bad = []
        pre, index, ll = out["precompute"], out["index"], np.asarray(out["em"].loglik)
        gap = np.abs(pre.sigma_max - ref_pre.sigma_max)
        if (gap > 1e-9 * np.maximum(1.0, ref_pre.sigma_max)).any() or not (
            np.array_equal(pre.tree_size, ref_pre.tree_size)
        ):
            bad.append("σ_max differs from precompute_local")
        if len(index.samples) != len(ref_idx.samples) or any(
            a.root != b.root or not np.array_equal(np.sort(a.eids), np.sort(b.eids))
            for a, b in zip(index.samples, ref_idx.samples)
        ):
            bad.append("influencer index differs from the local build")
        if len(ll) != EM_ITERS or (np.diff(ll) < -1e-6).any():
            bad.append(f"EM loglik not non-decreasing: {ll.tolist()}")
        return bad

    def keep(self, out):
        return {
            "seconds": out["seconds"], "spark": out["spark"],
            "loglik": list(out["em"].loglik),
            "stored_edges": sum(len(x.eids) for x in out["index"].samples),
        }

    def same(self, a, b):
        return a["loglik"] == b["loglik"] and a["stored_edges"] == b["stored_edges"]

    def mix(self, done):
        return {"refreshes": len(done), "index_R": INDEX_R, "em_iters": EM_ITERS,
                "builds_s": [d.out["seconds"] for d in done if d.out is not None]}

    def layers(self, st, done, spans):
        outs = [d.traced_out for d in done]
        med = lambda key: statistics.median(o["seconds"][key] for o in outs)  # noqa: E731
        m = {
            "precompute_s": med("precompute"),
            "influencer_index_s": med("index"),
            "em_s": med("em"),
            "em.iter_s": med("em") / EM_ITERS,
            "index.stored_edges": float(outs[-1]["stored_edges"]),
            "em_loglik": float(outs[-1]["loglik"][-1]),
        }
        for key in ("precompute", "index", "em"):
            for c, v in zip(("jobs", "stages", "tasks"),
                            np.mean([o["spark"][key] for o in outs], axis=0)):
                m[f"spark.{key}.{c}"] = float(v)
        return m

    def close(self):
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


WORKLOADS = {w.name: w for w in (Kwim, Explore, Offline)}
