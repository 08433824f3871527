"""The benchmark's traced run wraps engine functions by module attribute
(``perfbench/workloads.TRACE_TARGETS``). A keyword-IM query and a keyword
suggestion must still call each wrapped name, or that layer's metric would
silently read 0. The one layer that reads 0 by design is ``mia.finish``:
a best-effort answer takes its MIA spread from CELF's state."""
from pathlib import Path

from repro.core import keyword_im, keyword_suggest
from repro.topics.keywords import user_keywords

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_best_effort_im_records_every_traced_layer(model, pre, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Recorder
    from workloads import TRACE_TARGETS

    rec = Recorder(TRACE_TARGETS)
    rec.install()
    try:
        with rec.root("request", 0):
            answer = keyword_im.best_effort_im(model, pre, model.vocab.words[:2], 5)
    finally:
        rec.uninstall()
    names = [s.name for s in rec.spans]
    assert {"mia.tree", "mia.marginal", "celf", "bounds"} <= set(names)
    assert 0 < names.count("mia.tree") <= answer.n_exact_evals  # one per user, cached
    # The answer's MIA spread is CELF's own ap(S, ·) state: finishing folds no tree.
    assert "mia.finish" not in names


def test_suggest_keywords_records_every_index_estimate(model, log, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Recorder
    from workloads import TRACE_TARGETS

    index = keyword_suggest.build_influencer_index_local(model.graph, R=50, seed=0)
    user = int(log.items["author"].value_counts().index[0])
    cands = user_keywords(log.items, user, max_candidates=6)
    rec = Recorder(TRACE_TARGETS)
    rec.install()
    try:
        with rec.root("request", 0):
            r = keyword_suggest.suggest_keywords(
                model, user, 2, method="index", index=index, candidates=cands
            )
    finally:
        rec.uninstall()
    names = [s.name for s in rec.spans]
    assert names.count("suggest") == 1
    assert names.count("index.estimate") == r.n_estimates > 0
