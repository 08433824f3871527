"""Job entrypoints: each spark-submit wrapper's run() executes at toy
scale and produces the expected artifacts, and its command line offers
only the flags it passes on."""
import inspect
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"
sys.path.insert(0, str(JOBS))

import build_network  # noqa: E402
import keyword_im as job_keyword_im  # noqa: E402
import learn_model  # noqa: E402
import mia_paths  # noqa: E402
import suggest_keywords as job_suggest  # noqa: E402


TOY = dict(sf=0.002, Z=3, seed=5)

COMMON = {"--sf", "--Z", "--seed"}
FLAGS = {
    "build_network.py": COMMON | {"--sf-items", "--out"},
    "keyword_im.py": COMMON | {"--k", "--theta"},
    "learn_model.py": COMMON | {"--n-iter"},
    "mia_paths.py": COMMON | {"--theta"},
    "suggest_keywords.py": COMMON | {"--k", "--theta", "--index-R"},
}


@pytest.mark.parametrize("job", sorted(FLAGS))
def test_cli_offers_only_the_flags_it_passes_on(job, monkeypatch, capsys):
    """``--help`` lists exactly the flags the job hands to ``run``, each a
    parameter of it: a flag the job would ignore is an error, not a silent
    no-op."""
    monkeypatch.setattr(sys, "argv", [job, "--help"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(JOBS / job), run_name="__main__")
    assert done.value.code == 0
    options = capsys.readouterr().out.split("options:")[1]
    assert set(re.findall(r"--[\w-]+", options)) - {"--help"} == FLAGS[job]
    run = runpy.run_path(str(JOBS / job))["run"]
    assert {f[2:].replace("-", "_") for f in FLAGS[job]} <= set(inspect.signature(run).parameters)


class TestBuildNetwork:
    def test_run_and_parquet(self, spark, tmp_path):
        edges, derived, stats = build_network.run(
            spark, sf=0.002, sf_items=0.001, Z=3, seed=5, out=str(tmp_path)
        )
        assert edges.count() > 0
        assert derived.count() > 0
        back = spark.read.parquet(str(tmp_path / "edges"))
        assert back.count() == edges.count()
        assert {"user_id", "out_degree", "in_degree"} <= set(stats.columns)


class TestKeywordImJob:
    def test_run(self, spark):
        t1, t2, wb = job_keyword_im.run(spark, sf=0.002, Z=3, k=2, theta=0.02, seed=5)
        assert t2["valid"].all()
        assert {"naive-mia", "best-effort"} <= set(t1["method"])
        assert wb.precompute_s > 0


class TestSuggestJob:
    def test_run(self, spark):
        t3, meta, _ = job_suggest.run(
            spark, sf=0.002, Z=3, k=2, theta=0.02, seed=5, index_R=30
        )
        assert "greedy-index" in set(t3["method"])
        assert meta["index_R"] == 30


class TestMiaPathsJob:
    def test_run_and_payload(self, spark):
        t4, payload, _ = mia_paths.run(spark, sf=0.002, Z=3, theta=0.05, seed=5)
        assert len(t4) > 0
        d = json.loads(payload)
        assert {"root", "nodes", "links"} <= set(d)
        ids = {n["id"] for n in d["nodes"]}
        assert d["root"] in ids
        for link in d["links"]:
            assert link["target"] in ids


class TestLearnModelJob:
    def test_run(self, spark):
        t5 = learn_model.run(
            spark, sf=0.004, Z=3, n_iter=2, seed=5, sf_items_list=(0.001,)
        )
        assert len(t5) == 2
        assert t5["loglik"].iloc[1] >= t5["loglik"].iloc[0]
