"""T4 — Scenario 3, influential path exploration via MIA."""
import numpy as np
import pytest

from benchmarks.conftest import BENCH, write_table
from repro.core.mia import miia, mioa
from repro.experiments import table4_mia_paths, top_influencers


@pytest.fixture(scope="module")
def root(wb):
    return int(top_influencers(wb, 1)[0])  # the top influencer of topic 0


def _topical_p_eff(wb):
    from repro.experiments import default_queries

    return wb.model.graph.effective_probs(
        wb.model.gamma(default_queries(wb.net)[0])
    )


def test_t4_mioa_query(benchmark, wb, root):
    """Forward tree extraction at θ=0.01 — the interactive operation."""
    p_eff = _topical_p_eff(wb)
    benchmark(lambda: mioa(wb.model.graph, p_eff, root, 0.01))


def test_t4_miia_query(benchmark, wb, root):
    """Reverse tree ('how is this user influenced')."""
    p_eff = _topical_p_eff(wb)
    benchmark(lambda: miia(wb.model.graph, p_eff, root, 0.01))


def test_t4_full_table(benchmark, wb):
    def run():
        return table4_mia_paths(
            wb, thetas=(0.3, 0.1, 0.03, 0.01), n_roots=6,
            mc_region_samples=200,
        )

    t4 = benchmark.pedantic(run, rounds=1, iterations=1)
    write_table("t4_mia_paths", t4, meta=BENCH)
    # MIA must be orders of magnitude faster than the MC region baseline
    assert (t4["mioa_ms"] < t4["mc_region_ms"]).all()
