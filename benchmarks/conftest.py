"""Benchmark fixtures: one SF≈0.1 workbench (3 000 users, ~48k edges)
with the offline indexes built by the *Spark* jobs, shared across all
table benchmarks. Result tables are written to ``benchmarks/results/``.
"""
from pathlib import Path

import pytest

from repro.experiments import build_workbench

RESULTS = Path(__file__).resolve().parent / "results"

#: Bench-scale parameters (DESIGN.md §6): SF=0.1 network, Z=8, k=10.
BENCH = dict(sf=0.1, Z=8, k=10, theta=0.01, sf_items=0.02, seed=7)


@pytest.fixture(scope="session")
def wb(spark):
    """The shared workbench; offline precompute runs on Spark once."""
    return build_workbench(
        spark, sf=BENCH["sf"], Z=BENCH["Z"],
        theta=BENCH["theta"], sf_items=BENCH["sf_items"], seed=BENCH["seed"],
    )


def write_table(name: str, df, meta: dict | None = None) -> None:
    """Persist a table as markdown + CSV under benchmarks/results/."""
    RESULTS.mkdir(exist_ok=True)
    md = RESULTS / f"{name}.md"
    lines = [f"# {name}", ""]
    if meta:
        lines += [f"- {k}: {v}" for k, v in meta.items()] + [""]
    lines += ["```", df.to_string(index=False), "```"]
    md.write_text("\n".join(lines) + "\n")
    df.to_csv(RESULTS / f"{name}.csv", index=False)
