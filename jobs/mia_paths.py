"""Scenario 3 — interactive influential path exploration (Table T4).

Also emits the JSON the d3js front-end would consume for one root.

spark-submit jobs/mia_paths.py --sf 0.1 --theta 0.01
"""
import json
import sys

import numpy as np
from pyspark.sql import SparkSession

from repro.core.mia import extract_paths, mioa
from repro.experiments import build_workbench, table4_mia_paths


def run(spark: SparkSession, *, sf: float = 0.1, Z: int = 8,
        theta: float = 0.01, seed: int = 7):
    """Run the T4 sweep; returns (t4_df, paths_json_str, workbench)."""
    wb = build_workbench(spark, sf=sf, Z=Z, theta=theta, seed=seed)
    t4 = table4_mia_paths(wb)
    root = int(t4["root"].iloc[0])
    from repro.experiments import default_queries

    gamma = wb.model.gamma(default_queries(wb.net)[0])
    tree = mioa(wb.model.graph, wb.model.edge_probs(gamma), root, theta)
    paths = extract_paths(tree, root)
    payload = {
        "root": root,
        "nodes": [
            {"id": int(r.node), "prob": float(r.prob), "depth": int(r.depth),
             "cluster": int(r.cluster)}
            for r in paths.itertuples()
        ],
        "links": [
            {"source": int(r.path[-2]), "target": int(r.node)}
            for r in paths.itertuples() if r.depth > 0
        ],
    }
    return t4, json.dumps(payload), wb


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    from _session import get_session, std_parser

    p = std_parser(__doc__)
    p.add_argument("--theta", type=float, default=0.01, help="MIA path threshold")
    a = p.parse_args()
    s = get_session("octopus-mia-paths")
    t4, payload, _ = run(s, sf=a.sf, Z=a.Z, theta=a.theta, seed=a.seed)
    print("\n== Table T4: influential path exploration ==")
    print(t4.to_string(index=False))
    print(f"\nd3 payload bytes: {len(payload)}")
    s.stop()
