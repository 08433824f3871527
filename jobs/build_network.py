"""Build the synthetic social network + action log and materialize the
social-graph DataFrames (the data-ingestion stage of OCTOPUS).

spark-submit jobs/build_network.py --sf 0.1 --out /tmp/octopus_data
"""
import sys

from pyspark.sql import SparkSession

from repro import synth_data as sd
from repro.graphlib.builder import degree_stats, graph_from_trials


def run(spark: SparkSession, *, sf: float = 0.1, sf_items: float = 0.02,
        Z: int = 8, seed: int = 7, out: str | None = None):
    """Generate data, derive the graph from the trial log, return
    (edges_df, derived_graph_df, degree_stats_df); write parquet if
    ``out`` is given."""
    net = sd.social_network(sf=sf, Z=Z, seed=seed)
    log = sd.action_log(net, sf=sf_items, seed=seed + 4)
    edges = net.edges_df(spark)
    trials = log.trials_df(spark)
    derived = graph_from_trials(trials)
    stats = degree_stats(edges)
    if out:
        edges.write.mode("overwrite").parquet(f"{out}/edges")
        log.items_df(spark).write.mode("overwrite").parquet(f"{out}/items")
        trials.write.mode("overwrite").parquet(f"{out}/trials")
        derived.write.mode("overwrite").parquet(f"{out}/derived_graph")
    return edges, derived, stats


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    from _session import get_session, std_parser

    p = std_parser(__doc__)
    p.add_argument("--sf-items", type=float, default=0.02, help="action-log scale factor")
    p.add_argument("--out", default=None)
    a = p.parse_args()
    s = get_session("octopus-build-network")
    edges, derived, stats = run(
        s, sf=a.sf, sf_items=a.sf_items, Z=a.Z, seed=a.seed, out=a.out
    )
    print(f"edges={edges.count()} derived_edges={derived.count()}")
    stats.show(20)
    s.stop()
