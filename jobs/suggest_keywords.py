"""Scenario 2 — personalized influential keyword suggestion (Table T3).

spark-submit jobs/suggest_keywords.py --sf 0.1 --k 3
"""
import sys

from pyspark.sql import SparkSession

from repro.experiments import build_workbench, table3_suggest


def run(spark: SparkSession, *, sf: float = 0.1, Z: int = 8, k: int = 3,
        theta: float = 0.01, seed: int = 7, index_R: int = 300):
    """Build the influencer index on Spark and run the T3 sweep.
    Returns (t3_df, meta, workbench)."""
    wb = build_workbench(spark, sf=sf, Z=Z, theta=theta, seed=seed)
    t3, meta = table3_suggest(wb, spark, k=k, index_R=index_R, seed=seed)
    return t3, meta, wb


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    from _session import get_session, std_parser

    p = std_parser(__doc__)
    p.add_argument("--k", type=int, default=5, help="keyword-set size (at most 5)")
    p.add_argument("--theta", type=float, default=0.01, help="MIA path threshold")
    p.add_argument("--index-R", type=int, default=300)
    a = p.parse_args()
    s = get_session("octopus-suggest")
    t3, meta, _ = run(s, sf=a.sf, Z=a.Z, k=min(a.k, 5), theta=a.theta,
                      seed=a.seed, index_R=a.index_R)
    print(f"offline influencer index: {meta}")
    print("\n== Table T3: influential keyword suggestion ==")
    print(t3.to_string(index=False))
    s.stop()
