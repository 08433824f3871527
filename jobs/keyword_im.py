"""Scenario 1 — keyword-based influential user discovery (Tables T1/T2).

spark-submit jobs/keyword_im.py --sf 0.1 --k 10
"""
import sys

from pyspark.sql import SparkSession

from repro.experiments import build_workbench, table1_keyword_im, table2_bounds


def run(spark: SparkSession, *, sf: float = 0.1, Z: int = 8, k: int = 10,
        theta: float = 0.01, seed: int = 7):
    """Run the offline precompute on Spark, then the T1 and T2 sweeps.
    Returns (t1_df, t2_df, workbench)."""
    wb = build_workbench(spark, sf=sf, Z=Z, theta=theta, seed=seed)
    return table1_keyword_im(wb, k=k), table2_bounds(wb, k=k), wb


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    from _session import get_session, std_parser

    p = std_parser(__doc__)
    p.add_argument("--k", type=int, default=10, help="seed-set size")
    p.add_argument("--theta", type=float, default=0.01, help="MIA path threshold")
    a = p.parse_args()
    s = get_session("octopus-keyword-im")
    t1, t2, wb = run(s, sf=a.sf, Z=a.Z, k=a.k, theta=a.theta, seed=a.seed)
    print(f"offline: precompute={wb.precompute_s:.1f}s")
    print("\n== Table T1: keyword-based IM ==")
    print(t1.to_string(index=False))
    print("\n== Table T2: bound effectiveness ==")
    print(t2.to_string(index=False))
    s.stop()
