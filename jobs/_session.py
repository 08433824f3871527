"""Shared spark-submit session builder for the job entrypoints.

Tests never import this — they use the ``spark`` fixture from
``conftest.py``; jobs only build a session when run standalone.
"""
import argparse

from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def std_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--sf", type=float, default=0.1, help="network scale factor")
    p.add_argument("--Z", type=int, default=8, help="number of topics")
    p.add_argument("--seed", type=int, default=7)
    return p
