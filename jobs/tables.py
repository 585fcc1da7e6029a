"""spark-submit entrypoint reproducing one of the paper's tables.

Usage: ``spark-submit jobs/tables.py table5`` — runs the harness that
``repro.experiments.tables.TABLES`` registers under that name, prints the
table and writes ``results/table5.md``. See DESIGN.md §6 for the mapping.
"""
from __future__ import annotations

import sys

from pyspark.sql import DataFrame, SparkSession

from repro.experiments.io import write_table
from repro.experiments.tables import TABLES


def rows_to_df(spark: SparkSession, rows: list[dict]) -> DataFrame:
    """List-of-dicts (table harness output) -> Spark DataFrame, with every
    value stringified so mixed TLE/number columns keep one type."""
    cols = list(rows[0].keys()) if rows else ["empty"]
    data = [tuple(str(r.get(c, "")) for c in cols) for r in rows]
    return spark.createDataFrame(data, schema=cols)


def _harness(name: str | None):
    if name not in TABLES:
        raise ValueError(
            f"unknown table {name!r}; valid names: {', '.join(TABLES)}"
        )
    return TABLES[name][0]


def run(spark: SparkSession, name: str) -> DataFrame:
    """Build the rows of table ``name`` as a Spark DataFrame."""
    return rows_to_df(spark, _harness(name)())


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else None
    try:
        harness = _harness(name)
    except ValueError as err:
        sys.exit(f"usage: spark-submit jobs/tables.py <table>: {err}")
    spark = (
        SparkSession.builder.appName(f"repro-{name}")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    try:
        rows = harness()
        print(write_table(name, rows), file=sys.stderr)
        rows_to_df(spark, rows).show(100, truncate=False)
    finally:
        spark.stop()
