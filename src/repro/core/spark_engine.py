"""Spark DataFrame backend of the peeling driver.

The paper's parallel peeling (Algorithms 2–4) expressed as iterative
vertex-peeling jobs over partitioned edge DataFrames — the PySpark-native
rendition of "GraphX vertex-peeling jobs over partitioned edge RDDs"
(GraphX has no Python API; Catalyst DataFrame ops are the supported
dataflow layer). The round loop is ``core.peeling.peel``, shared with the
local engine; this module supplies its backend operations:

- peeling weights are a ``groupBy`` over the symmetric edge view, or a
  DataFrame self-join clique count for TDS/kCLiDS;
- selections (``min_weight``, ``take``, ``argmin``) are one action each
  over those weights; ``take`` returns each selected vertex's weight, so
  the driver counts GPO's long tail without another action;
- ``remove`` anti-joins the peeled ids out of the vertex and edge tables,
  ``localCheckpoint``s both so lineage stays flat across the
  O(log_{1+ε}|V|) rounds, and refreshes ``f`` with one ``agg`` action.
  An LPO trim the driver refuses therefore costs a single ``collect``.

Sequential schedules are inherently single-vertex-per-step and stay on
the local engine (see DESIGN.md §4). Both engines run the same driver with
the same TOL conventions; ``tests/test_spark_engine.py`` asserts identical
peel sets, counters and WorkLog rounds.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.graph import LocalGraph
from repro.core.metrics import Metric
from repro.core.peeling import TOL, PeelResult, peel
from repro.core.schedules import Schedule


def _symmetric(edges: DataFrame) -> DataFrame:
    """Both orientations of the undirected edge table."""
    return edges.select("src", "dst", "c").unionAll(
        edges.select(
            F.col("dst").alias("src"), F.col("src").alias("dst"), "c"
        )
    )


def edge_weights_df(verts: DataFrame, edges: DataFrame) -> DataFrame:
    """Per-vertex peeling weight ``w = a + Σ incident c`` (edge metrics).

    Public so tests can oracle-check the aggregation against DuckDB SQL.
    """
    inc = _symmetric(edges).groupBy("src").agg(F.sum("c").alias("wsum"))
    return (
        verts.join(inc, verts["vid"] == inc["src"], "left")
        .select(
            verts["vid"],
            verts["a"],
            (F.coalesce(F.col("wsum"), F.lit(0.0)) + F.col("a")).alias("w"),
            F.coalesce(F.col("wsum"), F.lit(0.0)).alias("wsum"),
        )
    )


def cliques_df(edges: DataFrame, k: int) -> DataFrame:
    """All k-cliques (columns ``v0 < v1 < ... < v{k-1}``) via self-joins.

    Edges hold ``src < dst``; a clique grows one vertex at a time along
    that order, checking back-edges with one join per earlier member —
    the DataFrame transliteration of ordered clique listing (kCLIST).
    """
    cl = edges.select(F.col("src").alias("v0"), F.col("dst").alias("v1"))
    for j in range(2, k):
        ext = edges.select(
            F.col("src").alias(f"_e{j}"), F.col("dst").alias(f"v{j}")
        )
        cl = cl.join(ext, cl[f"v{j-1}"] == ext[f"_e{j}"]).drop(f"_e{j}")
        for i in range(j - 1):
            back = edges.select(
                F.col("src").alias(f"_b{i}"), F.col("dst").alias(f"_t{i}")
            )
            cl = cl.join(
                back,
                (cl[f"v{i}"] == back[f"_b{i}"])
                & (cl[f"v{j}"] == back[f"_t{i}"]),
            ).drop(f"_b{i}", f"_t{i}")
    return cl


def clique_weights_df(verts: DataFrame, edges: DataFrame, k: int) -> DataFrame:
    """Per-vertex live-clique counts; ``w`` = #cliques containing vertex."""
    cl = cliques_df(edges, k)
    roles = None
    for j in range(k):
        r = cl.select(F.col(f"v{j}").alias("vid"))
        roles = r if roles is None else roles.unionAll(r)
    counts = roles.groupBy("vid").agg(F.count(F.lit(1)).alias("cnt"))
    return verts.join(counts, "vid", "left").select(
        "vid",
        "a",
        F.coalesce(F.col("cnt"), F.lit(0)).cast("double").alias("w"),
    )


class _DataFrameState:
    """Backend operations of the peeling driver over Spark DataFrames.

    The alive subgraph is a checkpointed vertex table ``(vid, a)`` and edge
    table ``(src, dst, c)``; ``wdf`` derives the peeling weights from them
    lazily, and ``f`` is refreshed by one aggregate action per removal.
    """

    def __init__(self, spark: SparkSession, graph: LocalGraph, metric: Metric):
        self.spark, self.metric = spark, metric
        if metric.kind == "edge":
            ew = metric.build(graph)
            verts = spark.createDataFrame(pd.DataFrame(
                {"vid": np.arange(graph.n, dtype=np.int64), "a": ew.a}))
            edges = spark.createDataFrame(pd.DataFrame(
                {"src": graph.src, "dst": graph.dst, "c": ew.c}))
            # updates of a peeled vertex = its incident half-edges
            self.degree = graph.degrees()
        else:
            verts, edges = graph.to_spark(spark)
        self.verts = verts.repartition("vid").localCheckpoint(eager=True)
        self.edges = edges.repartition("src").localCheckpoint(eager=True)
        self._refresh()

    def _refresh(self) -> None:
        """Weights of the alive subgraph, and its ``f`` in one action."""
        if self.metric.kind == "edge":
            self.wdf = edge_weights_df(self.verts, self.edges)
            sa, si = self.wdf.agg(F.sum("a"), F.sum("wsum")).first()
            self.f = float(sa or 0.0) + float(si or 0.0) / 2.0
        else:
            self.wdf = clique_weights_df(self.verts, self.edges, self.metric.k)
            (sw,) = self.wdf.agg(F.sum("w")).first()
            # each live clique is counted k times across its members' w
            self.f = float(sw or 0.0) / self.metric.k

    def min_weight(self) -> float:
        return float(self.wdf.agg(F.min("w")).first()[0])

    def take(self, upto: float, strict: bool) -> tuple[np.ndarray, np.ndarray]:
        hit = F.col("w") < upto - TOL if strict else F.col("w") <= upto + TOL
        rows = self.wdf.filter(hit).select("vid", "w").collect()
        ids = np.array([r[0] for r in rows], dtype=np.int64)
        w = np.array([r[1] for r in rows], dtype=np.float64)
        order = np.argsort(ids)
        return ids[order], w[order]

    def argmin(self) -> int:
        return int(self.wdf.orderBy("w", "vid").first()["vid"])

    def remove(self, ids: np.ndarray, stamp: np.ndarray, step: int) -> int:
        """Anti-join ``ids`` out of both tables and refresh the weights."""
        peeled = self.spark.createDataFrame(pd.DataFrame({"vid": ids}))
        self.verts = self.verts.join(peeled, "vid", "left_anti").localCheckpoint(
            eager=True)
        self.edges = (
            self.edges.join(peeled.withColumnRenamed("vid", "src"), "src", "left_anti")
            .join(peeled.withColumnRenamed("vid", "dst"), "dst", "left_anti")
            .select("src", "dst", "c")
            .localCheckpoint(eager=True)
        )
        f_before = self.f
        self._refresh()
        if self.metric.kind == "edge":
            return int(self.degree[ids].sum())
        return round(self.metric.k * (f_before - self.f))  # k per clique killed


def peel_spark(
    spark: SparkSession,
    graph: LocalGraph,
    metric: Metric,
    schedule: Schedule,
    collect_round_sets: bool = False,
) -> PeelResult:
    """Run a parallel peeling schedule as iterative Spark jobs.

    Returns the same :class:`PeelResult` shape as the local engine, so the
    table harnesses and tests treat backends interchangeably.
    """
    if schedule.mode == "sequential":
        raise ValueError(
            "sequential schedules are span-bound by definition; "
            "run them on the local engine (DESIGN.md §4)"
        )
    return peel(_DataFrameState(spark, graph, metric), graph, metric, schedule,
                collect_round_sets)
