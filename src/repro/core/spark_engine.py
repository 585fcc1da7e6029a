"""Spark DataFrame backend of the peeling driver.

The paper's parallel peeling (Algorithms 2–4) expressed as incremental
vertex-peeling jobs over partitioned DataFrames — the PySpark-native
rendition of "GraphX vertex-peeling jobs over partitioned edge RDDs"
(GraphX has no Python API; Catalyst DataFrame ops are the supported
dataflow layer). The round loop is ``core.peeling.peel``, shared with the
local engine; this module supplies its backend operations over one
checkpointed alive-vertex table ``(vid, a, w)``:

- the static side is checkpointed once: the edge table ``(src, dst, c)``
  (``src < dst``) for edge metrics, or for TDS/kCLiDS a clique membership
  table ``(cid, vid)`` listed once by the ``cliques_df`` self-join;
- selections (``min_weight``, ``take``, ``argmin``) are narrow scans of the
  alive table; ``take`` returns each selected vertex's weight, so the
  driver counts GPO's long tail without another action;
- ``remove`` is Algorithm 2's update. It broadcasts the batch, joins it
  with the static table to find what the batch takes from each neighbour
  (incident edges' ``c``, or one per killed clique), sums that delta per
  neighbour with a ``groupBy``, left-joins it into the alive table minus
  the batch and checkpoints the result, so lineage stays flat across the
  O(log_{1+ε}|V|) rounds. Killed cliques also leave the membership table.
  One aggregate over the new table refreshes ``f`` and the minimum weight.
  An LPO trim the driver refuses therefore costs a single ``collect``.

Every job is tagged ``dupin:s<step>:<phase>`` (``SparkContext.addJobTag``)
with the peeling step it serves, and the tag is removed when the phase
ends. Sequential schedules are inherently single-vertex-per-step and stay
on the local engine (see DESIGN.md §4). Both engines run the same driver
with the same TOL conventions; ``tests/test_spark_engine.py`` asserts
identical peel sets, counters and WorkLog rounds.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.graph import EDGES, VERTS, LocalGraph
from repro.core.metrics import Metric
from repro.core.peeling import TOL, PeelResult, peel
from repro.core.schedules import Schedule


def edge_weights_df(verts: DataFrame, edges: DataFrame) -> DataFrame:
    """Per-vertex peeling weight ``w = a + Σ incident c`` (edge metrics).

    The engine's initial alive table ``(vid, a, w)``; public so tests can
    oracle-check the aggregation against DuckDB SQL.
    """
    halves = edges.select(F.col("src").alias("vid"), "c").unionAll(
        edges.select(F.col("dst").alias("vid"), "c"))
    inc = halves.groupBy("vid").agg(F.sum("c").alias("wsum"))
    return verts.join(inc, "vid", "left").select(
        "vid", "a", (F.col("a") + F.coalesce(F.col("wsum"), F.lit(0.0))).alias("w"))


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


def _members(cl: DataFrame, k: int, *keep: str) -> DataFrame:
    """One row per (clique, member): the clique's ``keep`` columns + ``vid``."""
    return reduce(DataFrame.unionAll,
                  [cl.select(*keep, F.col(f"v{j}").alias("vid")) for j in range(k)])


def _count_weights(verts: DataFrame, members: DataFrame) -> DataFrame:
    """``(vid, a, w)`` with ``w`` = number of ``members`` rows of ``vid``."""
    counts = members.groupBy("vid").agg(F.count(F.lit(1)).alias("cnt"))
    return verts.join(counts, "vid", "left").select(
        "vid",
        "a",
        F.coalesce(F.col("cnt"), F.lit(0)).cast("double").alias("w"),
    )


def clique_weights_df(verts: DataFrame, edges: DataFrame, k: int) -> DataFrame:
    """Per-vertex live-clique counts; ``w`` = #cliques containing vertex."""
    return _count_weights(verts, _members(cliques_df(edges, k), k))


def _frame(spark: SparkSession, schema: str, **cols: np.ndarray) -> DataFrame:
    """NumPy columns as a DataFrame; the fixed schema also types empty ones."""
    return spark.createDataFrame(pd.DataFrame(cols), schema)


def _checkpoint(df: DataFrame) -> DataFrame:
    return df.localCheckpoint(eager=True)


class _DataFrameState:
    """Backend operations of the peeling driver over Spark DataFrames.

    ``alive`` is the checkpointed table ``(vid, a, w)`` of alive vertices.
    Edge metrics keep the full edge table ``edges`` and never rewrite it;
    clique metrics keep ``members`` ``(cid, vid)``, the live cliques'
    membership. ``f`` and the minimum weight come from one aggregate over
    every new ``alive``.
    """

    def __init__(self, spark: SparkSession, graph: LocalGraph, metric: Metric):
        self.spark, self.metric = spark, metric
        self.sc = spark.sparkContext
        self.step = 0
        with self._phase("init", 0):
            if metric.kind == "edge":
                ew = metric.build(graph)
                verts = _frame(spark, VERTS, vid=np.arange(graph.n), a=ew.a)
                self.edges = _checkpoint(_frame(
                    spark, EDGES, src=graph.src, dst=graph.dst, c=ew.c))
                alive = edge_weights_df(verts, self.edges)
                # updates of a peeled vertex = its incident half-edges
                self.degree = graph.degrees()
            else:
                verts, edges = graph.to_spark(spark)
                # monotonically_increasing_id is not stable across
                # recomputation: materialise the ids before listing members
                cl = _checkpoint(cliques_df(edges, metric.k)
                                 .withColumn("cid", F.monotonically_increasing_id()))
                self.members = _checkpoint(_members(cl, metric.k, "cid"))
                alive = _count_weights(verts, self.members)
            self._commit(alive)

    @contextmanager
    def _phase(self, name: str, step: int | None = None):
        """Tag the jobs of one phase with the peeling step they serve."""
        tag = f"dupin:s{self.step + 1 if step is None else step}:{name}"
        self.sc.addJobTag(tag)
        try:
            yield
        finally:
            self.sc.removeJobTag(tag)

    def _commit(self, alive: DataFrame) -> None:
        """Checkpoint the new alive table; the checkpoint job also observes
        the aggregate that refreshes ``f`` and the minimum weight."""
        stats = Observation()
        self.alive = _checkpoint(alive.observe(
            stats, F.sum("a").alias("sa"), F.sum("w").alias("sw"),
            F.min("w").alias("mw")))
        got = stats.get
        sa, sw, mw = got["sa"], got["sw"], got["mw"]
        if self.metric.kind == "edge":
            # Σ_alive w = Σ_alive a + 2·Σ_internal c
            self.f = (float(sa or 0.0) + float(sw or 0.0)) / 2.0
        else:
            # each live clique is counted k times across its members' w
            self.f = float(sw or 0.0) / self.metric.k
        self._min_w = float(mw) if mw is not None else float("inf")

    def min_weight(self) -> float:
        return self._min_w

    def take(self, upto: float, strict: bool) -> tuple[np.ndarray, np.ndarray]:
        hit = F.col("w") < upto - TOL if strict else F.col("w") <= upto + TOL
        with self._phase("take"):
            rows = self.alive.filter(hit).select("vid", "w").collect()
        ids = np.array([r[0] for r in rows], dtype=np.int64)
        w = np.array([r[1] for r in rows], dtype=np.float64)
        order = np.argsort(ids)
        return ids[order], w[order]

    def argmin(self) -> int:
        with self._phase("argmin"):
            return int(self.alive.orderBy("w", "vid").first()["vid"])

    def remove(self, ids: np.ndarray, stamp: np.ndarray, step: int) -> int:
        """Peel ``ids``: subtract their delta from the surviving neighbours."""
        with self._phase("remove", step):
            batch = F.broadcast(_frame(self.spark, "vid long", vid=ids))
            if self.metric.kind == "edge":
                e = self.edges
                # the batch's incident half-edges, keyed by the other end;
                # neighbours peeled earlier drop out in the join below
                inc = (
                    e.join(batch, e["src"] == batch["vid"])
                    .select(e["dst"].alias("vid"), e["c"])
                    .unionAll(e.join(batch, e["dst"] == batch["vid"])
                              .select(e["src"].alias("vid"), e["c"]))
                )
                delta = inc.groupBy("vid").agg(F.sum("c").alias("d"))
            else:
                killed = F.broadcast(
                    self.members.join(batch, "vid", "left_semi").select("cid"))
                dead = self.members.join(killed, "cid", "left_semi")
                delta = dead.groupBy("vid").agg(
                    F.count(F.lit(1)).cast("double").alias("d"))
            f_before = self.f
            # at most one delta row per alive vertex: broadcasting it leaves
            # the alive table unshuffled
            self._commit(
                self.alive.join(batch, "vid", "left_anti")
                .join(F.broadcast(delta), "vid", "left")
                .select("vid", "a",
                        (F.col("w") - F.coalesce(F.col("d"), F.lit(0.0))).alias("w"))
            )
            if self.metric.kind == "clique":
                self.members = _checkpoint(
                    self.members.join(killed, "cid", "left_anti"))
        self.step = step
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
