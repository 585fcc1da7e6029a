"""Spark engine ≡ local engine, peel-for-peel, plus DuckDB oracle checks
on the engine's internal aggregations."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.core import DG, DW, FD, TDS, from_edges, kclids, peel_local, peel_spark
from repro.core.schedules import (
    bucket, bucket_gpo, bucket_lpo, dupin, gpo, lpo, sequential,
)
from repro.core.spark_engine import _DataFrameState, cliques_df, edge_weights_df
from repro.oracle import assert_equivalent


def _graph(seed, n=36, m=110):
    rng = np.random.default_rng(seed)
    return from_edges(
        n, rng.integers(0, n, m), rng.integers(0, n, m),
        rng.random(m) * 3 + 0.1, vertex_weight=rng.random(n) * 0.3,
    )


def _clique_path():
    """An 8-clique with a 21-vertex path of 0.1-weight edges hanging off it:
    GPO's τ_max pulls the whole light path into one bucket round."""
    pairs = list(itertools.combinations(range(8), 2)) + [
        (i, i + 1) for i in range(7, 28)
    ]
    src, dst = zip(*pairs)
    return from_edges(29, src, dst, [1.0] * 28 + [0.1] * 21)


def _assert_same(rl, rs):
    assert rs.best_density == pytest.approx(rl.best_density, abs=1e-7)
    assert np.array_equal(np.sort(rl.best_set), np.sort(rs.best_set))
    assert rl.n_rounds == rs.n_rounds
    assert rl.n_trim_rounds == rs.n_trim_rounds
    assert rl.long_tail_peeled == rs.long_tail_peeled
    assert rl.sparse_trimmed == rs.sparse_trimmed
    assert [vars(r) for r in rl.worklog.rounds] == [
        vars(r) for r in rs.worklog.rounds
    ]
    assert len(rl.round_sets) == len(rs.round_sets)
    for a, b in zip(rl.round_sets, rs.round_sets):
        assert np.array_equal(np.sort(a), b)


@pytest.mark.parametrize("metric", [DW, DG, FD], ids=lambda m: m.name)
def test_spark_matches_local_dupin(spark, metric):
    g = _graph(1)
    rl = peel_local(g, metric, dupin(0.1), collect_round_sets=True)
    rs = peel_spark(spark, g, metric, dupin(0.1), collect_round_sets=True)
    _assert_same(rl, rs)


@pytest.mark.parametrize("sched_name,sched", [
    ("gpo", gpo(0.1)), ("lpo", lpo(0.1)), ("bucket", bucket()),
    ("bucket_gpo", bucket_gpo(0.1)), ("bucket_lpo", bucket_lpo(0.1)),
])
def test_spark_matches_local_schedules(spark, sched_name, sched):
    for g in (_graph(2, n=24, m=70), _clique_path()):
        rl = peel_local(g, DW, sched, collect_round_sets=True)
        rs = peel_spark(spark, g, DW, sched, collect_round_sets=True)
        _assert_same(rl, rs)


def test_spark_matches_local_tds(spark):
    g = _graph(3, n=26, m=90)
    for sched in (dupin(0.1), gpo(0.1), lpo(0.1)):
        rl = peel_local(g, TDS, sched, collect_round_sets=True)
        rs = peel_spark(spark, g, TDS, sched, collect_round_sets=True)
        _assert_same(rl, rs)


def test_spark_matches_local_kclids4(spark):
    g = _graph(4, n=20, m=70)
    for sched in (dupin(0.1), gpo(0.1), lpo(0.1)):
        rl = peel_local(g, kclids(4), sched, collect_round_sets=True)
        rs = peel_spark(spark, g, kclids(4), sched, collect_round_sets=True)
        _assert_same(rl, rs)


def test_spark_rejects_sequential(spark):
    g = _graph(5, n=8, m=12)
    with pytest.raises(ValueError, match="sequential"):
        peel_spark(spark, g, DG, sequential())


def test_spark_densities_match_local(spark):
    g = _graph(6, n=20, m=60)
    rl = peel_local(g, DW, dupin(0.1))
    rs = peel_spark(spark, g, DW, dupin(0.1))
    assert len(rl.densities) == len(rs.densities)
    for a, b in zip(rl.densities, rs.densities):
        assert b == pytest.approx(a, abs=1e-7)


# ---- oracle checks on the engine's internal aggregations ----------------

def test_edge_weights_df_oracle(spark):
    """The per-vertex weight aggregation equals the equivalent SQL."""
    g = _graph(7, n=18, m=50)
    ew = DW.build(g)
    verts = pd.DataFrame({"vid": np.arange(g.n), "a": ew.a})
    edges = pd.DataFrame({"src": g.src, "dst": g.dst, "c": ew.c})
    sdf = edge_weights_df(
        spark.createDataFrame(verts), spark.createDataFrame(edges)
    ).select("vid", "w")
    assert_equivalent(
        sdf,
        """
        SELECT v.vid AS vid,
               v.a + COALESCE(s.wsum, 0.0) AS w
        FROM verts v
        LEFT JOIN (
            SELECT src AS vid, SUM(c) AS wsum FROM (
                SELECT src, c FROM edges
                UNION ALL
                SELECT dst AS src, c FROM edges
            ) GROUP BY src
        ) s ON v.vid = s.vid
        """,
        verts=verts,
        edges=edges,
    )


def test_triangle_count_oracle(spark):
    """DataFrame triangle listing equals the DuckDB three-way join."""
    g = _graph(8, n=16, m=45)
    edges = pd.DataFrame({"src": g.src, "dst": g.dst, "c": g.edge_weight})
    tri = cliques_df(
        spark.createDataFrame(edges), 3
    ).groupBy().count().withColumnRenamed("count", "n_tri")
    assert_equivalent(
        tri,
        """
        SELECT COUNT(*) AS n_tri
        FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
        JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst
        """,
        edges=edges,
    )


def test_spark_f_matches_local_f(spark):
    """f(V) computed by the Spark stats aggregation equals the local f."""
    g = _graph(9, n=20, m=55)
    rl = peel_local(g, FD, dupin(0.1))
    rs = peel_spark(spark, g, FD, dupin(0.1))
    assert rs.densities[0] == pytest.approx(rl.densities[0], abs=1e-9)


# ---- oracle checks on the incremental state -------------------------------

def _drive(spark, g, metric, batches, check):
    """Remove ``batches`` (then every survivor) from a fresh state, calling
    ``check(state, peeled)`` before the first removal and after each."""
    state = _DataFrameState(spark, g, metric)
    stamp = np.zeros(g.n, dtype=np.int64)
    check(state, np.empty(0, dtype=np.int64))
    rest = np.setdiff1d(np.arange(g.n), np.concatenate(batches))
    for step, ids in enumerate([*batches, rest], start=1):
        ids = np.asarray(ids, dtype=np.int64)
        stamp[ids] = step
        state.remove(ids, stamp, step)
        check(state, np.flatnonzero(stamp))


_BATCHES = [[0, 5, 7], [1, 2, 3, 4], [11], [8, 9, 12, 13, 14, 20]]


def test_incremental_edge_state_oracle(spark):
    """After every batch, the alive table's ``w`` is ``a + Σ c`` over the
    alive induced subgraph and ``f`` is that subgraph's ``f``."""
    g = _graph(10, n=24, m=80)
    ew = DW.build(g)
    verts = pd.DataFrame({"vid": np.arange(g.n), "a": ew.a})
    edges = pd.DataFrame({"src": g.src, "dst": g.dst, "c": ew.c})
    alive_sql = """
        WITH alive AS (
            SELECT vid, a FROM verts
            WHERE vid NOT IN (SELECT vid FROM peeled)
        ), e AS (
            SELECT src, dst, c FROM edges
            WHERE src IN (SELECT vid FROM alive)
              AND dst IN (SELECT vid FROM alive)
        )
    """

    def check(state, peeled):
        peeled = pd.DataFrame({"vid": peeled})
        assert_equivalent(
            state.alive.select("vid", "w"),
            alive_sql + """
            SELECT v.vid AS vid, v.a + COALESCE(s.wsum, 0.0) AS w
            FROM alive v LEFT JOIN (
                SELECT vid, SUM(c) AS wsum FROM (
                    SELECT src AS vid, c FROM e
                    UNION ALL SELECT dst AS vid, c FROM e
                ) GROUP BY vid
            ) s ON v.vid = s.vid
            """,
            verts=verts, edges=edges, peeled=peeled,
        )
        assert_equivalent(
            spark.createDataFrame([(state.f,)], "f double"),
            alive_sql + """
            SELECT COALESCE((SELECT SUM(a) FROM alive), 0.0)
                 + COALESCE((SELECT SUM(c) FROM e), 0.0) AS f
            """,
            verts=verts, edges=edges, peeled=peeled,
        )

    _drive(spark, g, DW, _BATCHES, check)


def test_incremental_tds_state_oracle(spark):
    """After every batch, ``w`` counts each alive vertex's live triangles
    and ``f`` counts the live triangles."""
    g = _graph(11, n=22, m=90)
    verts = pd.DataFrame({"vid": np.arange(g.n)})
    edges = pd.DataFrame({"src": g.src, "dst": g.dst})
    live_sql = """
        WITH alive AS (
            SELECT vid FROM verts WHERE vid NOT IN (SELECT vid FROM peeled)
        ), tri AS (
            SELECT e1.src AS v0, e1.dst AS v1, e2.dst AS v2
            FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
            JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst
            WHERE e1.src IN (SELECT vid FROM alive)
              AND e1.dst IN (SELECT vid FROM alive)
              AND e2.dst IN (SELECT vid FROM alive)
        )
    """

    def check(state, peeled):
        peeled = pd.DataFrame({"vid": peeled})
        assert_equivalent(
            state.alive.select("vid", "w"),
            live_sql + """
            SELECT v.vid AS vid, CAST(COALESCE(r.cnt, 0) AS DOUBLE) AS w
            FROM alive v LEFT JOIN (
                SELECT vid, COUNT(*) AS cnt FROM (
                    SELECT v0 AS vid FROM tri
                    UNION ALL SELECT v1 FROM tri
                    UNION ALL SELECT v2 FROM tri
                ) GROUP BY vid
            ) r ON v.vid = r.vid
            """,
            verts=verts, edges=edges, peeled=peeled,
        )
        assert_equivalent(
            spark.createDataFrame([(state.f,)], "f double"),
            live_sql + "SELECT CAST(COUNT(*) AS DOUBLE) AS f FROM tri",
            verts=verts, edges=edges, peeled=peeled,
        )

    _drive(spark, g, TDS, _BATCHES, check)


def test_spark_jobs_tagged_by_step_and_cleared(spark):
    """Each phase tags its jobs with the step it serves; peel_spark leaves
    no tag of its own behind, and keeps the caller's."""
    sc = spark.sparkContext
    state = _DataFrameState(spark, _graph(12, n=10, m=20), DW)
    with state._phase("take"):
        assert set(sc.getJobTags()) == {"dupin:s1:take"}
    with state._phase("remove", 3):
        assert set(sc.getJobTags()) == {"dupin:s3:remove"}
    assert set(sc.getJobTags()) == set()
    sc.addJobTag("caller")
    try:
        peel_spark(spark, _graph(12, n=10, m=20), TDS, lpo(0.1))
        assert set(sc.getJobTags()) == {"caller"}
    finally:
        sc.removeJobTag("caller")
    peel_spark(spark, _graph(12, n=10, m=20), DW, lpo(0.1))
    assert set(sc.getJobTags()) == set()
