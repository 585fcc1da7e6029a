"""Memory-resident backend of the peeling driver (NumPy/CSR).

This is the reproduction's analogue of the authors' C++ implementation:
all five metrics × all schedules run here, emitting work/span logs for the
machine simulator. The round loop is ``core.peeling.peel``, shared with
the Spark engine; this module supplies its backend operations over NumPy
arrays, so both engines take identical peeling decisions.

Peeled vertices sit at ``w = +inf``, so every selection (minimum weight,
threshold batch, argmin) is one vectorised pass over ``w``.
"""
from __future__ import annotations

import numpy as np

from repro.core.graph import LocalGraph
from repro.core.metrics import CliqueWeights, EdgeWeights, Metric
from repro.core.peeling import TOL, PeelResult, peel
from repro.core.schedules import Schedule


def _segments(ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions ``ptr[i]:ptr[i+1]`` for every ``i`` in ``ids``, in order."""
    starts, lens = ptr[ids], ptr[ids + 1] - ptr[ids]
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


class _ArrayState:
    """Selection over ``w``; subclasses maintain ``w`` and ``f``."""

    w: np.ndarray
    f: float

    def min_weight(self) -> float:
        return float(self.w.min())

    def take(self, upto: float, strict: bool) -> tuple[np.ndarray, np.ndarray]:
        ids = np.flatnonzero(self.w < upto - TOL if strict else self.w <= upto + TOL)
        return ids, self.w[ids]

    def argmin(self) -> int:
        return int(np.argmin(self.w))


class _EdgeState(_ArrayState):
    """Peeling state for DG/DW/FD: w_u = a_u + Σ incident c."""

    def __init__(self, g: LocalGraph, ew: EdgeWeights):
        self.a = ew.a
        self.c = ew.c
        self.indptr, self.nbr, self.eid = g.csr()
        self.w = ew.a.copy()
        np.add.at(self.w, g.src, ew.c)
        np.add.at(self.w, g.dst, ew.c)
        self.f = float(ew.a.sum() + ew.c.sum())

    def remove(self, batch: np.ndarray, stamp: np.ndarray, step: int) -> int:
        """Remove ``batch`` (already stamped with ``step``); returns #updates."""
        self.w[batch] = np.inf
        idx = _segments(self.indptr, batch)
        nbrs = self.nbr[idx]
        cw = self.c[self.eid[idx]]
        alive = stamp[nbrs] == 0
        same = stamp[nbrs] == step
        np.subtract.at(self.w, nbrs[alive], cw[alive])
        # f loses: vertex priors + every edge leaving the subgraph once.
        self.f -= float(self.a[batch].sum())
        self.f -= float(cw[alive].sum()) + 0.5 * float(cw[same].sum())
        return int(idx.size)


class _CliqueState(_ArrayState):
    """Peeling state for TDS/kCLiDS: w_u = #live cliques containing u."""

    def __init__(self, g: LocalGraph, cw: CliqueWeights, k: int):
        self.k = k
        self.cliques = cw.cliques
        C = self.cliques.shape[0]
        self.alive_clique = np.ones(C, dtype=bool)
        self.w = np.zeros(g.n, dtype=np.float64)
        np.add.at(self.w, self.cliques.ravel(), 1.0)
        self.f = float(C)
        # membership CSR: vertex -> clique ids
        flat = self.cliques.ravel()
        cids = np.repeat(np.arange(C, dtype=np.int64), k)
        order = np.argsort(flat, kind="stable")
        self.mem_ptr = np.searchsorted(flat[order], np.arange(g.n + 1))
        self.mem_cid = cids[order]

    def remove(self, batch: np.ndarray, stamp: np.ndarray, step: int) -> int:
        self.w[batch] = np.inf
        cids = np.unique(self.mem_cid[_segments(self.mem_ptr, batch)])
        dead = cids[self.alive_clique[cids]]
        if dead.size:
            self.alive_clique[dead] = False
            self.f -= float(dead.size)
            members = self.cliques[dead].ravel()
            alive = stamp[members] == 0
            np.subtract.at(self.w, members[alive], 1.0)
        return int(dead.size) * self.k


def make_state(graph: LocalGraph, metric: Metric):
    """Fresh peeling state for ``graph`` under ``metric`` (public so
    baselines with non-standard schedules reuse the audited machinery)."""
    weights = metric.build(graph)
    if metric.kind == "edge":
        return _EdgeState(graph, weights)
    return _CliqueState(graph, weights, metric.k)


def peel_local(
    graph: LocalGraph,
    metric: Metric,
    schedule: Schedule,
    collect_round_sets: bool = False,
) -> PeelResult:
    """Run one peeling schedule on one graph with the NumPy backend."""
    return peel(make_state(graph, metric), graph, metric, schedule,
                collect_round_sets)
