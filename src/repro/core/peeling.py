"""The peeling driver: one round loop for every schedule and both engines.

Algorithm 1 (sequential greedy), Algorithms 2–4 (Dupin, DupinGPO,
DupinLPO) and GBBS-style bucket peeling are one loop that differs only in
which alive vertices a round selects:

- ``threshold``: every ``w_u <= k(1+ε)·g(S)``;
- ``bucket``: every ``w_u`` equal to the minimum weight (one bucket);
- ``sequential``: the argmin alone.

GPO raises that bound to the running ``τ_max = max_i g(S_i)/(k(1+ε))``;
vertices selected only because of it are the long tail. LPO follows every
round with trims of all ``w_u < max(τ_max, g(S))`` until a trim would
remove nothing or everything.

This module is the only one that knows those semantics, together with
stamps, densities, the best prefix and the WorkLog. A backend state
supplies the alive subgraph's ``f`` and four operations:

- ``min_weight()`` — the lowest alive weight;
- ``take(upto, strict)`` — ascending ids of alive vertices with
  ``w <= upto + TOL`` (``w < upto - TOL`` when strict), and their weights;
- ``argmin()`` — the alive vertex with the lowest ``w``, then lowest id;
- ``remove(ids, stamp, step)`` — peel ``ids`` (already stamped ``step``)
  and return the number of weight updates, counted as the local engine
  applies them: incident half-edges (edge metrics) or ``k`` per clique
  killed (clique metrics).

``local_engine`` implements them over NumPy arrays and ``spark_engine``
over DataFrames. Thresholds use ``w <= τ + TOL`` (Algorithms 2/3) and the
LPO trim strict ``w < τ₂ - TOL`` (Algorithm 4), with ``TOL = 1e-9``, so
both backends agree bit-for-bit on the peel sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import LocalGraph
from repro.core.metrics import Metric
from repro.core.schedules import Schedule
from repro.core.worklog import WorkLog

TOL = 1e-9


@dataclass
class PeelResult:
    """Outcome of one peeling run."""

    best_set: np.ndarray  # vertex ids of argmax_{S_i} g(S_i)
    best_density: float
    densities: list[float]  # g after every removal batch, densities[0] = g(V)
    n_rounds: int  # outer peeling rounds (the paper's round counts)
    n_trim_rounds: int  # LPO inner-loop rounds
    long_tail_peeled: int  # vertices peeled only because of τ_max (GPO)
    sparse_trimmed: int  # vertices trimmed by the LPO inner loop
    worklog: WorkLog = field(repr=False)
    peel_stamp: np.ndarray = field(repr=False)  # batch index when removed
    round_sets: list[np.ndarray] | None = field(default=None, repr=False)


def peel(
    state, graph: LocalGraph, metric: Metric, sched: Schedule, collect: bool
) -> PeelResult:
    """Run ``sched`` to the empty set over a fresh backend ``state``.

    WorkLog rounds charge what the modelled system scans: a threshold round
    compares every alive vertex, while bucket and sequential rounds (and
    their LPO trims) charge only the vertices they pop — the GBBS bucket
    cost model, independent of how a backend finds the bucket.
    """
    n, k = graph.n, metric.k
    log = WorkLog(n=n, m=graph.m)
    if metric.kind == "clique":
        # enumeration cost ~ k·|E|·α(G)^(k-2); charge the materialized size
        log.init_work = k * state.f
    threshold = sched.mode == "threshold"
    factor = k * (1.0 + sched.eps)
    stamp = np.zeros(n, dtype=np.int64)
    alive = n
    step = 0
    densities = [state.f / n if n else 0.0]  # the empty graph peels nothing
    best_g, best_step = densities[0], 0
    tau_max = 0.0
    rounds = trim_rounds = long_tail = sparse = 0
    round_sets: list[np.ndarray] | None = [] if collect else None

    def commit(ids: np.ndarray, phase: str) -> None:
        nonlocal alive, step, best_g, best_step
        # Every round removes at least one alive vertex, so the loop ends
        # after at most |V| rounds.
        if not ids.size or stamp[ids].any():
            raise RuntimeError(f"peeling stalled at step {step + 1}")
        step += 1
        stamp[ids] = step
        updates = state.remove(ids, stamp, step)
        seq = phase == "peel" and sched.mode == "sequential"
        log.add(alive if threshold else ids.size, updates, ids.size,
                phase=phase, sequential=seq, bucket=not (threshold or seq))
        alive -= ids.size
        gnew = state.f / alive if alive else 0.0
        densities.append(gnew)
        if alive and gnew > best_g + TOL:
            best_g, best_step = gnew, step

    while alive:
        g = state.f / alive
        if sched.gpo:
            tau_max = max(tau_max, g / factor)
        ids = np.empty(0, dtype=np.int64)
        if sched.mode != "sequential":
            base = factor * g if threshold else state.min_weight()
            ids, w = state.take(max(base, tau_max) if sched.gpo else base,
                                strict=False)
            if sched.gpo:
                long_tail += int((w > base + TOL).sum())
        if not ids.size:  # sequential, or the float safety net
            ids = np.array([state.argmin()], dtype=np.int64)
        rounds += 1
        if round_sets is not None:
            round_sets.append(ids)
        commit(ids, "peel")

        while sched.lpo and alive:
            ids, _ = state.take(max(tau_max, state.f / alive), strict=True)
            if not ids.size or ids.size == alive:
                break
            trim_rounds += 1
            sparse += ids.size
            commit(ids, "trim")

    return PeelResult(
        best_set=np.flatnonzero(stamp > best_step),
        best_density=float(best_g),
        densities=densities,
        n_rounds=rounds,
        n_trim_rounds=trim_rounds,
        long_tail_peeled=long_tail,
        sparse_trimmed=sparse,
        worklog=log,
        peel_stamp=stamp,
        round_sets=round_sets,
    )
