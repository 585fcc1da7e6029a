"""Work/span pricing and paper-scale extrapolation.

A :class:`WorkLog` reduces to five aggregates:

- ``init_par`` / ``init_seq``: setup work (clique enumeration etc.)
- ``par_work``: total work in parallel rounds
- ``seq_work``: total span-bound work (sequential rounds / segments)
- ``n_par_rounds``: number of parallel rounds (each pays a barrier)

Under a profile ``(threads P, par_rate, seq_rate, sync)``::

    t = init_par/(P·par_rate) + init_seq/seq_rate
      + par_work/(P·par_rate) + seq_work/seq_rate + n_par_rounds·sync

Calibration: the two free rates and the barrier cost were fit once so
that Dupin-DG on the soc analogue extrapolates to the paper's order of
magnitude (EXPERIMENTS.md §calibration); every other number then follows
from the logged schedules. The EPYC profile encodes the paper's Table 10
observation that parallel work scales with the newer part's bandwidth
(~2.2×) while span-bound work barely improves (~1.12×).

Extrapolation from a synthetic graph (n, m) to a paper graph (N, M):
round work scales with M/m; round *count* scales with ``log N / log n``
for threshold schedules (Lemma 4.1), with ``N/n`` for bucket/sequential
schedules (one bucket ≈ one distinct weight), except unweighted-DG
buckets which grow ~``√(N/n)`` (integer-degree buckets); clique setup
scales superlinearly (``(M/m)^1.25`` for k=3, ``^1.3`` for k≥4) per the
``O(k|E|α(G)^{k-2})`` listing bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.worklog import WorkLog

TIME_LIMIT_S = 7_200.0  # the paper's TLE cutoff


@dataclass(frozen=True)
class MachineProfile:
    name: str
    threads: int
    par_rate: float  # parallel ops/sec/thread
    seq_rate: float  # span-bound ops/sec
    sync_s: float  # per-round full barrier (threshold schedules)
    bucket_sync_s: float  # per-bucket pop (shared-memory bucket structure)


X5650 = MachineProfile("X5650", threads=128, par_rate=4.0e6, seq_rate=2.5e7,
                       sync_s=8.0e-6, bucket_sync_s=6.0e-7)
EPYC_7742 = MachineProfile("EPYC7742", threads=128, par_rate=8.8e6,
                           seq_rate=2.8e7, sync_s=4.0e-6,
                           bucket_sync_s=3.5e-7)


@dataclass
class LogAggregates:
    init_par: float
    init_seq: float
    par_work: float
    seq_work: float
    n_par_rounds: float  # full-barrier rounds (threshold schedules)
    n_bucket_rounds: float = 0.0  # bucket pops (cheap shared-memory sync)


def aggregates(log: WorkLog) -> LogAggregates:
    """Reduce a WorkLog to the billable quantities."""
    par_work = float(sum(r.work for r in log.rounds if not r.sequential))
    seq_work = float(sum(r.work for r in log.rounds if r.sequential))
    n_par = float(
        sum(1 for r in log.rounds if not r.sequential and not r.bucket)
    )
    n_bucket = float(
        sum(1 for r in log.rounds if not r.sequential and r.bucket)
    )
    return LogAggregates(
        init_par=float(log.init_work),
        init_seq=float(log.init_sequential),
        par_work=par_work,
        seq_work=seq_work,
        n_par_rounds=n_par,
        n_bucket_rounds=n_bucket,
    )


def simulate(log: WorkLog | LogAggregates, profile: MachineProfile) -> float:
    """Seconds to execute ``log`` on ``profile``."""
    ag = log if isinstance(log, LogAggregates) else aggregates(log)
    par_cap = profile.threads * profile.par_rate
    return (
        ag.init_par / par_cap
        + ag.init_seq / profile.seq_rate
        + ag.par_work / par_cap
        + ag.seq_work / profile.seq_rate
        + ag.n_par_rounds * profile.sync_s
        + ag.n_bucket_rounds * profile.bucket_sync_s
    )


def extrapolate(
    log: WorkLog,
    *,
    synth_v: int,
    synth_e: int,
    paper_v: int,
    paper_e: int,
    round_growth: str = "log",  # "log" | "linear" | "sqrt"
    clique_k: int | None = None,
) -> LogAggregates:
    """Scale a synthetic-scale log to paper-scale aggregates.

    ``round_growth`` chooses how the number of parallel rounds grows with
    |V| (see module docstring); work per-round and sequential spans grow
    with |E|.
    """
    e_ratio = paper_e / max(synth_e, 1)
    v_ratio = paper_v / max(synth_v, 1)
    if round_growth == "log":
        r_ratio = np.log(max(paper_v, 3)) / np.log(max(synth_v, 3))
    elif round_growth == "linear":
        r_ratio = v_ratio
    elif round_growth == "sqrt":
        r_ratio = float(np.sqrt(v_ratio))
    else:
        raise ValueError(round_growth)
    work_exp = clique_exponent(clique_k)
    ag = aggregates(log)
    return LogAggregates(
        init_par=ag.init_par * e_ratio**work_exp,
        init_seq=ag.init_seq * e_ratio**work_exp,
        par_work=ag.par_work * e_ratio**work_exp,
        seq_work=ag.seq_work * e_ratio**work_exp,
        n_par_rounds=ag.n_par_rounds * r_ratio,
        n_bucket_rounds=ag.n_bucket_rounds * r_ratio,
    )


def clique_exponent(clique_k: int | None) -> float:
    """How clique-metric work scales with the edge ratio.

    Per the paper's complexity ``O(k·|E|·α(G)^{k-2})``, clique peeling
    work is superlinear in |E| (arboricity grows with scale): exponent
    1.25 for triangles, 1.3 for k ≥ 4. Edge metrics scale linearly.
    """
    if clique_k is None:
        return 1.0
    return 1.25 if clique_k == 3 else 1.3
