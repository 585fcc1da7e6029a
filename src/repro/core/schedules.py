"""Peeling schedules — *who gets peeled each round*.

Every system the paper compares is, at its core, a schedule over the same
peeling state. Expressing them as data keeps one audited engine (local and
Spark) behind all comparisons:

- ``sequential``  — Algorithm 1: argmin peeling weight, one vertex/round.
- ``dupin(eps)``  — Algorithm 2: peel all ``w_u <= k(1+ε)·g(S)``.
- ``gpo(eps)``    — Algorithm 3: + global threshold ``τ_max``.
- ``lpo(eps)``    — Algorithm 4: + local trim loop (``w_u < g(S)``).
- ``bucket``      — GBBS/PBBS-style: peel the minimum-weight bucket.
- ``alenex(eps)`` — near-optimal parallel peeling: tiny ε (its per-round
  ordering work is charged by baselines.alenex).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Schedule:
    name: str
    mode: str  # "threshold" | "bucket" | "sequential"
    eps: float = 0.0
    gpo: bool = False
    lpo: bool = False


def sequential() -> Schedule:
    return Schedule("sequential", "sequential")


def dupin(eps: float = 0.1) -> Schedule:
    return Schedule("dupin", "threshold", eps=eps)


def gpo(eps: float = 0.1) -> Schedule:
    return Schedule("dupin-gpo", "threshold", eps=eps, gpo=True)


def lpo(eps: float = 0.1) -> Schedule:
    return Schedule("dupin-lpo", "threshold", eps=eps, gpo=True, lpo=True)


def bucket() -> Schedule:
    return Schedule("bucket", "bucket")


def alenex(eps: float = 0.01) -> Schedule:
    return Schedule("alenex", "threshold", eps=eps)


def bucket_gpo(eps: float = 0.1) -> Schedule:
    """Bucket-granularity peeling + the global threshold τ_max (GPO).

    Table 3 counts peeling rounds at bucket granularity (its round counts
    on |V|=52M exceed the Lemma 4.1 bound for threshold rounds by orders
    of magnitude, so the production engine's "iteration" is a min-weight
    bucket). GPO lets a round absorb every bucket below τ_max at once —
    exactly the long-tail pruning the paper describes.
    """
    return Schedule("bucket-gpo", "bucket", eps=eps, gpo=True)


def bucket_lpo(eps: float = 0.1) -> Schedule:
    """Bucket-granularity peeling + GPO + the LPO trim loop."""
    return Schedule("bucket-lpo", "bucket", eps=eps, gpo=True, lpo=True)
