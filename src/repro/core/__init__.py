"""Dupin's core: density metrics, peeling schedules, and the two engines.

See DESIGN.md §2 — the paper's contribution is the *schedule* (which
vertices peel each round); one peeling driver (``peeling``) executes every
schedule for every metric over two backends, Spark DataFrame jobs and a
NumPy reference.
"""
from repro.core.api import Dupin
from repro.core.graph import LocalGraph, from_edges
from repro.core.local_engine import PeelResult, peel_local
from repro.core.metrics import DG, DW, FD, TDS, by_name, custom_metric, kclids
from repro.core.schedules import (
    Schedule,
    alenex,
    bucket,
    dupin,
    gpo,
    lpo,
    sequential,
)
from repro.core.spark_engine import peel_spark

__all__ = [
    "Dupin",
    "LocalGraph",
    "from_edges",
    "PeelResult",
    "peel_local",
    "peel_spark",
    "DG",
    "DW",
    "FD",
    "TDS",
    "by_name",
    "custom_metric",
    "kclids",
    "Schedule",
    "sequential",
    "dupin",
    "gpo",
    "lpo",
    "bucket",
    "alenex",
]
