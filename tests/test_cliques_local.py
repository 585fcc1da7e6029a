"""Tests for the local clique-enumeration substrate."""
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cliques.local import count_per_vertex, enumerate_cliques
from repro.core.graph import from_edges


def _complete_graph(n):
    pairs = list(combinations(range(n), 2))
    return from_edges(n, [p[0] for p in pairs], [p[1] for p in pairs])


def _brute_cliques(g, k):
    edges = set(zip(g.src.tolist(), g.dst.tolist()))

    def is_edge(u, v):
        return (min(u, v), max(u, v)) in edges

    out = []
    for comb in combinations(range(g.n), k):
        if all(is_edge(u, v) for u, v in combinations(comb, 2)):
            out.append(frozenset(comb))
    return set(out)


@pytest.mark.parametrize("n,k,expected", [
    (4, 3, 4), (4, 4, 1), (5, 3, 10), (5, 4, 5), (5, 5, 1), (6, 4, 15),
])
def test_complete_graph_clique_counts(n, k, expected):
    g = _complete_graph(n)
    cl = enumerate_cliques(g, k)
    assert cl.shape == (expected, k)


def test_each_clique_listed_once():
    g = _complete_graph(5)
    cl = enumerate_cliques(g, 3)
    keys = {frozenset(row.tolist()) for row in cl}
    assert len(keys) == cl.shape[0]


def test_cycle_has_no_triangles():
    g = from_edges(5, [0, 1, 2, 3, 4], [1, 2, 3, 4, 0])
    assert enumerate_cliques(g, 3).shape[0] == 0


def test_k2_returns_edges():
    g = from_edges(3, [0, 1], [1, 2])
    cl = enumerate_cliques(g, 2)
    assert cl.shape == (2, 2)


def test_k_less_than_2_rejected():
    with pytest.raises(ValueError):
        enumerate_cliques(_complete_graph(3), 1)


def test_count_per_vertex_k4():
    g = _complete_graph(4)
    tri = enumerate_cliques(g, 3)
    counts = count_per_vertex(4, tri)
    # each vertex of K4 is in C(3,2)=3 triangles
    assert counts.tolist() == [3, 3, 3, 3]


def test_count_per_vertex_empty():
    assert count_per_vertex(3, np.empty((0, 3), dtype=np.int64)).tolist() == [0, 0, 0]


def test_enumeration_cached_on_graph():
    g = _complete_graph(4)
    a = enumerate_cliques(g, 3)
    b = enumerate_cliques(g, 3)
    assert a is b  # memoized per graph


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_matches_bruteforce_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    m = int(rng.integers(3, 18))
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    for k in (3, 4):
        got = {frozenset(r.tolist()) for r in enumerate_cliques(g, k)}
        assert got == _brute_cliques(g, k)


def test_two_disjoint_triangles():
    g = from_edges(6, [0, 1, 0, 3, 4, 3], [1, 2, 2, 4, 5, 5])
    tri = enumerate_cliques(g, 3)
    assert {frozenset(r.tolist()) for r in tri} == {
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    }


def test_imports_first_in_a_fresh_interpreter():
    """``repro.core`` imports this module, so it must import on its own
    (``pytest tests/test_cliques_spark.py`` alone imports it first)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.cliques.local"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
