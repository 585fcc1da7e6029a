"""Tests for the schedule descriptors."""
import numpy as np
import pytest

from repro.baselines import alenex_run
from repro.core import DG, from_edges, peel_local
from repro.core.schedules import (
    Schedule,
    alenex,
    bucket,
    bucket_gpo,
    bucket_lpo,
    dupin,
    gpo,
    lpo,
    sequential,
)


def test_sequential_descriptor():
    s = sequential()
    assert s.mode == "sequential" and not s.gpo and not s.lpo


def test_dupin_eps_flows_through():
    assert dupin(0.25).eps == 0.25
    assert dupin().eps == 0.1


def test_gpo_implies_global_threshold_only():
    s = gpo(0.2)
    assert s.gpo and not s.lpo and s.mode == "threshold"


def test_lpo_implies_gpo():
    """Algorithm 4 includes the τ_max refinement of Algorithm 3."""
    s = lpo()
    assert s.gpo and s.lpo


def test_bucket_variants():
    assert bucket().mode == "bucket" and not bucket().gpo
    assert bucket_gpo().gpo and not bucket_gpo().lpo
    assert bucket_lpo().gpo and bucket_lpo().lpo


def test_alenex_charges_sort():
    """ALENEX's per-round ordering work is a WorkLog surcharge on top of
    the plain ε = 0.01 threshold schedule."""
    rng = np.random.default_rng(3)
    g = from_edges(40, rng.integers(0, 40, 120), rng.integers(0, 40, 120))
    plain = peel_local(g, DG, alenex())
    charged = alenex_run(g, DG)
    surcharge = int(g.n * np.log2(g.n) + g.m)
    assert [r.scanned - surcharge for r in charged.worklog.rounds] == [
        r.scanned for r in plain.worklog.rounds
    ]
    assert alenex().eps == 0.01


def test_schedules_are_frozen():
    with pytest.raises(AttributeError):
        dupin().eps = 0.5


def test_schedule_names_distinct():
    names = {
        s.name
        for s in (sequential(), dupin(), gpo(), lpo(), bucket(),
                  bucket_gpo(), bucket_lpo(), alenex())
    }
    assert len(names) == 8


def test_custom_schedule_constructible():
    s = Schedule("mine", "threshold", eps=0.3, gpo=True)
    assert s.name == "mine" and s.eps == 0.3
