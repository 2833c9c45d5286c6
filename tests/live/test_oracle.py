"""Budgeted sim-vs-live oracle cells as regression tests.

The full matrix lives in ``python -m repro.oracle live`` (the CI
``live-oracle`` job); these cells keep the core guarantee under the
tier-1 suite at a small fixed cost: a loopback broadcast through the
real codec and real sockets is *registry-identical* to its DES twin,
and the chaos lane keeps its liveness/serializability contracts.
"""

import pytest

from repro.oracle import check_chaos_cell, compare_exact_cell


@pytest.mark.parametrize(
    "scheme,faults",
    [
        ("inval+cache", False),
        ("multiversion+cache", False),
        ("sgt+cache", False),
        ("inval+cache", True),
    ],
)
def test_exact_lane_matches_discrete_twin(scheme, faults):
    report = compare_exact_cell(scheme, seed=7, faults=faults, clients=2, num_cycles=16)
    assert report["mismatches"] == []
    assert report["total_attempts"] > 0


def test_chaos_lane_keeps_contracts():
    report = check_chaos_cell("multiversion+cache", seed=11, clients=2, num_cycles=16)
    assert report["mismatches"] == []
    assert report["total_attempts"] > 0
    assert report["cycles_heard"] > 0
