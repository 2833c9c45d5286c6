"""The parallel-vs-serial determinism oracle (the headline suite).

For every registered sweep experiment, running the sweep through the
process-pool executor with ``jobs`` in {1, 2, 4} must produce output
*byte-identical* to the plain serial path: same CSV text, same
:class:`PointResult` fields, same series values.  Any divergence means
cell sharding leaked nondeterminism (completion-order merging, seed
drift, unpicklable state reconstructed differently) and the whole
"--jobs N is free" contract is void.

Also covers the on-disk cell cache: a cached re-run must be a pure
short-circuit -- every cell a hit, output unchanged.
"""

import dataclasses

import pytest

from repro import oracle
from repro.experiments import fig6
from repro.experiments.parallel import CellCache, make_executor
from repro.experiments.render import sweep_to_csv
from repro.experiments.runner import SweepResult
from repro.oracle import (
    SMOKE_PARAMS,
    SMOKE_PROFILE,
    SWEEPS,
    TINY_OVERRIDES,
    compare_sweeps,
)

EXPERIMENTS = sorted(SWEEPS)
JOBS = (1, 2, 4)

_serial_memo = {}


def _serial(name):
    """Serial reference sweep, computed once per experiment."""
    if name not in _serial_memo:
        runner = SWEEPS[name]
        _serial_memo[name] = runner(
            profile=SMOKE_PROFILE, params=SMOKE_PARAMS, **TINY_OVERRIDES.get(name, {})
        )
    return _serial_memo[name]


def _parallel(name, jobs):
    runner = SWEEPS[name]
    return runner(
        profile=SMOKE_PROFILE,
        params=SMOKE_PARAMS,
        executor=make_executor(jobs),
        **TINY_OVERRIDES.get(name, {}),
    )


def test_registry_covers_every_sweep_experiment():
    assert EXPERIMENTS == sorted(
        [
            "fig5-left",
            "fig5-right",
            "fig6",
            "fig8-left",
            "fig8-right",
            "scalability",
            "retention",
            "faults",
        ]
    )


@pytest.mark.parametrize("jobs", JOBS)
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_parallel_output_is_byte_identical(name, jobs):
    serial = _serial(name)
    parallel = _parallel(name, jobs)

    assert sweep_to_csv(parallel) == sweep_to_csv(serial)

    # Same claim again at the object level, field by field, so a CSV
    # formatting coincidence can never mask a real divergence.
    assert parallel.xs == serial.xs
    assert parallel.series == serial.series
    assert sorted(parallel.points) == sorted(serial.points)
    for series, serial_points in serial.points.items():
        parallel_points = parallel.points[series]
        assert len(parallel_points) == len(serial_points)
        for got, want in zip(parallel_points, serial_points):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_compare_sweeps_agrees_with_the_suite(tmp_path):
    """The CI cell reports the same verdict and leaves no evidence on a
    pass."""
    evidence = tmp_path / "oracle"
    report = compare_sweeps("fig6", jobs=2, evidence=evidence)
    assert report["mismatches"] == []
    assert not evidence.exists()


def test_compare_sweeps_writes_evidence_on_mismatch(tmp_path, monkeypatch):
    """A sweep whose parallel run drifts fails its cell, and both CSVs
    plus their unified diff are left behind as evidence."""

    def drifting(profile, params, executor=None):
        sweep = SweepResult(name="drift", x_label="x", xs=[1.0], y_label="y")
        sweep.series["s"] = [0.5 if executor is None else 0.25]
        return sweep

    monkeypatch.setattr(oracle, "SWEEPS", {"drift": drifting})
    evidence = tmp_path / "oracle"
    report = compare_sweeps("drift", jobs=2, evidence=evidence)
    assert report["mismatches"] == ["-1.0,0.5", "+1.0,0.25"]
    assert sorted(p.name for p in evidence.iterdir()) == [
        "drift.diff",
        "drift.jobs2.csv",
        "drift.jobs2.manifest.json",
        "drift.serial.csv",
        "drift.serial.manifest.json",
    ]
    assert "+1.0,0.25" in (evidence / "drift.diff").read_text()


def test_cell_cache_resume_is_pure_short_circuit(tmp_path):
    cache = CellCache(tmp_path / "cells")
    kwargs = dict(TINY_OVERRIDES["fig6"])

    first = fig6.run(
        profile=SMOKE_PROFILE, params=SMOKE_PARAMS, cache=cache, **kwargs
    )
    cold_misses = cache.misses
    assert cold_misses > 0 and cache.hits == 0

    resumed = fig6.run(
        profile=SMOKE_PROFILE, params=SMOKE_PARAMS, cache=cache, **kwargs
    )
    assert cache.hits == cold_misses
    assert cache.misses == cold_misses  # no new misses on the resume

    assert sweep_to_csv(resumed) == sweep_to_csv(first)
    assert resumed.stats is not None
    assert resumed.stats.cached == cold_misses


def test_cell_cache_is_shared_across_executors(tmp_path):
    """Cells computed serially satisfy a later parallel run, and vice versa."""
    cache = CellCache(tmp_path / "cells")
    kwargs = dict(TINY_OVERRIDES["fig6"])

    serial = fig6.run(
        profile=SMOKE_PROFILE, params=SMOKE_PARAMS, cache=cache, **kwargs
    )
    warm = cache.misses
    parallel = fig6.run(
        profile=SMOKE_PROFILE,
        params=SMOKE_PARAMS,
        executor=make_executor(2),
        cache=cache,
        **kwargs,
    )
    assert cache.hits == warm
    assert sweep_to_csv(parallel) == sweep_to_csv(serial)
