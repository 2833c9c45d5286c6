"""Throughput benchmark for the simulator and its tracing overhead.

Three modes of the same simulation are timed:

* ``control``  -- no tracer at all (the pre-observability baseline);
* ``disabled`` -- a tracer constructed at :data:`TraceLevel.OFF`: every
  instrumentation site collapses to one ``is None`` test, and the
  measured slowdown over ``control`` is the *disabled-mode overhead*
  the subsystem promises to keep within 5%;
* ``ring``     -- full ``READ``-level tracing into an in-memory ring
  buffer, the realistic cost of running with tracing on.

Each mode runs ``repeats`` times and the *minimum* wall time is kept
(the usual noise-robust estimator for short benchmarks).  Throughput is
reported as simulation events per second (the engine's dispatch counter)
and queries per second (finished attempts across all clients).

Run as a module::

    python -m repro.obs.bench --scenario smoke --repeats 3
    python -m repro.obs.bench --out results/BENCH_baseline.json

The output file defaults to ``BENCH_<git-rev>.json`` so successive
revisions can be diffed; ``--max-overhead`` turns the overhead contract
into an exit code for CI.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.obs.manifest import git_revision, package_versions
from repro.obs.trace import JsonlSink, RingBufferSink, TraceLevel, Tracer

#: Modes every scenario is timed under.
MODES = ("control", "disabled", "ring")


@dataclass(frozen=True)
class BenchScenario:
    """One benchmarkable simulation configuration."""

    name: str
    description: str
    params: ModelParameters
    scheme: str
    ring_capacity: int = 1 << 16


def _fig5_params() -> ModelParameters:
    # The standard Figure 5 operating point: FULL_PROFILE dimensions at
    # the paper's default workload, one representative aborting scheme.
    return DEFAULTS.with_sim(
        num_cycles=150, warmup_cycles=10, num_clients=10, seed=11
    )


def _smoke_params() -> ModelParameters:
    return DEFAULTS.with_sim(
        num_cycles=30, warmup_cycles=5, num_clients=4, seed=11
    )


def scenarios() -> Dict[str, BenchScenario]:
    return {
        "fig5": BenchScenario(
            name="fig5",
            description=(
                "Standard Figure 5 scenario: paper defaults, 150 cycles, "
                "10 clients, invalidation-only"
            ),
            params=_fig5_params(),
            scheme="inval",
        ),
        "smoke": BenchScenario(
            name="smoke",
            description="CI smoke: 30 cycles, 4 clients, invalidation-only",
            params=_smoke_params(),
            scheme="inval",
        ),
    }


def _make_tracer(mode: str, scenario: BenchScenario) -> Optional[Tracer]:
    if mode == "control":
        return None
    if mode == "disabled":
        # Sinks attached but level OFF: enabled is False, every gate()
        # yields None -- this is the deployed-but-quiet configuration.
        return Tracer(
            level=TraceLevel.OFF,
            sinks=[RingBufferSink(scenario.ring_capacity)],
        )
    if mode == "ring":
        return Tracer(
            level=TraceLevel.READ,
            sinks=[RingBufferSink(scenario.ring_capacity)],
        )
    raise ValueError(f"Unknown bench mode {mode!r}")


def _run_once(scenario: BenchScenario, mode: str) -> Dict[str, float]:
    # Import here: the bench is the only obs module that needs the whole
    # simulator, and repro.obs must stay importable from low-level code.
    from repro.experiments.schemes import scheme_factory
    from repro.runtime import Simulation

    tracer = _make_tracer(mode, scenario)
    sim = Simulation(
        scenario.params,
        scheme_factory=scheme_factory(scenario.scheme),
        tracer=tracer,
    )
    # Pay down garbage inherited from the previous run (a traced run leaves
    # thousands of event dicts behind) so no mode is billed for another
    # mode's collection.
    gc.collect()
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    attempts = sum(len(client.completed) for client in result.clients)
    out = {
        "seconds": elapsed,
        "events": float(sim.env.events_processed),
        "queries": float(attempts),
        "cycles": float(result.cycles_completed),
    }
    if tracer is not None and tracer.sinks:
        sink = tracer.sinks[0]
        out["trace_events"] = float(len(sink))
        out["trace_dropped"] = float(sink.dropped)
    return out


def run_bench(
    scenario: BenchScenario,
    repeats: int = 3,
    modes: Sequence[str] = MODES,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run every mode and assemble the ``BENCH_<rev>.json`` payload."""
    # Repeats are interleaved round-robin across modes: slow drift in machine
    # load (thermal throttling, noisy neighbours) then biases every mode
    # equally instead of whichever mode happens to run last, which would
    # otherwise masquerade as tracer overhead.
    rounds = max(1, repeats)
    results: Dict[str, Dict[str, float]] = {}
    round_seconds: Dict[str, List[float]] = {mode: [] for mode in modes}
    for rep in range(rounds):
        # Rotate the in-round order so no mode always follows the same
        # predecessor (whose cache/allocator footprint it would inherit).
        order = list(modes[rep % len(modes):]) + list(modes[: rep % len(modes)])
        if progress is not None:
            progress(f"  round {rep + 1}/{rounds}: {', '.join(order)} ...")
        for mode in order:
            sample = _run_once(scenario, mode)
            round_seconds[mode].append(sample["seconds"])
            best = results.get(mode)
            if best is None or sample["seconds"] < best["seconds"]:
                results[mode] = sample
    for sample in results.values():
        seconds = sample["seconds"]
        sample["events_per_sec"] = sample["events"] / seconds if seconds else 0.0
        sample["queries_per_sec"] = (
            sample["queries"] / seconds if seconds else 0.0
        )

    payload: Dict[str, object] = {
        "bench": "repro.obs.bench",
        "git_rev": git_revision(),
        "packages": package_versions(),
        "platform": platform.platform(),
        "scenario": scenario.name,
        "description": scenario.description,
        "scheme": scenario.scheme,
        "repeats": repeats,
        "modes": results,
    }
    control = results.get("control")
    disabled = results.get("disabled")
    if control and disabled and control["seconds"] > 0:
        # Overhead from the MEDIAN of per-round paired ratios, not the ratio
        # of mins: each round runs disabled right after control under the
        # same machine conditions, so the paired ratio cancels load drift
        # and the median discards rounds hit by a noise spike.
        ratios = [
            d / c
            for c, d in zip(
                round_seconds["control"], round_seconds["disabled"]
            )
            if c > 0
        ]
        payload["disabled_overhead"] = statistics.median(ratios) - 1.0
    if control:
        payload["events_per_sec"] = control["events_per_sec"]
        payload["queries_per_sec"] = control["queries_per_sec"]
    return payload


def write_trace_sample(scenario: BenchScenario, path: str) -> int:
    """One fully-traced run of ``scenario`` into a JSONL file (a CI
    artifact reviewers can feed to ``repro trace``); returns the event
    count."""
    from repro.experiments.schemes import scheme_factory
    from repro.runtime import Simulation

    ring = RingBufferSink(scenario.ring_capacity)
    tracer = Tracer(level=TraceLevel.READ, sinks=[JsonlSink(path), ring])
    tracer.header(
        scenario=scenario.name,
        scheme=scenario.scheme,
        seed=scenario.params.sim.seed,
        version=package_versions()["repro"],
        git_rev=git_revision(),
    )
    sim = Simulation(
        scenario.params,
        scheme_factory=scheme_factory(scenario.scheme),
        tracer=tracer,
    )
    sim.run()
    tracer.close()
    return len(ring) + 1  # + the header


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.bench",
        description="Benchmark simulator throughput and tracing overhead.",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(scenarios()),
        default="fig5",
        help="which simulation to benchmark (default: fig5)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per mode; min is kept"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_<git-rev>.json)",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit non-zero if disabled-mode overhead exceeds this "
        "fraction (e.g. 0.05 for the 5%% contract)",
    )
    parser.add_argument(
        "--trace-sample",
        default=None,
        metavar="PATH",
        help="also write one fully-traced run to this JSONL file",
    )
    args = parser.parse_args(argv)

    scenario = scenarios()[args.scenario]
    print(f"benchmarking scenario={scenario.name}: {scenario.description}")
    payload = run_bench(scenario, repeats=args.repeats, progress=print)

    out = args.out or f"BENCH_{payload['git_rev']}.json"
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")

    for mode in MODES:
        if mode in payload["modes"]:
            stats = payload["modes"][mode]
            print(
                f"  {mode:>8}: {stats['seconds']:.3f}s  "
                f"{stats['events_per_sec']:,.0f} events/s  "
                f"{stats['queries_per_sec']:,.0f} queries/s"
            )
    overhead = payload.get("disabled_overhead")
    if overhead is not None:
        print(f"  disabled-tracer overhead: {overhead:+.2%}")

    if args.trace_sample:
        count = write_trace_sample(scenario, args.trace_sample)
        print(f"wrote {count} events to {args.trace_sample}")

    if (
        args.max_overhead is not None
        and overhead is not None
        and overhead > args.max_overhead
    ):
        print(
            f"FAIL: disabled-tracer overhead {overhead:.2%} exceeds "
            f"--max-overhead {args.max_overhead:.2%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
