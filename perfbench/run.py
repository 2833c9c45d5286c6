"""The repository benchmark: one workload per process, end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload des-mv --seed 1 --seconds 20 --trace 0

``--trace 0`` times the untraced program and prints every end-to-end
metric; ``--trace 1`` alternates untraced and traced repeats of the same
parameters and prints the per-layer metrics (see ``perfbench/README.md``).
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run's manifest.

The seed only chooses the parameters: repeat ``r`` of a run simulates
with a seed derived from ``(workload, seed, r)``.  Deterministic outputs
(abort rate, latency, broadcast length, wire bytes) are pooled over the
first :data:`MIN_REPEATS` repeats, so they are exact for a given seed
however fast the machine is; timings are medians over every repeat,
rescaled to a reference core (see ``perfbench/hostspeed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Tuple

from hostspeed import REFERENCE_MS, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Repeats every run makes, whatever ``--seconds`` says.
MIN_REPEATS = 4
#: Untraced/traced repeat pairs every traced run makes.
TRACED_PAIRS = 2
#: Set-up-only samples taken before each timed repeat.
SETUPS_PER_REPEAT = 3
#: Tail percentiles tried, highest first; the first with at least
#: :data:`TAIL_BEYOND` samples above it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: Delivery samples one tail estimate is taken over: p90 leaves ten beyond.
TAIL_GROUP = 100

#: (name, unit, better) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("cycles_per_s", "cycles/s", "higher"),
    ("cycle_delivery_ms_p50", "ms", "lower"),
    ("cycle_delivery_ms_tail", "ms", "lower"),
    ("wire_bytes_per_cycle", "B", "lower"),
    ("bcast_slots_per_cycle", "slots", "lower"),
    ("abort_rate", "fraction", "lower"),
    ("latency_cycles", "cycles", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Deterministic outputs a traced repeat must reproduce exactly.
DETERMINISTIC = (
    "attempts",
    "committed",
    "latency_sum",
    "latency_n",
    "slots",
    "cycles",
    "events",
    "wire_bytes",
)


def sub_seed(workload: str, seed: int, repeat: int) -> int:
    """The simulation seed of one repeat (string seeding is stable across
    interpreters and hash randomization)."""
    return random.Random(f"perfbench/{workload}/{seed}/{repeat}").getrandbits(32)


def tail(values: List[float]) -> Tuple[float, float]:
    """(percentile, value) at the highest ladder percentile whose
    nearest-rank value leaves at least :data:`TAIL_BEYOND` samples beyond
    it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree (git
    is kept from searching the directories above it)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Counts operations and failures across a run's repeats."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def account(self, repeat) -> None:
        self.attempted += repeat.attempted
        self.failed += repeat.failed

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(what)


def _repeat(run: Run, workload, params, **kwargs):
    """One repeat; an exception is one failed operation."""
    try:
        return workload.repeat(workload, params, **kwargs)
    except Exception:  # the benchmark reports it as a failure and stops
        run.error(traceback.format_exc())
        return None


def _warm_up(run: Run, workload, seed: int) -> bool:
    """A small untimed repeat: lazy imports and cached tables load here."""
    params = workload.params(sub_seed(workload.name, seed, -1), cycles=8)
    params = params.with_sim(num_clients=min(4, workload.clients))
    return _repeat(run, workload, params) is not None


def _repeat_numbers(seconds: float, minimum: int):
    """0, 1, ... while one more repeat is expected to end within
    ``seconds``, and at least ``minimum`` of them."""
    started = perf_counter()
    number = 0
    while True:
        elapsed = perf_counter() - started
        if number >= minimum and elapsed + elapsed / number > seconds:
            return
        yield number
        number += 1


def windows(repeats, window: int) -> List[Tuple[float, List[float]]]:
    """(ms, delivery ms of its cycles) of each run of ``window`` consecutive
    cycles of a repeat, in run order, rescaled to the reference core by
    the calibration loop timed with those cycles (a repeat's leftover
    cycles are dropped)."""
    out = []
    for repeat in repeats:
        ms, deliveries = repeat.cycle_ms, repeat.deliveries_ms
        for start in range(0, len(ms) - window + 1, window):
            span = slice(start, start + window)
            loops = [x for cycle in repeat.loop_ms[span] for x in cycle]
            factor = scale(loops)
            out.append(
                (factor * sum(ms[span]), [factor * d for d in deliveries[span]])
            )
    return out


def cycle_rate(spans, window: int) -> float:
    """Median cycles per second over the windows."""
    return statistics.median(1e3 * window / ms for ms, _ in spans)


def delivery_tail(deliveries: List[float]) -> Tuple[float, float, int]:
    """(percentile, ms, groups): the tail of cycle delivery within each
    run of :data:`TAIL_GROUP` consecutive cycles (the remainder joins the
    last group), and its median over the groups, so that a stretch that
    caught a collector pause or a noisy neighbour moves it little."""
    count = max(1, len(deliveries) // TAIL_GROUP)
    groups = [
        deliveries[i * TAIL_GROUP : (i + 1) * TAIL_GROUP] for i in range(count - 1)
    ]
    groups.append(deliveries[(count - 1) * TAIL_GROUP :])
    tails = [tail(group) for group in groups]
    return (
        min(pct for pct, _ in tails),
        statistics.median(ms for _, ms in tails),
        len(groups),
    )


def measure(workload, seed: int, seconds: float, run: Run):
    """The untraced run: every end-to-end metric, and manifest entries."""
    from workloads import wire_bytes

    if not _warm_up(run, workload, seed):
        return {}, {}
    setups = []
    repeats = []
    for number in _repeat_numbers(seconds, MIN_REPEATS):
        params = workload.params(sub_seed(workload.name, seed, number))
        # Set-up samples are spread over the run, so the host's slow and
        # fast spells weigh on their median as they do on the timings.
        for _ in range(SETUPS_PER_REPEAT):
            sample = _repeat(run, workload, params, setup_only=True, calibrate=True)
            if sample is None:
                return {}, {}
            setups.append(sample)
        repeat = _repeat(run, workload, params, calibrate=True)
        if repeat is None:
            return {}, {}
        run.account(repeat)
        repeats.append(repeat)
    rss = peak_rss_mb()

    pool = repeats[:MIN_REPEATS]
    det = {key: sum(r.det.get(key, 0.0) for r in pool) for key in DETERMINISTIC}
    if workload.name == "live-inval":
        wire = det["wire_bytes"] / det["cycles"]
    else:
        wire = wire_bytes(workload, workload.params(sub_seed(workload.name, seed, 0)))
    spans = windows(repeats, workload.window)
    deliveries = [ms for _, cycles in spans for ms in cycles]
    pct, tail_ms, groups = delivery_tail(deliveries)
    extra = {
        "repeats": len(repeats),
        "tail_percentile": pct,
        "tail_groups": groups,
        "delivery_samples": len(deliveries),
        "throughput_windows": len(spans),
        "loop_ms_median": statistics.median(
            ms for r in repeats for cycle in r.loop_ms for ms in cycle
        ),
        "reference_loop_ms": REFERENCE_MS,
        "setup_samples": len(setups) + len(repeats),
    }
    values = {
        "setup_s": statistics.median(
            r.setup_s * scale(r.setup_loop_ms) for r in setups + repeats
        ),
        "cycles_per_s": cycle_rate(spans, workload.window),
        "cycle_delivery_ms_p50": statistics.median(deliveries),
        "cycle_delivery_ms_tail": tail_ms,
        "wire_bytes_per_cycle": wire,
        "bcast_slots_per_cycle": det["slots"] / det["cycles"],
        "abort_rate": 1.0 - det["committed"] / det["attempts"],
        "latency_cycles": det["latency_sum"] / det["latency_n"],
        "peak_rss_mb": rss,
    }
    return values, extra


def trace(workload, seed: int, seconds: float, run: Run):
    """The traced run: untraced and traced repeats of the same parameters
    alternate; per-layer metrics come from the traced ones."""
    from layers import reduce
    from spans import LAYERS, SpanTracer, installed

    if not _warm_up(run, workload, seed):
        return {}, {}
    tracer = SpanTracer()
    traced, untraced = [], []
    for number in _repeat_numbers(seconds, TRACED_PAIRS):
        params = workload.params(sub_seed(workload.name, seed, number))
        # Which twin goes first alternates, so a drift in host speed does
        # not land on one side of the overhead ratio.
        if number % 2:
            with installed(tracer):
                spanned = _repeat(run, workload, params)
            plain = _repeat(run, workload, params)
        else:
            plain = _repeat(run, workload, params)
            with installed(tracer):
                spanned = _repeat(run, workload, params)
        if plain is None or spanned is None:
            return {}, {}
        # Engine ids are unique only while a repeat's engines are alive.
        spanned.engine_seconds = [
            tracer.by_instance.get(("engine.run_batch", key), 0.0)
            for key in spanned.engine_ids
        ]
        tracer.by_instance.clear()
        run.account(plain)
        run.account(spanned)
        run.attempted += 1
        if any(plain.det.get(k) != spanned.det.get(k) for k in DETERMINISTIC):
            run.failed += 1
            run.errors.append(
                f"tracing changed the outputs: {plain.det} != {spanned.det}"
            )
        untraced.append(plain)
        traced.append(spanned)
    wall = sum(r.setup_s + r.run_s for r in traced)
    self_total = sum(tracer.layer_self(layer) for layer in LAYERS)
    run.attempted += 1
    if self_total > wall:
        run.failed += 1
        run.errors.append(f"span self time {self_total:.3f}s > wall {wall:.3f}s")
    values = reduce(
        tracer,
        traced,
        cycle_rate(windows(untraced, workload.window), workload.window),
        cycle_rate(windows(traced, workload.window), workload.window),
    )
    return values, {"repeats": len(traced), "traced_wall_s": wall}


def manifest(workload, seed: int, seconds: float, traced: bool, load) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "git_rev": git_revision(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "parameters": workload.describe(),
        "min_repeats": MIN_REPEATS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program source is missing ({SRC / 'repro'}); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    load = os.getloadavg()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: "
            + ", ".join(WORKLOADS),
            file=sys.stderr,
        )
        return 2

    run = Run()
    if args.trace:
        from layers import PER_LAYER

        values, extra = trace(workload, args.seed, args.seconds, run)
        table = PER_LAYER
    else:
        values, extra = measure(workload, args.seed, args.seconds, run)
        table = END_TO_END
    for error in run.errors:
        print(error, file=sys.stderr)
    if not values:
        return 1

    info = manifest(workload, args.seed, args.seconds, bool(args.trace), load)
    info.update(extra)
    info["error_rate"] = run.failed / run.attempted
    for name, unit, better in table:
        print(f"{name} = {values[name]:.6g} {unit} ({better} is better)")
    print(json.dumps({"manifest": info}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in table
        },
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
