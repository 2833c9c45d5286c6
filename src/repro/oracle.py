"""One harness for every differential oracle.

The paper's protocols run entirely at the client, so this repository
shows its alternative engines correct with exact differential oracles,
one suite each: cohort == discrete, K=1 shard == single channel (plus
K>1 consistency contracts), live == DES on lossless lanes (plus a chaos
lane), recovery never buys a bad commit, and parallel == serial sweeps.

A :class:`Cell` is a label plus a function that runs two twins (or one
run and its contract) and returns a report dict whose ``mismatches``
list is empty on a pass.  One runner serves every suite through one
parser::

    python -m repro.oracle cohort --clients 1 4 --seeds 7 11 --faults on
    python -m repro.oracle shard --seeds 7 42 --cycles 25
    python -m repro.oracle live --chaos off --artifacts DIR
    python -m repro.oracle resilience --artifacts DIR
    python -m repro.oracle parallel --jobs 4 fig6

It enforces ``--max-seconds`` (cells past the budget are skipped, not
failed), prints one line per cell, writes one JSON file per failing cell
under ``--artifacts``, calls the suite's summary hook once after the
cells, and exits 0 when every cell that ran passed; 1 when a cell or the
summary failed, or when no cell ran at all; 2 on a usage error, which is
raised before any cell runs.
"""

from __future__ import annotations

import argparse
import asyncio
import difflib
import json
import re
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cohort.engine import CohortSimulation
from repro.config import FaultParameters, ModelParameters
from repro.core.control import ReportSchedule
from repro.core.transaction import TransactionStatus
from repro.experiments import fig5, fig6, fig8, retention, scalability
from repro.experiments.faults import run_loss_sweep
from repro.experiments.parallel import make_executor
from repro.experiments.render import sweep_to_csv
from repro.experiments.runner import ExperimentProfile, SweepResult, write_sweep_csv
from repro.experiments.schemes import SCHEME_FACTORIES, scheme_factory
from repro.live.loopback import run_live
from repro.runtime import Simulation
from repro.shard.runtime import ShardedSimulation
from repro.shard.verify import sharded_violations
from repro.stats import names as metric_names
from repro.stats.metrics import MetricsRegistry
from repro.verify import violations

Report = Dict[str, Any]


# -- shared worlds -------------------------------------------------------------

#: Fault mix exercising every model: per-slot and burst loss, control
#: loss, truncation, delayed reports, and disconnect storms.
FAULT_KNOBS = dict(
    slot_loss=0.05,
    burst_rate=0.02,
    burst_length=3.0,
    control_loss=0.03,
    truncation=0.02,
    report_delay=0.05,
    storm_rate=0.02,
)


def oracle_params(
    clients: int, seed: int, faults: bool, num_cycles: int = 30
) -> ModelParameters:
    """Small-but-nontrivial configuration: enough update pressure for
    invalidations, old versions and graph cycles within a fast run."""
    params = (
        ModelParameters()
        .with_server(
            broadcast_size=100,
            update_range=50,
            offset=30,
            updates_per_cycle=8,
            transactions_per_cycle=5,
            items_per_bucket=10,
            retention=12,
        )
        .with_client(
            read_range=40,
            ops_per_query=4,
            think_time=0.5,
            cache_size=20,
            max_attempts=6,
        )
        .with_sim(
            num_cycles=num_cycles,
            warmup_cycles=3,
            num_clients=clients,
            seed=seed,
        )
    )
    if faults:
        params = params.with_faults(**FAULT_KNOBS)
    return params


def contract_params(
    clients: int, seed: int, faults: bool, num_cycles: int = 30
) -> ModelParameters:
    """The shard contract world: :func:`oracle_params` widened so the
    read range spans every shard under *both* partitioners (a range
    partition of 100 items at K=4 starts shard 3 at item 76)."""
    params = oracle_params(
        clients=clients, seed=seed, faults=faults, num_cycles=num_cycles
    )
    return params.with_client(read_range=80, cache_size=30)


def contention_params(
    seed: int, num_cycles: int = 50, num_clients: int = 3
) -> ModelParameters:
    """A smaller, high-contention world (60 items, 6 per bucket): the
    recovery suite's, and the serializability and fault oracle tests'."""
    return (
        ModelParameters()
        .with_server(
            broadcast_size=60,
            update_range=30,
            offset=0,
            updates_per_cycle=8,
            transactions_per_cycle=3,
            items_per_bucket=6,
            retention=10,
        )
        .with_client(
            read_range=30,
            ops_per_query=5,
            think_time=0.5,
            cache_size=15,
            max_attempts=4,
        )
        .with_sim(
            num_cycles=num_cycles,
            warmup_cycles=2,
            num_clients=num_clients,
            seed=seed,
        )
    )


# -- exact comparators ---------------------------------------------------------

#: How each metric kind is compared exactly: counters as integers, ratios
#: as ``(hits, total)`` integer pairs, samplers as ``(count, exact_sum)``
#: -- engines fold samples in different orders, so a Welford mean may
#: differ in the last ulp, but the Shewchuk exact sums must not.
_METRIC_VIEWS = (
    ("counter", MetricsRegistry.counters, lambda m: m.value),
    ("ratio", MetricsRegistry.ratios, lambda m: (m.hits, m.total)),
    ("sampler", MetricsRegistry.samplers, lambda m: (m.count, m.exact_sum)),
)


def registry_delta(
    a: MetricsRegistry,
    b: MetricsRegistry,
    twins: Tuple[str, str] = ("discrete", "cohort"),
) -> List[Dict]:
    """Every metric on which the two registries disagree (exactly);
    ``twins`` names the two sides in each mismatch record."""
    mismatches: List[Dict] = []
    for kind, metrics, view in _METRIC_VIEWS:
        left, right = dict(metrics(a)), dict(metrics(b))
        for name in sorted(set(left) | set(right)):
            x = view(left[name]) if name in left else None
            y = view(right[name]) if name in right else None
            if x != y:
                mismatches.append(
                    {"metric": name, "kind": kind, twins[0]: x, twins[1]: y}
                )
    return mismatches


def result_delta(
    a,
    b,
    twins: Tuple[str, str] = ("discrete", "cohort"),
    fields: Sequence[str] = (
        "scheme_label",
        "cycles_completed",
        "mean_cycle_slots",
        "committed_attempts",
        "total_attempts",
    ),
) -> List[Dict]:
    """Headline ``SimulationResult`` fields on which the two runs disagree."""
    mismatches: List[Dict] = []
    for field in fields:
        x, y = getattr(a, field), getattr(b, field)
        if x != y:
            mismatches.append(
                {"metric": field, "kind": "result", twins[0]: x, twins[1]: y}
            )
    return mismatches


# -- cells, suites and their flags ---------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One oracle check: ``run()`` returns a report whose ``mismatches``
    list is empty on a pass."""

    label: str
    run: Callable[[], Report]


#: One suite flag: ``add_argument``'s positional and keyword arguments.
Flag = Tuple[Tuple[str, ...], Dict[str, Any]]


def flag(*names: str, **kwargs: Any) -> Flag:
    return names, kwargs


def schemes_flag(default: Sequence[str]) -> Flag:
    return flag(
        "--schemes", nargs="+", default=list(default),
        choices=sorted(SCHEME_FACTORIES), metavar="S",
    )


def seeds_flag(default: Sequence[int], name: str = "--seeds") -> Flag:
    return flag(name, nargs="+", type=int, default=list(default), metavar="SEED")


#: ``--faults`` choice -> the fault settings its cells run under.
FAULT_MODES = {"both": (False, True), "on": (True,), "off": (False,)}
CYCLES_FLAG = flag("--cycles", type=int, default=30)
FAULTS_FLAG = flag(
    "--faults", choices=list(FAULT_MODES), default="both",
    help="run the cells with faults injected, clean, or both",
)


def on_off(value: bool) -> str:
    return "on" if value else "off"


class UsageError(ValueError):
    """A flag value a suite rejects while enumerating its cells."""


@dataclass(frozen=True)
class Suite:
    """A named set of cells plus the flags that select them.

    ``summary``, when set, runs once over every report after the cells
    and returns suite-level failures (e.g. checks across seeds).
    """

    name: str
    description: str
    flags: Tuple[Flag, ...]
    cells: Callable[[argparse.Namespace], List[Cell]]
    max_seconds: Optional[float] = None
    summary: Optional[Callable[[List[Report]], List[str]]] = None


# -- cohort == discrete --------------------------------------------------------
# The cohort engine's counters, ratio pairs, exact sampler sums and
# headline result fields equal N discrete clients' under the shared seed.

#: One scheme per protocol family of the paper (plus the uncached
#: baseline): invalidation-only with and without caching, caching with
#: versions, serialization-graph testing, and multiversion broadcast.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "inval",
    "inval+cache",
    "versioned-cache",
    "sgt+cache",
    "multiversion+cache",
)
DEFAULT_CLIENTS: Tuple[int, ...] = (1, 4, 16)
DEFAULT_SEEDS: Tuple[int, ...] = (7, 11, 23, 42, 97)


def compare_cohort_cell(
    scheme: str,
    clients: int,
    seed: int,
    faults: bool,
    num_cycles: int = 30,
    cohort_size: int = 1024,
) -> Report:
    """Run one (scheme, N, seed, faults) cell both ways and diff."""
    params = oracle_params(clients, seed, faults, num_cycles=num_cycles)
    factory = scheme_factory(scheme)
    discrete = Simulation(params, scheme_factory=factory).run()
    cohort = CohortSimulation(
        params, scheme_factory=factory, cohort_size=cohort_size
    ).run()
    mismatches = result_delta(discrete, cohort) + registry_delta(
        discrete.metrics, cohort.metrics
    )
    return {"total_attempts": discrete.total_attempts, "mismatches": mismatches}


def _cohort_cells(args) -> List[Cell]:
    return [
        Cell(
            f"{scheme} N={clients} seed={seed} faults={on_off(faults)}",
            partial(
                compare_cohort_cell, scheme, clients, seed, faults,
                num_cycles=args.cycles, cohort_size=args.cohort_size,
            ),
        )
        for scheme in args.schemes
        for faults in FAULT_MODES[args.faults]
        for clients in args.clients
        for seed in args.seeds
    ]


COHORT = Suite(
    name="cohort",
    description="cohort aggregates must equal N discrete clients exactly "
    "under shared seeds",
    flags=(
        schemes_flag(DEFAULT_SCHEMES),
        flag(
            "--clients", nargs="+", type=int, default=list(DEFAULT_CLIENTS),
            metavar="N",
        ),
        seeds_flag(DEFAULT_SEEDS),
        FAULTS_FLAG,
        CYCLES_FLAG,
        flag(
            "--cohort-size", type=int, default=1024,
            help="members advanced per cohort chunk",
        ),
    ),
    cells=_cohort_cells,
    max_seconds=600.0,
)


# -- shard: K=1 identity, K>1 contracts ----------------------------------------
# A one-shard ShardedSimulation IS the single-channel Simulation, bit for
# bit (the identity arm runs the cohort suite's line-up).  At K > 1 every
# committed transaction meets its consistency mode's contract: per-shard
# serializability always, plus a global snapshot for every snapshot-based
# scheme and for everything in ``epoch`` mode.

#: Contract arm: one scheme per consistency behaviour class (plain
#: invalidation, marked-abort salvage, SGT, pinned-snapshot multiversion).
CONTRACT_SCHEMES = (
    "inval+cache",
    "versioned-cache",
    "sgt+cache",
    "multiversion+cache",
)
CONSISTENCY_MODES = ("local", "epoch")


def check_identity_cell(
    scheme: str, clients: int, seed: int, faults: bool, num_cycles: int
) -> Report:
    """Compare one single-channel run against its K=1 sharded twin."""
    params = oracle_params(
        clients=clients, seed=seed, faults=faults, num_cycles=num_cycles
    )
    factory = SCHEME_FACTORIES[scheme]
    single = Simulation(params, factory, keep_history=True).run()
    sharded = ShardedSimulation(
        params, factory, num_shards=1, keep_history=True
    ).run()
    twins = ("single", "sharded")
    mismatches = registry_delta(single.metrics, sharded.metrics, twins)
    mismatches.extend(result_delta(single, sharded, twins))
    return {"committed": sharded.committed_attempts, "mismatches": mismatches}


def check_contract_cell(
    scheme: str,
    shards: int,
    mode: str,
    fraction: float,
    partitioner: str,
    clients: int,
    seed: int,
    faults: bool,
    num_cycles: int,
) -> Report:
    """Run one multi-shard cell and check every committed transaction."""
    params = contract_params(
        clients=clients, seed=seed, faults=faults, num_cycles=num_cycles
    )
    sim = ShardedSimulation(
        params,
        SCHEME_FACTORIES[scheme],
        num_shards=shards,
        partitioner=partitioner,
        consistency=mode,
        cross_shard_fraction=fraction,
        keep_history=True,
    )
    result = sim.run()
    cross = result.metrics.get_counter(metric_names.SHARD_CROSS_COMMITS)
    return {
        "committed": result.committed_attempts,
        "cross_commits": cross.value if cross else 0,
        "mismatches": [
            {"txn": txn.txn_id, "contract": why}
            for txn, why in sharded_violations(sim)
        ],
    }


def _shard_cells(args) -> List[Cell]:
    identity = [
        Cell(
            f"identity {scheme} seed={seed} faults={on_off(faults)}",
            partial(
                check_identity_cell, scheme, args.clients, seed, faults,
                args.cycles,
            ),
        )
        for scheme in args.schemes
        for seed in args.seeds
        for faults in FAULT_MODES["both"]
    ]
    contract = [
        Cell(
            f"contract {scheme} K={shards} {mode} {partitioner} "
            f"f={fraction} seed={seed} faults={on_off(faults)}",
            partial(
                check_contract_cell, scheme, shards, mode, fraction,
                partitioner, args.clients, seed, faults, args.cycles,
            ),
        )
        for scheme in args.schemes
        if scheme in CONTRACT_SCHEMES
        for shards in args.shards
        for mode in args.modes
        for partitioner in args.partitioners
        for fraction in args.fractions
        for seed in args.contract_seeds
        for faults in FAULT_MODES["both"]
    ]
    return identity + contract


SHARD = Suite(
    name="shard",
    description="a K=1 sharded run must be bit-identical to the single "
    "channel, and every K>1 commit must meet its consistency contract",
    flags=(
        schemes_flag(DEFAULT_SCHEMES),
        seeds_flag(DEFAULT_SEEDS),
        seeds_flag((42,), name="--contract-seeds"),
        flag("--shards", nargs="+", type=int, default=[2, 4]),
        flag("--fractions", nargs="+", type=float, default=[0.1, 0.5]),
        flag(
            "--modes", nargs="+", default=list(CONSISTENCY_MODES),
            choices=CONSISTENCY_MODES,
        ),
        flag(
            "--partitioners", nargs="+", default=["hash", "range"],
            choices=["hash", "range"],
        ),
        flag("--clients", type=int, default=4),
        CYCLES_FLAG,
    ),
    cells=_shard_cells,
)


# -- live: exact lanes and the chaos lane --------------------------------------
# Exact lanes (lossless wire; faults, when on, are the client-side
# pipelines the DES runs use): the merged registries of a loopback live
# run equal the discrete run's exactly -- the cohort criterion across a
# codec round trip and a TCP hop.  The chaos lane runs behind a seeded
# ChaosProxy mangling the byte stream; frame damage follows the proxy's
# own schedule (arrival order is an OS property), so it asserts the
# protocols' contracts instead of registry equality.

#: One scheme per resync family the live client implements:
#: invalidation, multiversion, and serialization-graph testing.
LIVE_SCHEMES: Tuple[str, ...] = ("inval+cache", "multiversion+cache", "sgt+cache")
LIVE_SEEDS: Tuple[int, ...] = (7, 11, 23)


def compare_exact_cell(
    scheme: str, seed: int, faults: bool, *, clients: int = 3, num_cycles: int = 30
) -> Report:
    """Run one (scheme, seed, faults) cell sim and live, then diff."""
    params = oracle_params(clients, seed, faults, num_cycles=num_cycles)
    discrete = Simulation(params, scheme_factory=scheme_factory(scheme)).run()
    server, _results, merged = asyncio.run(
        run_live(params, scheme, faults=faults)
    )
    twins = ("discrete", "live")
    mismatches = result_delta(
        discrete, server.backend, twins, fields=("cycles_completed",)
    ) + registry_delta(discrete.metrics, merged, twins)
    return {"total_attempts": discrete.total_attempts, "mismatches": mismatches}


def check_chaos_cell(
    scheme: str, seed: int, *, clients: int = 3, num_cycles: int = 30
) -> Report:
    """One chaos-proxy cell: every client finishes, the server airs every
    cycle, progress is made, and every committed readset passes the
    ground-truth criterion of :func:`repro.verify.violations`."""
    params = oracle_params(clients, seed, faults=False, num_cycles=num_cycles)
    server, results, _merged = asyncio.run(
        run_live(
            params, scheme, faults=False, keep_history=True,
            chaos=FaultParameters(**FAULT_KNOBS),
        )
    )
    aired = server.backend.cycles_completed
    attempts = sum(len(result.client.completed) for result in results)
    bad = violations(
        [result.client for result in results],
        server.database,
        server.engine.history,
    )
    contracts = (
        ("server airs every cycle", aired == num_cycles, num_cycles, aired),
        ("every client finishes", len(results) == clients, clients, len(results)),
        ("progress under chaos", attempts > 0, "> 0 attempts", attempts),
        (
            "committed readsets are consistent",
            not bad,
            "0 violations",
            [str(txn.txn_id) for txn in bad[:8]],
        ),
    )
    return {
        "total_attempts": attempts,
        "cycles_heard": sum(r.cycles_heard for r in results),
        "cycles_missed": sum(r.cycles_missed for r in results),
        "mismatches": [
            {"contract": contract, "expected": expected, "got": got}
            for contract, ok, expected, got in contracts
            if not ok
        ],
    }


def _live_cells(args) -> List[Cell]:
    sizes = dict(clients=args.clients, num_cycles=args.cycles)
    exact = [
        Cell(
            f"exact {scheme} seed={seed} faults={on_off(faults)}",
            partial(compare_exact_cell, scheme, seed, faults, **sizes),
        )
        for scheme in args.schemes
        for faults in FAULT_MODES[args.faults]
        for seed in args.seeds
    ]
    chaos = [
        Cell(
            f"chaos {scheme} seed={seed}",
            partial(check_chaos_cell, scheme, seed, **sizes),
        )
        for scheme in args.schemes
        for seed in args.seeds
        if args.chaos == "on"
    ]
    return exact + chaos


LIVE = Suite(
    name="live",
    description="a loopback live broadcast must match its DES twin exactly "
    "(lossless lanes) and keep the correctness contracts under "
    "byte-stream chaos",
    flags=(
        schemes_flag(LIVE_SCHEMES),
        seeds_flag(LIVE_SEEDS),
        flag("--clients", type=int, default=3),
        CYCLES_FLAG,
        FAULTS_FLAG,
        flag(
            "--chaos", choices=["on", "off"], default="on",
            help="also run the chaos-proxy contract lane",
        ),
    ),
    cells=_live_cells,
    max_seconds=600.0,
)


# -- resilience: recovery never buys a bad commit ------------------------------
# Each (scheme x fault mix x retry policy x seed) cell checks that the
# crashed, faulted run commits no readset repro.verify rejects; that no
# restarted client with runway left stalls; that the run keeps a share
# of its never-crashed twin's commit volume; and that rerunning it gives
# a bit-identical metrics snapshot.  The summary judges liveness per
# (scheme, fault, policy) group across seeds and fails a matrix that
# never crashed, restored, or recovered as vacuous.  The full-depth
# matrix is tests/integration/test_resilience_oracle.py.

#: Fault mixes the smoke matrix runs under (noise, fades, flaky control).
FAULT_MIXES: Dict[str, Dict[str, float]] = {
    "slot-loss": dict(slot_loss=0.1),
    "burst-loss": dict(burst_rate=0.03, burst_length=5.0),
    "control-loss": dict(control_loss=0.15),
}

#: Retry policies exercised; ``immediate`` keeps the seed's behaviour.
POLICIES: Sequence[str] = ("immediate", "backoff", "cause-aware")

#: CI smoke slice: one scheme per family crossed with everything above.
RESILIENCE_SCHEMES: Sequence[str] = ("inval+cache", "sgt+cache", "mv-caching")

#: Don't demand post-recovery activity when the last crash ends with
#: fewer cycles than this left -- the client may legitimately still be
#: thinking, backing off, or mid-attempt at the horizon.
LIVENESS_SLACK_CYCLES = 10

#: The crashed run must keep at least this fraction of its never-crashed
#: twin's commit volume (crashes cost availability, not the workload).
CONVERGENCE_FRACTION = 0.2


def resilient_params(
    params: ModelParameters,
    policy: str,
    fault_kwargs: Mapping[str, float],
    crash_rate: float = 0.06,
) -> ModelParameters:
    """``params`` with faults plus the full resilience stack enabled."""
    # backoff_cap stays small relative to the oracle's short runs so a
    # recovering client is not still asleep when the horizon hits.
    return params.with_faults(**fault_kwargs).with_resilience(
        retry_policy=policy,
        backoff_cap=4,
        checkpoint_interval=5,
        catchup_window=8,
        crash_rate=crash_rate,
        crash_length=2.0,
        watchdog_attempts=6,
        degrade_after=4,
        recover_after=3,
    )


def build_sim(scheme: str, params: ModelParameters) -> Simulation:
    """One recovery simulation: history kept, w-window retransmission on
    (so incremental catch-up is actually reachable)."""
    return Simulation(
        params,
        scheme_factory=scheme_factory(scheme),
        keep_history=True,
        report_schedule=ReportSchedule(window=8),
    )


def _committed_count(clients) -> int:
    return sum(
        1
        for client in clients
        for txn in client.completed
        if txn.status is TransactionStatus.COMMITTED
    )


def _crash_liveness(sim: Simulation):
    """Per-cell liveness evidence: (stalled, recovered, expected).

    ``stalled`` counts clients that restarted with at least
    ``LIVENESS_SLACK_CYCLES`` of runway yet never completed another
    attempt -- committed *or* aborted -- which is what a genuinely stuck
    client (a generator that never reschedules) looks like; a live but
    unlucky client keeps aborting instead.  ``recovered`` counts crashed
    clients that committed after their last crash, and ``expected`` the
    crashed clients with enough runway that at least one of them should.
    """
    horizon = sim.params.sim.num_cycles - LIVENESS_SLACK_CYCLES
    stalled = recovered = expected = 0
    for client in sim.clients:
        res = client.resilience
        if res is None or res.crashes is None or not res.crashes.windows:
            continue
        last_end = max(last for _, last in res.crashes.windows)
        if any(
            txn.status is TransactionStatus.COMMITTED
            and (txn.end_cycle or 0) > last_end
            for txn in client.completed
        ):
            recovered += 1
        if last_end > horizon:
            continue
        expected += 1
        if not any((txn.end_cycle or 0) > last_end for txn in client.completed):
            stalled += 1
    return stalled, recovered, expected


def run_case(scheme: str, fault_name: str, policy: str, seed: int) -> Report:
    """Run one (scheme, fault mix, policy, seed) cell and judge it."""
    fault_kwargs = FAULT_MIXES[fault_name]
    base = contention_params(seed)
    crashed_params = resilient_params(base, policy, fault_kwargs)

    sim = build_sim(scheme, crashed_params)
    result = sim.run()
    bad = violations(sim.clients, sim.database, sim.engine.history)
    committed = _committed_count(sim.clients)

    twin = build_sim(
        scheme, resilient_params(base, policy, fault_kwargs, crash_rate=0.0)
    )
    twin.run()
    twin_committed = _committed_count(twin.clients)

    replay = build_sim(scheme, crashed_params)
    replay.run()

    def counter(name: str) -> int:
        c = result.metrics.get_counter(name)
        return c.value if c else 0

    stalled, recovered, expected = _crash_liveness(sim)
    snapshot = result.metrics.snapshot()
    replay_snapshot = replay.metrics.snapshot()
    failures: List[str] = []
    if bad:
        failures.append(
            f"{len(bad)} committed readset(s) failed the "
            f"serializability oracle (e.g. {bad[0].txn_id})"
        )
    if stalled:
        failures.append(
            f"{stalled} client(s) stalled after restart "
            "(no completed attempts despite runway)"
        )
    if twin_committed and committed < CONVERGENCE_FRACTION * twin_committed:
        failures.append(
            f"commit volume collapsed: {committed} vs never-crashed twin's "
            f"{twin_committed} (< {CONVERGENCE_FRACTION:.0%})"
        )
    if snapshot != replay_snapshot:
        changed = {
            key
            for key in set(snapshot) | set(replay_snapshot)
            if snapshot.get(key) != replay_snapshot.get(key)
        }
        failures.append(
            f"replay diverged on {len(changed)} metric(s): "
            f"{sorted(changed)[:5]}"
        )
    return {
        "group": f"{scheme}/{fault_name}/{policy}",
        "violations": len(bad),
        "committed": committed,
        "twin_committed": twin_committed,
        "crashes": counter(metric_names.RESILIENCE_CRASHES),
        "restores": counter(metric_names.RESILIENCE_CHECKPOINT_RESTORES),
        "stalled_clients": stalled,
        "recovered_clients": recovered,
        "expected_recoveries": expected,
        "snapshot": snapshot,
        "replay_snapshot": replay_snapshot,
        "mismatches": failures,
    }


def group_failures(reports: Sequence[Report]) -> List[str]:
    """Liveness judged per (scheme, fault, policy) group across seeds.

    A single cell has only a couple of crashed clients, so "did one of
    them commit again" is noise there; across every seed of a group it
    is signal -- if *no* crashed client with runway ever commits again,
    recovery is not completing for that configuration.
    """
    groups: Dict[str, List[Report]] = {}
    for report in reports:
        groups.setdefault(report["group"], []).append(report)
    failures = []
    for label, members in groups.items():
        expected = sum(r["expected_recoveries"] for r in members)
        recovered = sum(r["recovered_clients"] for r in members)
        if expected and not recovered:
            failures.append(
                f"{label}: no crashed client ever committed after its last "
                f"crash across {len(members)} seed(s) ({expected} had runway)"
            )
    return failures


def _resilience_summary(reports: Sequence[Report]) -> List[str]:
    """Group liveness, then the matrix's own teeth: a passing matrix
    that never crashed, restored, or recovered proves nothing."""
    totals = {
        key: sum(r[key] for r in reports)
        for key in ("crashes", "restores", "recovered_clients")
    }
    print(
        f"{len(reports)} cells, {totals['crashes']} crashes, "
        f"{totals['restores']} checkpoint restores, "
        f"{totals['recovered_clients']} post-crash recoveries"
    )
    failures = group_failures(reports)
    for key, what in (
        ("crashes", "no crashes fired"),
        ("restores", "no checkpoint restore exercised"),
        ("recovered_clients", "no post-crash commit observed"),
    ):
        if totals[key] == 0:
            failures.append(f"matrix is vacuous: {what}")
    return failures


def _resilience_cells(args) -> List[Cell]:
    return [
        Cell(
            f"{scheme}/{fault_name}/{policy}/seed={seed}",
            partial(run_case, scheme, fault_name, policy, seed),
        )
        for scheme in RESILIENCE_SCHEMES
        for fault_name in FAULT_MIXES
        for policy in POLICIES
        for seed in args.seeds
    ]


RESILIENCE = Suite(
    name="resilience",
    description="crash-restart recovery must never buy a bad commit: "
    "serializability, liveness, convergence to the never-crashed twin, "
    "bit-identical replay",
    flags=(seeds_flag((201, 202)),),
    cells=_resilience_cells,
    summary=_resilience_summary,
)


# -- parallel == serial --------------------------------------------------------
# Each cell runs one registered sweep on a tiny grid serially and through
# a ``--jobs N`` process pool and demands byte-identical CSV text; the
# contract is scale-free, so small grids pin it as well as paper-scale
# ones.  A mismatch also leaves both CSVs and their unified diff under
# ``--artifacts``.


#: Every registered sweep experiment, by name; each accepts
#: ``(profile=..., params=..., executor=..., **kw)``.
SWEEPS: Dict[str, Callable[..., SweepResult]] = {
    "fig5-left": fig5.run_left,
    "fig5-right": fig5.run_right,
    "fig6": fig6.run,
    "fig8-left": fig8.run_left,
    "fig8-right": fig8.run_right,
    "scalability": scalability.run,
    "retention": retention.run,
    "faults": run_loss_sweep,
}

#: Reduced sweep kwargs per experiment so the suite stays fast.
TINY_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "fig5-left": {"schemes": ("inval", "sgt+cache"), "ops_sweep": (2, 4)},
    "fig5-right": {"schemes": ("inval",), "offset_sweep": (0, 20)},
    "fig6": {"schemes": ("inval", "mv-caching"), "update_sweep": (5, 15)},
    "fig8-left": {"schemes": ("inval+cache",), "ops_sweep": (2, 4)},
    "fig8-right": {"offset_sweep": (0, 20)},
    "scalability": {"scheme": "inval+cache", "client_sweep": (1, 3)},
    "retention": {"retention_sweep": (2, 6)},
    "faults": {"schemes": ("inval", "multiversion"), "loss_sweep": (0.0, 0.1)},
}

#: The tiny world the sweeps run in: 100 items, 10 buckets per cycle,
#: moderate update pressure.
SMOKE_PARAMS = (
    ModelParameters()
    .with_server(
        broadcast_size=100,
        update_range=50,
        offset=10,
        updates_per_cycle=10,
        transactions_per_cycle=5,
        items_per_bucket=10,
        retention=12,
    )
    .with_client(read_range=40, ops_per_query=4, think_time=0.5, cache_size=20)
)

SMOKE_PROFILE = ExperimentProfile(
    num_cycles=30, warmup_cycles=3, num_clients=3, seeds=(5, 9)
)


def compare_sweeps(name: str, jobs: int, evidence: Optional[Path] = None) -> Report:
    """Serial vs ``jobs``-worker run of one experiment; on a mismatch the
    CSVs and their diff go under ``evidence`` when given."""
    runner = SWEEPS[name]
    kwargs = dict(
        TINY_OVERRIDES.get(name, {}), profile=SMOKE_PROFILE, params=SMOKE_PARAMS
    )
    serial = runner(**kwargs)
    parallel = runner(executor=make_executor(jobs), **kwargs)
    serial_csv, parallel_csv = sweep_to_csv(serial), sweep_to_csv(parallel)
    if serial_csv == parallel_csv:
        return {"mismatches": []}
    diff = list(
        difflib.unified_diff(
            serial_csv.splitlines(),
            parallel_csv.splitlines(),
            fromfile=f"{name} serial",
            tofile=f"{name} jobs={jobs}",
            lineterm="",
        )
    )
    if evidence is not None:
        evidence.mkdir(parents=True, exist_ok=True)
        for sweep, tag in ((serial, "serial"), (parallel, f"jobs{jobs}")):
            write_sweep_csv(
                sweep, str(evidence / f"{name}.{tag}.csv"),
                params=SMOKE_PARAMS, profile=SMOKE_PROFILE,
            )
        (evidence / f"{name}.diff").write_text("\n".join(diff) + "\n")
    changed = [line for line in diff[2:] if line[:1] in "+-"]
    return {"mismatches": changed or ["CSV bytes differ"]}


def _parallel_cells(args) -> List[Cell]:
    unknown = [name for name in args.names if name not in SWEEPS]
    if unknown:
        raise UsageError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(SWEEPS))}"
        )
    return [
        Cell(
            f"{name} jobs={args.jobs}",
            partial(compare_sweeps, name, args.jobs, args.artifacts),
        )
        for name in args.names or sorted(SWEEPS)
    ]


PARALLEL = Suite(
    name="parallel",
    description="every registered sweep run with --jobs N must be "
    "byte-identical to the serial run",
    flags=(
        flag("names", nargs="*", help="experiments to check (default: all)"),
        flag("--jobs", type=int, default=2),
    ),
    cells=_parallel_cells,
)

SUITES: Dict[str, Suite] = {
    suite.name: suite for suite in (COHORT, SHARD, LIVE, RESILIENCE, PARALLEL)
}


# -- the runner ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """``python -m repro.oracle SUITE [flags]``: each suite accepts only
    its own flags plus the runner's ``--max-seconds``/``--artifacts``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.oracle",
        description="Run one differential-oracle suite cell by cell.",
    )
    sub = parser.add_subparsers(dest="suite", required=True, metavar="SUITE")
    for suite in SUITES.values():
        suite_parser = sub.add_parser(
            suite.name, help=suite.description, description=suite.description
        )
        for names, kwargs in suite.flags:
            suite_parser.add_argument(*names, **kwargs)
        suite_parser.add_argument(
            "--max-seconds", type=float, default=suite.max_seconds,
            help="runtime budget; remaining cells are skipped, not failed "
            f"(default: {suite.max_seconds})",
        )
        suite_parser.add_argument(
            "--artifacts", type=Path, default=None, metavar="DIR",
            help="directory for one JSON file per failing cell",
        )
    return parser


def run_cells(
    cells: Sequence[Cell],
    *,
    max_seconds: Optional[float] = None,
    artifacts: Optional[Path] = None,
    summary: Optional[Callable[[List[Report]], List[str]]] = None,
) -> int:
    """Run ``cells`` in order under the budget; returns the exit code.

    A failing cell's report is written to ``artifacts/<label>.json``, each
    run of characters other than word characters, ``+``, ``.`` and ``-``
    in the label replaced by ``_``.
    """
    started = time.perf_counter()
    reports: List[Report] = []
    failed = skipped = 0
    for cell in cells:
        if max_seconds is not None and time.perf_counter() - started > max_seconds:
            skipped += 1
            print(f"[skip] {cell.label} (over --max-seconds budget)")
            continue
        t0 = time.perf_counter()
        report = dict(cell.run(), label=cell.label)
        report["seconds"] = round(time.perf_counter() - t0, 3)
        reports.append(report)
        mismatches = report["mismatches"]
        if not mismatches:
            print(f"[ok] {cell.label} ({report['seconds']:.2f}s)")
            continue
        failed += 1
        print(f"[FAIL] {cell.label}: {len(mismatches)} mismatch(es)")
        for mismatch in mismatches[:8]:
            print(f"       {mismatch}")
        if artifacts is not None:
            artifacts.mkdir(parents=True, exist_ok=True)
            name = re.sub(r"[^\w+.-]+", "_", cell.label).strip("_")
            (artifacts / f"{name}.json").write_text(
                json.dumps(report, indent=2, sort_keys=True, default=str)
            )
    if not reports:
        print(
            f"FAIL: no cell ran ({len(cells)} selected, "
            f"{skipped} skipped by the runtime budget)"
        )
        return 1
    problems = summary(reports) if summary is not None else []
    for problem in problems:
        print(f"FAIL {problem}")
    verdict = "FAIL" if failed or problems else "PASS"
    print(
        f"{verdict}: {len(reports) - failed}/{len(reports)} cells clean"
        + (f", {skipped} skipped (runtime budget)" if skipped else "")
    )
    return 1 if verdict == "FAIL" else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    try:
        cells = suite.cells(args)
    except UsageError as exc:
        parser.error(str(exc))
    return run_cells(
        cells,
        max_seconds=args.max_seconds,
        artifacts=args.artifacts,
        summary=suite.summary,
    )


if __name__ == "__main__":
    raise SystemExit(main())
