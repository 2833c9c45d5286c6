"""The four benchmark workloads, each one repeat at a time.

A repeat builds the workload from its parameters (timed as set-up), runs
it (timed), and checks its outputs (untimed).  Every workload gets its
parameters from a seed and nothing else; the program only ever sees the
generated :class:`~repro.config.ModelParameters`.

Each workload puts most of its time in a different layer, so a change to
one layer has a workload that exercises it and one that does not:

* ``des-mv``     -- server side: update engine, item-state store, builder;
* ``cohort-sgt`` -- client side: the SGT serialization graph per client;
* ``live-inval`` -- wire codec and socket fan-out;
* ``shard-k4``   -- event kernel, client machine and shard routing.
"""

from __future__ import annotations

import asyncio
import gc
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cohort import engine as cohort_engine
from repro.cohort.engine import CohortSimulation, Member
from repro.config import DEFAULTS, ModelParameters
from repro.core.transaction import TransactionStatus
from repro.experiments.schemes import scheme_factory
from repro.live.client import LiveClient
from repro.live.codec import CycleCodec, WireProfile
from repro.live.server import LiveBroadcastServer
from repro.runtime import Simulation
from repro.server.broadcast import ProgramBuilder
from repro.shard.runtime import ShardedSimulation
from repro.shard.verify import sharded_violations
from repro.stats import names as metric_names
from repro.verify import violations
from hostspeed import ProgramClock
from spans import patched


@dataclass
class Repeat:
    """What one repeat of a workload measured and checked."""

    setup_s: float
    run_s: float
    cycles: int
    #: Host ms per cycle from its build to the last client having it.
    deliveries_ms: List[float]
    #: Host ms each cycle took, in cycle order (throughput windows).
    cycle_ms: List[float]
    #: Outputs that are a pure function of the parameters.
    det: Dict[str, float]
    attempted: int
    failed: int
    #: Denominators and objects the per-layer reduction needs.
    clients: int = 0
    listeners: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    steps: int = 0
    #: ``id`` of each update engine (live during the repeat only).
    engine_ids: List[int] = field(default_factory=list)
    #: Traced seconds in each engine, filled in by the traced run.
    engine_seconds: List[float] = field(default_factory=list)
    lags: List[int] = field(default_factory=list)
    #: Host ms of the calibration loop timed with each cycle (same order
    #: as ``cycle_ms``) and with the set-up; empty when not calibrating.
    loop_ms: List[List[float]] = field(default_factory=list)
    setup_loop_ms: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scheme: str
    clients: int
    cycles: int
    #: Server-parameter overrides of the paper defaults.
    server: Dict[str, int]
    repeat: Callable[..., Repeat]
    #: Cycles per throughput window (about a tenth of a second of work).
    window: int

    def params(self, seed: int, cycles: Optional[int] = None) -> ModelParameters:
        return (
            DEFAULTS.with_server(**self.server)
            .with_sim(
                num_cycles=cycles or self.cycles,
                warmup_cycles=5,
                num_clients=self.clients,
                seed=seed,
            )
        )

    def describe(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "clients": self.clients,
            "cycles_per_repeat": self.cycles,
            "cycles_per_window": self.window,
            "server_overrides": dict(self.server),
        }


# -- probes: the few timestamps the untraced run needs ------------------------


def _build_entries(
    entries: Dict[int, float], clock: ProgramClock, on_build=None, sample=True
):
    """Record when the server first enters ``ProgramBuilder.build`` for
    each cycle (K shards build the same cycle K times), timing the
    calibration loop just before unless ``sample`` is false."""

    def make(build):
        def probed(self, cycle, outcome):
            if cycle not in entries:
                if sample:
                    clock.sample_cycle(cycle)
                entries[cycle] = clock.now()
            if on_build is not None:
                on_build(cycle)
            return build(self, cycle, outcome)

        return probed

    return patched(ProgramBuilder, "build", make)


def _intervals(entries: Dict[int, float], end: float) -> List[float]:
    """Host ms from each cycle's build entry to the next one's (the last
    cycle ends at ``end``).

    In the event kernel every client event before a cycle boundary is
    dispatched before the server builds the next cycle, so this is also
    when a cycle has been delivered to every client.
    """
    cycles = sorted(entries)
    marks = [entries[c] for c in cycles] + [end]
    return [1e3 * (marks[i + 1] - marks[i]) for i in range(len(cycles))]


def _det(metrics, cycles: int, total_slots: int) -> Dict[str, float]:
    ratio = metrics.get_ratio(metric_names.ATTEMPT_COMMITTED)
    latency = metrics.get_sampler(metric_names.TXN_LATENCY_CYCLES)
    return {
        "attempts": float(ratio.total if ratio else 0),
        "committed": float(ratio.hits if ratio else 0),
        "latency_sum": latency.exact_sum if latency else 0.0,
        "latency_n": float(latency.count if latency else 0),
        "slots": float(total_slots),
        "cycles": float(cycles),
    }


def _setup_only(seconds: float, loops: List[float]) -> Repeat:
    return Repeat(seconds, 0.0, 0, [], [], {}, 0, 0, setup_loop_ms=loops)


def _committed(clients) -> int:
    return sum(
        1
        for client in clients
        for txn in client.completed
        if txn.status is TransactionStatus.COMMITTED
    )


def _cache_totals(clients):
    hits = lookups = 0
    for client in clients:
        cache = client.cache
        if cache is not None:
            hits += cache.hits
            lookups += cache.hits + cache.misses
    return hits, lookups


# -- des-mv and shard-k4: the event kernel ---------------------------------------


def _kernel_repeat(make, violations_of, engines_of):
    """A repeat of an event-kernel workload: ``make(params, factory)``
    builds the simulation, ``violations_of(sim)`` counts committed queries
    breaking their consistency contract."""

    def repeat(
        workload: Workload,
        params: ModelParameters,
        setup_only: bool = False,
        calibrate: bool = False,
    ) -> Repeat:
        entries: Dict[int, float] = {}
        clock = ProgramClock(calibrate)
        gc.collect()
        with _build_entries(entries, clock):
            setup_loops = clock.sample()
            t0 = clock.now()
            sim = make(params, scheme_factory(workload.scheme))
            t1 = clock.now()
            if setup_only:
                return _setup_only(t1 - t0, setup_loops)
            result = sim.run()
            t2 = clock.now()
        cycles = result.cycles_completed
        det = _det(sim.metrics, cycles, sim.backend.total_slots)
        det["events"] = float(sim.env.events_processed)
        hits, lookups = _cache_totals(sim.clients)
        per_cycle = _intervals(entries, t2)
        return Repeat(
            setup_s=t1 - t0,
            run_s=t2 - t1,
            cycles=cycles,
            deliveries_ms=per_cycle,
            cycle_ms=per_cycle,
            det=det,
            attempted=_committed(sim.clients) + 1,
            failed=violations_of(sim) + int(cycles != params.sim.num_cycles),
            clients=len(sim.clients),
            cache_hits=hits,
            cache_lookups=lookups,
            engine_ids=[id(engine) for engine in engines_of(sim)],
            loop_ms=clock.loop_ms(sorted(entries)),
            setup_loop_ms=setup_loops,
        )

    return repeat


_repeat_des = _kernel_repeat(
    lambda params, factory: Simulation(params, scheme_factory=factory),
    lambda sim: len(violations(sim.clients, sim.database)),
    lambda sim: [sim.engine],
)

_repeat_shard = _kernel_repeat(
    lambda params, factory: ShardedSimulation(params, factory, num_shards=4),
    lambda sim: len(sharded_violations(sim)),
    lambda sim: [shard.engine for shard in sim.shards if shard.engine],
)


# -- cohort-sgt ---------------------------------------------------------------


class _Tally(list):
    """A client's ``completed`` list that counts outcomes as the cohort
    driver clears it (the driver keeps no history)."""

    def __init__(self, counts: Dict[str, int]) -> None:
        super().__init__()
        self.counts = counts

    def clear(self) -> None:
        counts = self.counts
        for txn in self:
            status = txn.status
            if status is TransactionStatus.COMMITTED:
                counts["committed"] += 1
            elif status is TransactionStatus.ABORTED:
                counts["aborted"] += 1
            else:
                counts["unfinished"] += 1
        super().clear()


class _CheckedCohort(CohortSimulation):
    """The cohort driver with every member's outcomes tallied."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counts = {"committed": 0, "aborted": 0, "unfinished": 0}
        self.members: List[Member] = []

    def _make_member(self, client_id, master, injector):
        member = super()._make_member(client_id, master, injector)
        member.client.completed = _Tally(self.counts)
        self.members.append(member)
        return member


def _repeat_cohort(
    workload: Workload,
    params: ModelParameters,
    setup_only: bool = False,
    calibrate: bool = False,
) -> Repeat:
    entries: Dict[int, float] = {}
    clock = ProgramClock(calibrate)
    trace_end = [0.0]
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}

    def make_trace(build_trace):
        def probed(*args, **kwargs):
            trace = build_trace(*args, **kwargs)
            trace_end[0] = clock.now()
            return trace

        return probed

    def make_deliver(deliver):
        def probed(self, start, program):
            cycle = program.cycle
            if cycle not in first:
                # The trace was built up front: the loop is timed where
                # the cycle's time goes, in its replay.
                clock.sample_cycle(cycle)
                first[cycle] = clock.now()
            deliver(self, start, program)
            last[cycle] = clock.now()

        return probed

    gc.collect()
    with _build_entries(entries, clock, sample=False), patched(
        cohort_engine, "build_trace", make_trace
    ), patched(Member, "deliver", make_deliver):
        setup_loops = clock.sample()
        t0 = clock.now()
        sim = _CheckedCohort(params, scheme_factory=scheme_factory(workload.scheme))
        t1 = clock.now()
        if setup_only:
            return _setup_only(t1 - t0, setup_loops)
        result = sim.run()
        t2 = clock.now()
    cycles = result.cycles_completed
    det = _det(
        sim.metrics,
        cycles,
        sum(record.program.total_slots for record in sim.trace.records),
    )
    det["steps"] = float(sim.steps)
    counts = sim.counts
    # The cohort driver clears outcomes per cycle and keeps no history, so
    # its check is completion: every cycle ran and every attempt ended.
    attempted = counts["committed"] + counts["aborted"] + counts["unfinished"] + 1
    failed = counts["unfinished"] + int(cycles != params.sim.num_cycles)
    # The trace is built up front and replayed afterwards, so a cycle costs
    # its stretch of the trace plus its replay to every member; the wait in
    # between is not counted.
    traced = _intervals(entries, trace_end[0])
    per_cycle = [
        server + 1e3 * (last[c] - first[c])
        for c, server in zip(sorted(entries), traced)
    ]
    hits, lookups = _cache_totals(member.client for member in sim.members)
    return Repeat(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        cycles=cycles,
        deliveries_ms=per_cycle,
        cycle_ms=per_cycle,
        det=det,
        attempted=attempted,
        failed=failed,
        clients=params.sim.num_clients,
        cache_hits=hits,
        cache_lookups=lookups,
        steps=sim.steps,
        loop_ms=clock.loop_ms(sorted(entries)),
        setup_loop_ms=setup_loops,
    )


# -- live-inval ---------------------------------------------------------------


async def _live(
    workload: Workload, params: ModelParameters, setup_only: bool, calibrate: bool
) -> Repeat:
    clock = ProgramClock(calibrate)
    factory = scheme_factory(workload.scheme)
    listeners = params.sim.num_clients
    entries: Dict[int, float] = {}
    installed: Dict[int, float] = {}
    wire = [0]
    lags: List[int] = []
    clients: List[LiveClient] = []

    def on_build(cycle: int) -> None:
        heard = min((c._last_cycle or 0) for c in clients) if clients else 0
        lags.append(cycle - 1 - heard)

    def make_finalize(finalize):
        def probed(self):
            before = self._last_cycle
            finalize(self)
            if self._last_cycle != before:
                installed[self._last_cycle] = clock.now()

        return probed

    def make_encode(encode):
        def probed(self, program, start_slot):
            frames = encode(self, program, start_slot)
            wire[0] += sum(len(frame) for frame in frames)
            return frames

        return probed

    with _build_entries(entries, clock, on_build), patched(
        LiveClient, "_finalize_cycle", make_finalize
    ), patched(CycleCodec, "encode_cycle", make_encode):
        # RNG draw order of the discrete twin: engine first, then each
        # client's workload stream (as repro.live.oracle draws them).
        setup_loops = clock.sample()
        t0 = clock.now()
        master = random.Random(params.sim.seed)
        engine_rng = random.Random(master.getrandbits(64))
        server = LiveBroadcastServer(
            params,
            factory().requirements(),
            scheme_label=workload.scheme,
            engine_rng=engine_rng,
        )
        await server.start()
        clients.extend(
            LiveClient(
                server.host,
                server.port,
                scheme=factory(),
                client_id=client_id,
                rng=random.Random(master.getrandbits(64)),
                params=params,
            )
            for client_id in range(listeners)
        )
        tasks = [asyncio.ensure_future(client.run()) for client in clients]
        try:
            await server.wait_for_clients(listeners)
            while any(client.member is None for client in clients):
                await asyncio.sleep(0)
            t1 = clock.now()
            if setup_only:
                await server.stop()
                await asyncio.wait_for(asyncio.gather(*tasks), 60.0)
                return _setup_only(t1 - t0, setup_loops)
            await server.run()
            results = await asyncio.wait_for(asyncio.gather(*tasks), 60.0)
            t2 = clock.now()
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        finally:
            await server.stop()

    cycles = server.backend.cycles_completed
    merged = type(server.metrics)()
    merged.merge(server.metrics)
    for result in results:
        merged.merge(result.metrics)
    det = _det(merged, cycles, server.backend.total_slots)
    det["wire_bytes"] = float(wire[0])
    listener_clients = [result.client for result in results]
    committed = _committed(listener_clients)
    # Operations: committed queries checked, each cycle due at each
    # listener on the lossless loopback, and the server's cycle count.
    attempted = committed + listeners * params.sim.num_cycles + 1
    failed = len(violations(listener_clients, server.database))
    for result in results:
        failed += result.cycles_missed
        failed += abs(params.sim.num_cycles - result.cycles_heard)
    failed += int(cycles != params.sim.num_cycles)
    deliveries = [
        1e3 * (installed[c] - entries[c]) for c in sorted(entries) if c in installed
    ]
    failed += params.sim.num_cycles - len(deliveries)
    # Backpressure holds the server to its slowest listener, so the build
    # period is the rate the listeners sustain.
    final = installed.get(max(entries), t2) if entries else t2
    hits, lookups = _cache_totals(listener_clients)
    return Repeat(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        cycles=cycles,
        deliveries_ms=deliveries,
        cycle_ms=_intervals(entries, final),
        det=det,
        attempted=attempted,
        failed=failed,
        clients=listeners,
        listeners=listeners,
        cache_hits=hits,
        cache_lookups=lookups,
        engine_ids=[id(server.engine)],
        lags=lags,
        loop_ms=clock.loop_ms(sorted(entries)),
        setup_loop_ms=setup_loops,
    )


def _repeat_live(
    workload: Workload,
    params: ModelParameters,
    setup_only: bool = False,
    calibrate: bool = False,
) -> Repeat:
    gc.collect()
    return asyncio.run(_live(workload, params, setup_only, calibrate))


# -- the aired bytes of the simulated workloads ---------------------------------


#: Cycles the server-only replay encodes to price the simulated workloads'
#: wire bytes; the replay airs exactly the measured run's first cycles.
WIRE_CYCLES = 60


def wire_bytes(workload: Workload, params: ModelParameters) -> float:
    """Encoded bytes per cycle (summed over shards) the simulated
    workloads would air, from a server-only replay of their first
    :data:`WIRE_CYCLES` cycles.

    Clients never influence the server and the engine RNG is drawn before
    any client's, so a one-client run airs the very programs of the full
    run (the cohort driver airs the discrete run's programs too).  Its
    backend is stepped without the kernel, which leaves the client idle.
    """
    head = params.with_sim(
        num_clients=1, num_cycles=min(WIRE_CYCLES, params.sim.num_cycles)
    )
    factory = scheme_factory(workload.scheme)
    if workload.name == "shard-k4":
        sim = ShardedSimulation(head, factory, num_shards=4)
    else:
        sim = Simulation(head, scheme_factory=factory)
    codecs: Dict[int, CycleCodec] = {}
    total = [0]

    def make(build):
        def probed(self, cycle, outcome):
            program = build(self, cycle, outcome)
            codec = codecs.get(id(self))
            if codec is None:
                profile = WireProfile.from_params(params.server, self.requirements)
                codec = codecs[id(self)] = CycleCodec(profile)
            total[0] += sum(len(f) for f in codec.encode_cycle(program, 0))
            return program

        return probed

    with patched(ProgramBuilder, "build", make):
        for _ in sim.backend.process():
            pass
    return total[0] / head.sim.num_cycles


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="des-mv",
            why=(
                "server side: V=3 multiversion broadcast, 10 clients; the "
                "engine, item-state store and builder do most of the work"
            ),
            scheme="multiversion+cache",
            clients=10,
            cycles=600,
            server={"retention": 3},
            repeat=_repeat_des,
            window=20,
        ),
        Workload(
            name="cohort-sgt",
            why=(
                "client side: 200 SGT clients replayed by the cohort driver; "
                "per-client serialization-graph work dominates"
            ),
            scheme="sgt+cache",
            clients=200,
            cycles=25,
            server={},
            repeat=_repeat_cohort,
            window=1,
        ),
        Workload(
            name="live-inval",
            why=(
                "wire: real sockets on loopback, 2 listeners at full speed; "
                "encode, decode and fan-out dominate"
            ),
            scheme="inval+cache",
            clients=2,
            cycles=80,
            server={},
            repeat=_repeat_live,
            window=2,
        ),
        Workload(
            name="shard-k4",
            why=(
                "kernel and clients: 100 invalidation clients over 4 hash "
                "shards; dispatch, client steps and shard routing dominate"
            ),
            scheme="inval+cache",
            clients=100,
            cycles=120,
            server={},
            repeat=_repeat_shard,
            window=5,
        ),
    )
}
