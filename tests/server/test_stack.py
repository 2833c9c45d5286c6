"""One server stack, four consumers: every mode airs the same programs.

The discrete simulation, the cohort trace pre-pass, the live server's
cycle iterator (no sockets) and the one-shard sharded simulation all
build their server from :class:`repro.server.stack.ServerStack`.  Under
one seed they must air the same program every cycle, at the same start
instant, and observe the same broadcast-sizing metrics.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.cohort.trace import build_trace
from repro.core.control import BroadcastRequirements
from repro.experiments.schemes import scheme_factory
from repro.live.server import LiveBroadcastServer
from repro.oracle import oracle_params
from repro.runtime import Simulation
from repro.server.backend import SingleChannelBackend
from repro.server.stack import CycleLoop, ServerStack
from repro.shard.runtime import ShardedBroadcastBackend, ShardedSimulation
from repro.stats import names as metric_names
from repro.stats.metrics import MetricsRegistry
from tests.helpers import assert_programs_equal

SIZING = (
    metric_names.BROADCAST_SLOTS,
    metric_names.BROADCAST_CONTROL_SLOTS,
    metric_names.BROADCAST_OVERFLOW_SLOTS,
)

#: Organization -> the scheme that airs it.
LAYOUTS = {
    "flat": "inval",
    "overflow": "multiversion",
    "clustered": "multiversion/clustered",
    "sgt": "sgt",
}


class _Recorder:
    """A channel listener keeping every (start, program) it is shown."""

    def __init__(self, channel) -> None:
        self.channel = channel
        self.aired = []
        channel.subscribe(self)

    def on_cycle_start(self, program) -> None:
        self.aired.append((self.channel.cycle_start_time, program))


def _sizing(metrics: MetricsRegistry):
    samplers = dict(metrics.samplers())
    return {
        name: (samplers[name].count, samplers[name].exact_sum, samplers[name].maximum)
        for name in SIZING
    }


def _engine_rng(seed: int) -> random.Random:
    return random.Random(random.Random(seed).getrandbits(64))


def _run_all(layout: str, seed: int):
    """(aired, end_time, mean_slots, metrics) for each consumer."""
    params = oracle_params(clients=2, seed=seed, faults=False, num_cycles=25)
    factory = scheme_factory(LAYOUTS[layout])
    runs = {}

    sim = Simulation(params, scheme_factory=factory)
    recorder = _Recorder(sim.channel)
    result = sim.run()
    runs["des"] = (recorder.aired, sim.env.now, result.mean_cycle_slots, sim.metrics)

    sharded = ShardedSimulation(params, factory, num_shards=1)
    recorder = _Recorder(sharded.shards[0].channel)
    result = sharded.run()
    runs["shard"] = (
        recorder.aired, sharded.env.now, result.mean_cycle_slots, sharded.metrics
    )

    metrics = MetricsRegistry()
    trace = build_trace(
        params,
        BroadcastRequirements().merge(factory().requirements()),
        metrics,
        _engine_rng(seed),
    )
    runs["cohort"] = (
        [(record.start, record.program) for record in trace.records],
        trace.end_time,
        trace.mean_cycle_slots,
        metrics,
    )

    server = LiveBroadcastServer(
        params, factory().requirements(), engine_rng=_engine_rng(seed)
    )
    aired = [(record.start, record.program) for record in server.cycles]
    runs["live"] = (
        aired,
        server.cycles.env.now,
        server.backend.mean_cycle_slots,
        server.metrics,
    )
    return params, runs


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_every_consumer_airs_the_same_programs(layout, seed):
    params, runs = _run_all(layout, seed)
    reference, ref_end, ref_mean, ref_metrics = runs.pop("des")
    assert len(reference) == params.sim.num_cycles
    assert [program.cycle for _, program in reference] == list(
        range(1, params.sim.num_cycles + 1)
    )
    if layout in ("overflow", "clustered"):
        assert reference[-1][1].organization.value == layout
    for name, (aired, end, mean, metrics) in runs.items():
        assert len(aired) == len(reference), name
        for (start, program), (ref_start, ref_program) in zip(aired, reference):
            assert start == ref_start, name
            assert_programs_equal(program, ref_program)
        assert end == ref_end, name
        assert mean == ref_mean, name
        assert _sizing(metrics) == _sizing(ref_metrics), name


def test_stack_wiring_follows_the_requirements():
    params = oracle_params(clients=1, seed=3, faults=False)
    flat = ServerStack(params.server, BroadcastRequirements(), random.Random(1))
    assert flat.version_store is None
    assert flat.item_state.retention == 0
    assert flat.builder.item_state is flat.item_state
    assert flat.engine.database is flat.database

    multi = ServerStack(
        params.server,
        BroadcastRequirements(needs_old_versions=True),
        None,
        database=flat.database,
        retention=5,
    )
    assert multi.engine is None
    assert multi.database is flat.database
    assert multi.version_store is multi.item_state
    assert multi.item_state.retention == 5


def test_item_slice_restricts_store_and_engine():
    params = oracle_params(clients=1, seed=5, faults=False)
    items = tuple(range(1, params.server.broadcast_size + 1, 2))
    stack = ServerStack(
        params.server,
        BroadcastRequirements(needs_old_versions=True),
        random.Random(2),
        items=items,
    )
    updated = set()
    for cycle in range(1, 11):
        updated |= stack.engine.run_cycle(cycle).updated_items
    assert updated and updated <= set(items)


def test_only_the_stack_constructs_the_server():
    """One wiring: no other module under ``src/repro`` builds the
    item-state store, the update engine or the program builder."""
    import re
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    calls = re.compile(r"\b(make_item_state|TransactionEngine|ProgramBuilder)\(")
    callers = set()
    for path in root.rglob("*.py"):
        for line in path.read_text().splitlines():
            if calls.search(line) and not line.lstrip().startswith("def "):
                callers.add(path.relative_to(root).as_posix())
    assert callers == {"server/stack.py"}


def test_cycle_loop_starts_are_the_running_slot_sum():
    params = oracle_params(clients=1, seed=9, faults=False, num_cycles=12)
    stack = ServerStack(params.server, BroadcastRequirements(), random.Random(4))
    loop = CycleLoop(stack, params, MetricsRegistry())
    elapsed = 0
    for record in loop:
        assert record.start == elapsed
        assert record.cycle == record.program.cycle
        elapsed += record.program.total_slots
    assert loop.env.now == elapsed == loop.backend.total_slots
    assert loop.backend.cycles_completed == params.sim.num_cycles
    assert loop.backend.mean_cycle_slots == elapsed / params.sim.num_cycles


def test_engine_server_sizes_the_engine_not_the_builder():
    params = oracle_params(clients=1, seed=6, faults=False)
    share = replace(params.server, transactions_per_cycle=2, updates_per_cycle=3)
    stack = ServerStack(
        params.server, BroadcastRequirements(), random.Random(3), engine_server=share
    )
    assert stack.engine.params is share
    assert stack.builder.params is params.server
    outcome = stack.engine.run_cycle(1)
    assert len(outcome.transactions) == share.transactions_per_cycle


def test_shard_stacks_share_one_database_over_disjoint_slices():
    params = oracle_params(clients=2, seed=8, faults=False)
    sim = ShardedSimulation(params, scheme_factory("multiversion"), num_shards=3)
    slices = [set(shard.items) for shard in sim.shards]
    assert set().union(*slices) == set(range(1, params.server.broadcast_size + 1))
    assert sum(map(len, slices)) == params.server.broadcast_size
    assert any(shard.engine is not None for shard in sim.shards)
    for cycle in range(1, 6):
        for shard, items in zip(sim.shards, slices):
            if shard.engine is None:
                continue
            assert shard.engine.database is sim.database
            outcome = shard.engine.run_cycle(cycle)
            assert outcome.updated_items <= items
            for item in outcome.updated_items:
                assert sim.database.current(item).cycle == cycle + 1


@pytest.mark.parametrize("mode", ["des", "shard"])
def test_mean_cycle_slots_is_zero_before_any_cycle(mode):
    params = oracle_params(clients=1, seed=2, faults=False, num_cycles=5)
    factory = scheme_factory("inval")
    if mode == "des":
        sim = Simulation(params, scheme_factory=factory)
    else:
        sim = ShardedSimulation(params, factory, num_shards=2)
    assert sim.backend.cycles_completed == 0
    assert sim.backend.mean_cycle_slots == 0.0
    result = sim.run()
    assert result.cycles_completed == params.sim.num_cycles
    assert result.mean_cycle_slots == (
        sim.backend.total_slots / params.sim.num_cycles
    )


def test_sharded_mean_cycle_slots_is_the_superframe_mean():
    """Aligned superframes: each cycle lasts as long as its longest
    shard program, and the result averages those superframes."""
    params = oracle_params(clients=2, seed=4, faults=False, num_cycles=15)
    sim = ShardedSimulation(params, scheme_factory("inval"), num_shards=3)
    recorders = [_Recorder(shard.channel) for shard in sim.shards]
    result = sim.run()
    superframes = [
        max(program.total_slots for _, program in aired)
        for aired in zip(*(recorder.aired for recorder in recorders))
    ]
    assert len(superframes) == params.sim.num_cycles
    assert sim.backend.total_slots == sum(superframes)
    assert result.mean_cycle_slots == sum(superframes) / len(superframes)


def _count_calls(monkeypatch, cls):
    calls = []
    original = cls.process

    def process(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "process", process)
    return calls


def _drive(consumer: str, params, factory) -> None:
    if consumer == "des":
        Simulation(params, scheme_factory=factory).run()
    elif consumer == "shard":
        ShardedSimulation(params, factory, num_shards=1).run()
    elif consumer == "cohort":
        build_trace(
            params,
            BroadcastRequirements().merge(factory().requirements()),
            MetricsRegistry(),
            _engine_rng(params.sim.seed),
        )
    else:
        list(LiveBroadcastServer(params, factory().requirements()).cycles)


@pytest.mark.parametrize("consumer", ["des", "shard", "cohort", "live"])
def test_every_single_channel_consumer_runs_one_backend_loop(
    monkeypatch, consumer
):
    """Every single-channel mode airs its cycles through the one
    ``SingleChannelBackend.process`` loop, called once per run."""
    calls = _count_calls(monkeypatch, SingleChannelBackend)
    sharded = _count_calls(monkeypatch, ShardedBroadcastBackend)
    params = oracle_params(clients=1, seed=5, faults=False, num_cycles=6)
    _drive(consumer, params, scheme_factory("inval"))
    assert len(calls) == 1
    assert calls[0].cycles_completed == params.sim.num_cycles
    assert sharded == []


def test_multi_shard_run_drives_the_sharded_loop(monkeypatch):
    calls = _count_calls(monkeypatch, SingleChannelBackend)
    sharded = _count_calls(monkeypatch, ShardedBroadcastBackend)
    params = oracle_params(clients=1, seed=5, faults=False, num_cycles=6)
    sim = ShardedSimulation(params, scheme_factory("inval"), num_shards=2)
    sim.run()
    assert calls == []
    assert sharded == [sim.backend]
    assert sim.backend.cycles_completed == params.sim.num_cycles


@pytest.mark.parametrize("mode", ["des", "shard", "live"])
def test_server_parts_stay_reachable(mode):
    """Each mode exposes the stack it built: the same database under the
    engine, the builder and the loop."""
    params = oracle_params(clients=1, seed=3, faults=False, num_cycles=4)
    factory = scheme_factory("multiversion")
    if mode == "des":
        sim = Simulation(params, scheme_factory=factory)
        assert sim.builder.item_state is sim.item_state
        assert sim.version_store is sim.item_state
        assert len(sim.clients) == params.sim.num_clients
        engines = [sim.engine]
        backend = sim.backend
    elif mode == "shard":
        sim = ShardedSimulation(params, factory, num_shards=2)
        engines = [shard.engine for shard in sim.shards]
        backend = sim.backend
    else:
        sim = LiveBroadcastServer(params, factory().requirements())
        engines = [sim.engine]
        backend = sim.backend
        assert backend is sim.cycles.backend
        assert backend.metrics is sim.metrics
    assert all(engine.database is sim.database for engine in engines)
    assert backend.cycles_completed == 0
