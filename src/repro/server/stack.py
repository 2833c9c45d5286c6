"""One server stack: the substrate every mode builds its server from.

In the paper (Section 2) the server is a single loop -- build the
cycle's program, air it, commit the cycle's updates -- and no client can
influence it, so its output is a pure function of the parameters and the
seed.  :class:`ServerStack` wires that substrate once:
:class:`~repro.server.database.Database` → item-state store →
version-store view → :class:`~repro.server.transactions.TransactionEngine`
→ :class:`~repro.server.broadcast.ProgramBuilder`.  The discrete and
sharded simulations drive it through the event kernel; :class:`CycleLoop`
steps the same :class:`~repro.server.backend.SingleChannelBackend` loop
with a plain clock, for the cohort trace, the live server and anything
else that only needs the aired programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.broadcast.program import BroadcastProgram
from repro.broadcast.schedule import Schedule
from repro.config import ModelParameters, ServerParameters
from repro.core.control import BroadcastRequirements, ReportSchedule
from repro.obs.trace import Tracer
from repro.server.backend import SingleChannelBackend
from repro.server.broadcast import ProgramBuilder
from repro.server.database import Database
from repro.server.itemstate import ItemStateStore, make_item_state
from repro.server.transactions import TransactionEngine
from repro.stats.metrics import MetricsRegistry


class ServerStack:
    """Database, item-state store, update engine and program builder.

    The old-version view (``version_store``) stays None for requirements
    that broadcast no old versions -- the builder keys SGT control sizing
    and has-old pointers off that -- while the store itself always exists
    so record/report assembly can use its columns.

    ``rng`` seeds the update engine; ``None`` builds no engine (a shard
    that owns no update mass).  ``items`` restricts the stack to a slice
    of the item universe: the store holds only those columns and the
    engine updates only those items, under ``engine_server`` (the shard's
    share of the workload) when given.  ``database`` shares one database
    between several stacks.
    """

    def __init__(
        self,
        server: ServerParameters,
        requirements: BroadcastRequirements,
        rng: Optional[random.Random],
        *,
        database: Optional[Database] = None,
        retention: Optional[int] = None,
        items: Optional[Sequence[int]] = None,
        engine_server: Optional[ServerParameters] = None,
        schedule: Optional[Schedule] = None,
        tracer: Optional[Tracer] = None,
        columnar: bool = True,
        incremental: bool = True,
        keep_history: bool = False,
        interleaved: bool = False,
    ) -> None:
        old = requirements.needs_old_versions
        if retention is None:
            retention = server.retention
        self.database = (
            database if database is not None else Database(server.broadcast_size)
        )
        self.item_state: ItemStateStore = make_item_state(
            self.database,
            retention=retention if old else 0,
            columnar=columnar,
            items=items,
            items_per_bucket=server.items_per_bucket,
        )
        self.version_store: Optional[ItemStateStore] = (
            self.item_state if old else None
        )
        self.engine: Optional[TransactionEngine] = None
        if rng is not None:
            self.engine = TransactionEngine(
                engine_server or server,
                self.database,
                version_store=self.version_store,
                rng=rng,
                keep_history=keep_history,
                interleaved=interleaved,
                restrict_items=frozenset(items) if items is not None else None,
            )
        self.builder = ProgramBuilder(
            server,
            self.database,
            version_store=self.version_store,
            schedule=schedule,
            requirements=requirements,
            tracer=tracer,
            incremental=incremental,
            item_state=self.item_state,
        )

    def backend(
        self,
        env,
        channel,
        params: ModelParameters,
        metrics: MetricsRegistry,
        report_schedule: Optional[ReportSchedule] = None,
        trace_cycles: Optional[Tracer] = None,
    ) -> SingleChannelBackend:
        """The single-channel server loop over this stack."""
        return SingleChannelBackend(
            env=env,
            params=params,
            report_schedule=report_schedule or ReportSchedule(),
            metrics=metrics,
            engine=self.engine,
            builder=self.builder,
            channel=channel,
            trace_cycles=trace_cycles,
        )


@dataclass(frozen=True)
class CycleRecord:
    """One broadcast cycle as aired: its program and start instant."""

    cycle: int
    start: float
    program: BroadcastProgram


class _ProgramFeed:
    """The backend's channel seam: captures each cycle's program."""

    __slots__ = ("program",)

    def __init__(self) -> None:
        self.program: Optional[BroadcastProgram] = None

    def begin_cycle(self, program: BroadcastProgram) -> None:
        self.program = program


class CycleLoop:
    """The server loop stepped without the event kernel.

    Iterating yields one :class:`CycleRecord` per cycle as it goes on
    air; the next step commits that cycle's updates and builds the next
    program.  Cycle starts are exact integers, so the instants equal the
    discrete run's.  One report per cycle: sub-cycle interim reports need
    the event kernel.  Iterate once: the stack's state advances with the
    loop.
    """

    def __init__(
        self, stack: ServerStack, params: ModelParameters, metrics: MetricsRegistry
    ) -> None:
        # Imported here: the cohort package imports the runtime, which
        # imports this module.
        from repro.cohort.shim import CohortEnv

        self.env = CohortEnv()
        self._feed = _ProgramFeed()
        self.backend = stack.backend(self.env, self._feed, params, metrics)

    def __iter__(self) -> Iterator[CycleRecord]:
        for wake in self.backend.process():
            program = self._feed.program
            yield CycleRecord(cycle=program.cycle, start=self.env.now, program=program)
            self.env.now = wake.at
