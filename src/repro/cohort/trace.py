"""Server pre-pass: compute the whole broadcast schedule once, up front.

Clients never influence the server (the paper's scalability property,
asserted by the test suite), so the server's entire output -- one
:class:`~repro.broadcast.program.BroadcastProgram` per cycle plus its
start instant -- is a pure function of the parameters and the seed.  The
cohort engine exploits that: it runs the server loop
(:class:`~repro.server.stack.CycleLoop`) *once*, records the per-cycle
programs, and then replays the trace to any number of client cohorts.

Programs are safe to retain: the incremental builder copy-on-writes its
records and buckets, and every record type is frozen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.config import ModelParameters
from repro.core.control import BroadcastRequirements
from repro.server.stack import CycleLoop, CycleRecord, ServerStack
from repro.stats.metrics import MetricsRegistry

__all__ = ["CycleRecord", "ServerTrace", "build_trace"]


@dataclass
class ServerTrace:
    """The server's complete, replayable output for one run."""

    records: List[CycleRecord]
    end_time: float
    cycles_completed: int
    mean_cycle_slots: float


def build_trace(
    params: ModelParameters,
    requirements: BroadcastRequirements,
    metrics: MetricsRegistry,
    rng: random.Random,
    columnar: bool = True,
) -> ServerTrace:
    """Run the server loop for every cycle and record the programs.

    ``rng`` must be the engine RNG drawn off the master seed exactly as
    ``Simulation.__init__`` draws it (the first ``getrandbits(64)``), so
    the update workload matches the discrete run's bit for bit.
    """
    stack = ServerStack(params.server, requirements, rng, columnar=columnar)
    loop = CycleLoop(stack, params, metrics)
    records = list(loop)
    return ServerTrace(
        records=records,
        end_time=loop.env.now,
        cycles_completed=loop.backend.cycles_completed,
        mean_cycle_slots=loop.backend.mean_cycle_slots,
    )
