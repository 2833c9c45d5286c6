"""Top-level simulation wiring: one server, one channel, many clients.

This is the main entry point of the library:

>>> from repro import ModelParameters, Simulation
>>> from repro.core import InvalidationOnly
>>> params = ModelParameters().with_sim(num_cycles=30, warmup_cycles=5)
>>> sim = Simulation(params, scheme_factory=lambda: InvalidationOnly())
>>> result = sim.run()
>>> 0.0 <= result.abort_rate <= 1.0
True

The server process loops forever: build the cycle's program, put it on
the air, transmit it slot by slot, commit the cycle's update transactions
(visible next cycle), repeat.  Clients are pure listeners; the scalability
claim of the paper holds *by construction* -- there is no code path from
a client to the server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import modes
from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.schedule import Schedule
from repro.client.disconnect import DisconnectionModel, UnionDisconnections
from repro.client.machine import BroadcastClient
from repro.faults.injector import FaultInjector
from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.core.control import BroadcastRequirements, ReportSchedule
from repro.obs.trace import EV_ENGINE_STEP, Tracer, gate
from repro.resilience import build_client_resilience, resilience_seed
from repro.server.backend import ServerBackend
from repro.server.stack import ServerStack
from repro.sim.engine import Environment
from repro.stats.metrics import MetricsRegistry


@dataclass
class SimulationResult:
    """Aggregated outcome of one run."""

    params: ModelParameters
    scheme_label: str
    metrics: MetricsRegistry
    cycles_completed: int
    #: Mean broadcast length in slots over the run (sizing consequence).
    mean_cycle_slots: float
    clients: List[BroadcastClient] = field(default_factory=list)

    @property
    def abort_rate(self) -> float:
        """Fraction of attempts that aborted (Figures 5 and 6)."""
        ratio = self.metrics.get_ratio("attempt.committed")
        if ratio is None or ratio.total == 0:
            return 0.0
        return ratio.complement

    @property
    def acceptance_rate(self) -> float:
        """Fraction of attempts accepted (the paper's "concurrency")."""
        return 1.0 - self.abort_rate

    @property
    def mean_latency_cycles(self) -> float:
        """Mean cycles per *committed* transaction (Figure 8)."""
        sampler = self.metrics.get_sampler("txn.latency_cycles")
        if sampler is None or sampler.count == 0:
            return float("nan")
        return sampler.mean

    @property
    def mean_span(self) -> float:
        sampler = self.metrics.get_sampler("txn.span")
        if sampler is None or sampler.count == 0:
            return float("nan")
        return sampler.mean

    @property
    def committed_attempts(self) -> int:
        ratio = self.metrics.get_ratio("attempt.committed")
        return ratio.hits if ratio else 0

    @property
    def total_attempts(self) -> int:
        ratio = self.metrics.get_ratio("attempt.committed")
        return ratio.total if ratio else 0

    def abort_count(self, reason: str) -> int:
        counter = self.metrics.get_counter(f"abort.{reason}")
        return counter.value if counter else 0


class KernelSimulation:
    """The event-kernel side :class:`Simulation` and the sharded
    simulation share: tracer binding, the server process and result
    aggregation.  Subclasses build ``schemes``, ``clients`` and the
    backend between :meth:`_bind_kernel` and :meth:`_start_server`."""

    params: ModelParameters
    schemes: List[Scheme]
    clients: List[BroadcastClient]
    backend: ServerBackend

    def _bind_kernel(
        self, params: ModelParameters, tracer: Optional[Tracer]
    ) -> None:
        self.params = params
        self.env = Environment()
        self.metrics = MetricsRegistry()
        self._rng = random.Random(params.sim.seed)
        self.tracer = tracer
        self._trace_c = gate(tracer, "cycles")
        if tracer is not None and tracer.enabled:
            tracer.bind_clock(lambda: self.env.now)
            if tracer.engine:
                self.env.set_trace_hook(
                    lambda now, ev: tracer.emit(
                        EV_ENGINE_STEP, event=type(ev).__name__
                    )
                )

    def _start_server(self, backend: ServerBackend) -> None:
        self.backend = backend
        self._stop = self.env.event()
        self.env.process(self._server_process())

    def _server_process(self):
        yield from self.backend.process()
        self._stop.succeed()

    def run(self) -> SimulationResult:
        """Run to the configured number of cycles and aggregate results."""
        self.env.run(until=self._stop)
        return SimulationResult(
            params=self.params,
            scheme_label=self.schemes[0].label if self.schemes else "none",
            metrics=self.metrics,
            cycles_completed=self.backend.cycles_completed,
            mean_cycle_slots=self.backend.mean_cycle_slots,
            clients=self.clients,
        )


class Simulation(KernelSimulation):
    """Builds and runs one complete broadcast-push simulation."""

    def __init__(
        self,
        params: ModelParameters,
        scheme_factory: Callable[[], Scheme],
        schedule: Optional[Schedule] = None,
        disconnect_factory: Optional[Callable[[random.Random], DisconnectionModel]] = None,
        keep_history: bool = False,
        report_schedule: Optional[ReportSchedule] = None,
        interleaved_server: bool = False,
        tracer: Optional[Tracer] = None,
        columnar: bool = True,
    ) -> None:
        params.validate()
        self.report_schedule = report_schedule or ReportSchedule()
        modes.check(
            modes.DISCRETE,
            params,
            self.report_schedule,
            schedule=schedule,
            interleaved=interleaved_server,
            trace=tracer is not None,
            verify=keep_history,
        )
        self._bind_kernel(params, tracer)

        # Instantiate one scheme per client and merge their requirements.
        self.schemes: List[Scheme] = [
            scheme_factory() for _ in range(params.sim.num_clients)
        ]
        requirements = BroadcastRequirements(
            report_window=self.report_schedule.window
        )
        for scheme in self.schemes:
            requirements = requirements.merge(scheme.requirements())

        # -- server substrate: the engine RNG is the master's first draw --
        stack = ServerStack(
            params.server,
            requirements,
            random.Random(self._rng.getrandbits(64)),
            schedule=schedule,
            tracer=tracer,
            columnar=columnar,
            keep_history=keep_history,
            interleaved=interleaved_server,
        )
        self.database = stack.database
        self.item_state = stack.item_state
        self.version_store = stack.version_store
        self.engine = stack.engine
        self.builder = stack.builder

        # -- air interface and clients ------------------------------------------
        self.channel = BroadcastChannel(self.env)
        self.fault_injector: Optional[FaultInjector] = None
        if params.faults.active:
            self.fault_injector = FaultInjector(
                params.faults, params.sim, self.metrics, tracer=tracer
            )
        # Resilience bundles draw from their own seeded RNG tree (like
        # the fault injector), so enabling them never perturbs the
        # workload or fault streams.
        resilience_rng: Optional[random.Random] = None
        if params.resilience.active:
            resilience_rng = random.Random(
                resilience_seed(params.resilience, params.sim.seed)
            )
        self.clients: List[BroadcastClient] = []
        for client_id, scheme in enumerate(self.schemes):
            disconnect = None
            if disconnect_factory is not None:
                disconnect = disconnect_factory(
                    random.Random(self._rng.getrandbits(64))
                )
            client_channel: BroadcastChannel = self.channel
            if self.fault_injector is not None:
                client_channel = self.fault_injector.wrap(self.channel, client_id)
                storm = self.fault_injector.disconnections_for(client_id)
                if storm is not None:
                    disconnect = (
                        storm
                        if disconnect is None
                        else UnionDisconnections([disconnect, storm])
                    )
            resilience = None
            if resilience_rng is not None:
                resilience = build_client_resilience(
                    params.resilience,
                    params.sim.num_cycles,
                    random.Random(resilience_rng.getrandbits(64)),
                )
            self.clients.append(
                BroadcastClient(
                    env=self.env,
                    channel=client_channel,
                    scheme=scheme,
                    params=params.client,
                    metrics=self.metrics,
                    rng=random.Random(self._rng.getrandbits(64)),
                    disconnect=disconnect,
                    client_id=client_id,
                    warmup_cycles=params.sim.warmup_cycles,
                    tracer=tracer,
                    resilience=resilience,
                )
            )

        self._start_server(
            stack.backend(
                self.env,
                self.channel,
                params,
                self.metrics,
                self.report_schedule,
                self._trace_c,
            )
        )
