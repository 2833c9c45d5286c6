"""One live broadcast on loopback: the live twin of a discrete run.

:func:`run_live` airs a configuration from a
:class:`~repro.live.server.LiveBroadcastServer` to
:class:`~repro.live.client.LiveClient` listeners over real sockets,
optionally behind a seeded :class:`~repro.live.chaos.ChaosProxy`.  Its
RNG draw order mirrors ``Simulation.__init__`` under the shared master
seed, so on a lossless wire the merged registries equal the discrete
run's exactly -- the claim ``python -m repro.oracle live`` checks.
"""

from __future__ import annotations

import asyncio
import random
from typing import List, Optional, Tuple

from repro.config import FaultParameters, ModelParameters
from repro.experiments.schemes import scheme_factory
from repro.faults.injector import FaultInjector
from repro.live.chaos import ChaosProxy
from repro.live.client import LiveClient, LiveClientResult
from repro.live.server import LiveBroadcastServer
from repro.stats.metrics import MetricsRegistry


async def run_live(
    params: ModelParameters,
    scheme: str,
    *,
    faults: bool,
    keep_history: bool = False,
    chaos: Optional[FaultParameters] = None,
) -> Tuple[LiveBroadcastServer, List[LiveClientResult], MetricsRegistry]:
    """One live run on loopback; returns (server, results, merged metrics).

    RNG draw order mirrors ``Simulation.__init__`` under the shared
    master seed: the engine RNG first, then per client (in id order) the
    fault pipeline / storm draws and the workload RNG -- so lossless runs
    share every random stream with their DES twin.
    """
    factory = scheme_factory(scheme)
    probe = factory()
    num_clients = params.sim.num_clients

    master = random.Random(params.sim.seed)
    engine_rng = random.Random(master.getrandbits(64))
    fault_metrics = MetricsRegistry()
    injector: Optional[FaultInjector] = None
    if faults and params.faults.active:
        injector = FaultInjector(params.faults, params.sim, fault_metrics)

    server = LiveBroadcastServer(
        params,
        probe.requirements(),
        scheme_label=scheme,
        engine_rng=engine_rng,
        keep_history=keep_history,
    )
    await server.start()
    assert server.port is not None
    proxy: Optional[ChaosProxy] = None
    connect_port = server.port
    if chaos is not None:
        proxy = ChaosProxy(
            server.host,
            server.port,
            chaos,
            num_cycles=params.sim.num_cycles,
            seed=params.sim.seed,
        )
        await proxy.start()
        assert proxy.port is not None
        connect_port = proxy.port

    # The injector draws from its own seed tree, so only the order of the
    # master draws (engine, then one workload RNG per client) matters.
    clients = [
        LiveClient(
            server.host,
            connect_port,
            scheme=factory(),
            client_id=client_id,
            rng=random.Random(master.getrandbits(64)),
            pipeline=None if injector is None else injector.pipeline_for(client_id),
            disconnect=(
                None if injector is None else injector.disconnections_for(client_id)
            ),
            params=params,
        )
        for client_id in range(num_clients)
    ]
    try:
        tasks = [asyncio.ensure_future(client.run()) for client in clients]
        try:
            await server.wait_for_clients(num_clients)
            await server.run()
            results = await asyncio.wait_for(asyncio.gather(*tasks), 60.0)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
    finally:
        await server.stop()
        if proxy is not None:
            await proxy.stop()

    merged = MetricsRegistry()
    merged.merge(server.metrics)
    merged.merge(fault_metrics)
    for result in results:
        merged.merge(result.metrics)
    return server, list(results), merged
