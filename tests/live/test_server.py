"""Lifecycle pins for the live broadcast server.

The ISSUE's shutdown bug class: a stopped server must leave nothing
behind -- no bound socket (start/stop/start on the *same* port must
work back to back, which ``SO_REUSEADDR`` plus a full teardown
guarantees), no orphaned connection tasks, and ``stop()`` must be
idempotent and safe to race with ``run()``.
"""

import asyncio

import pytest

from repro.experiments.schemes import scheme_factory
from repro.live.clock import RealTimeClock
from repro.live.codec import HELLO, FrameStream
from repro.live.server import LiveBroadcastServer
from repro.oracle import oracle_params


def _make_server(num_cycles: int = 10, **kwargs) -> LiveBroadcastServer:
    params = oracle_params(2, seed=13, faults=False, num_cycles=num_cycles)
    scheme = scheme_factory("inval+cache")()
    return LiveBroadcastServer(params, scheme.requirements(), **kwargs)


def _leftover_tasks():
    return [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]


def test_start_stop_start_reuses_the_same_port():
    async def scenario():
        first = _make_server()
        await first.start()
        port = first.port
        assert port is not None
        await first.stop()

        # Rebinding the exact port immediately must not flake on
        # EADDRINUSE: the socket is opened with SO_REUSEADDR and stop()
        # fully released it.
        second = _make_server(port=port)
        await second.start()
        assert second.port == port
        await second.stop()
        assert _leftover_tasks() == []

    asyncio.run(scenario())


def test_stop_is_idempotent_and_safe_before_start():
    async def scenario():
        server = _make_server()
        await server.stop()  # never started: still a clean no-op
        await server.start()
        await server.stop()
        await server.stop()
        assert _leftover_tasks() == []

    asyncio.run(scenario())


def test_run_requires_start():
    async def scenario():
        server = _make_server()
        with pytest.raises(RuntimeError):
            await server.run()

    asyncio.run(scenario())


def test_stop_drains_connected_listeners_without_orphans():
    async def scenario():
        server = _make_server()
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        await server.wait_for_clients(1, timeout=5.0)

        # The listener heard its HELLO before anything aired.
        stream = FrameStream()
        frames = []
        while not frames:
            frames = stream.feed(await reader.read(1 << 16))
        assert frames[0].type == HELLO

        # Stopping with a live connection must complete promptly and
        # leave no connection-handler task behind.
        await asyncio.wait_for(server.stop(), 10.0)
        assert server._conn_tasks == set()
        assert server._writers == set()
        # The client sees EOF, not a hang.
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()
        await asyncio.wait_for(_await_closed(writer), 5.0)
        assert _leftover_tasks() == []

    async def _await_closed(writer):
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    asyncio.run(scenario())


def test_request_stop_interrupts_a_running_broadcast():
    async def scenario():
        # A slow clock so the broadcast is still mid-flight when the
        # stop request lands (500 cycles would otherwise take minutes).
        server = _make_server(num_cycles=500, clock=RealTimeClock(0.01))
        await server.start()
        runner = asyncio.ensure_future(server.run())
        await asyncio.sleep(0.15)
        server.request_stop()
        await asyncio.wait_for(runner, 10.0)
        assert 0 < server.backend.cycles_completed < 500
        await server.stop()
        assert _leftover_tasks() == []

    asyncio.run(scenario())
