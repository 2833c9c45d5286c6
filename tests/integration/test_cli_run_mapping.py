"""``repro run`` / ``repro serve`` flag mapping (latent-bug regression).

Neither command re-forwards argv -- each maps its flags into
``ModelParameters`` and constructor keyword arguments directly.  The
drift mode: a flag the parser accepts whose value never reaches the
run.  These tests set *every* flag to a non-default value, intercept
the ``Simulation`` / ``LiveBroadcastServer`` the CLI builds, and assert
each value landed where it belongs.  ``run`` and ``serve`` share one
parent parser for the model flags, so both must map them identically.
"""

from repro import cli
from repro.experiments.schemes import scheme_factory
from repro.stats.metrics import MetricsRegistry

#: The server, client and simulation flags ``run`` and ``serve`` share.
MODEL_FLAGS = [
    "--scheme", "multiversion+cache",
    "--cycles", "33",
    "--warmup", "4",
    "--clients", "7",
    "--seed", "99",
    "--broadcast-size", "222",
    "--update-range", "111",
    "--updates", "13",
    "--offset", "17",
    "--ops", "5",
    "--read-range", "66",
    "--cache-size", "44",
    "--think-time", "1.5",
    "--retention", "9",
    "--report-window", "3",
    "--no-columnar",
]


def _assert_model(params):
    server, client, sim = params.server, params.client, params.sim
    assert (server.broadcast_size, server.update_range, server.updates_per_cycle) == (222, 111, 13)
    assert (server.offset, server.retention) == (17, 9)
    assert (client.ops_per_query, client.read_range, client.cache_size) == (5, 66, 44)
    assert client.think_time == 1.5
    assert (sim.num_cycles, sim.warmup_cycles, sim.num_clients, sim.seed) == (33, 4, 7, 99)


class _FakeResult:
    scheme_label = "stub"
    cycles_completed = 0
    mean_cycle_slots = 0.0
    total_attempts = 0
    committed_attempts = 0
    abort_rate = 0.0
    mean_latency_cycles = 0.0
    mean_span = 0.0
    metrics = MetricsRegistry()


def test_run_maps_every_flag_into_the_simulation(monkeypatch):
    captured = {}

    class FakeSimulation:
        def __init__(self, params, scheme_factory=None, **kwargs):
            captured["params"] = params
            captured["kwargs"] = kwargs
            captured["scheme"] = scheme_factory()

        def run(self):
            return _FakeResult()

    monkeypatch.setattr(cli, "Simulation", FakeSimulation)
    code = cli.main(
        [
            "run",
            *MODEL_FLAGS,
            "--reports-per-cycle", "2",
            "--interleaved-server",
            "--slot-loss", "0.01",
            "--burst-loss", "0.02",
            "--burst-length", "5.0",
            "--control-loss", "0.03",
            "--truncation", "0.04",
            "--report-delay", "0.05",
            "--storm-rate", "0.06",
            "--fault-seed", "123",
            "--retry-policy", "backoff",
            "--backoff-base", "2",
            "--backoff-cap", "16",
            "--backoff-jitter", "0.1",
            "--deadline", "12",
            "--watchdog", "3",
            "--checkpoint", "4",
            "--catchup-window", "6",
            "--crash-rate", "0.07",
            "--crash-length", "2.5",
            "--degrade-after", "5",
            "--recover-after", "8",
            "--resilience-seed", "321",
        ]
    )
    assert code == 0

    params = captured["params"]
    _assert_model(params)

    faults = params.faults
    assert (faults.slot_loss, faults.burst_rate, faults.burst_length) == (0.01, 0.02, 5.0)
    assert (faults.control_loss, faults.truncation) == (0.03, 0.04)
    assert (faults.report_delay, faults.storm_rate, faults.seed) == (0.05, 0.06, 123)

    res = params.resilience
    assert (res.retry_policy, res.backoff_base, res.backoff_cap) == ("backoff", 2, 16)
    assert (res.backoff_jitter, res.deadline_cycles, res.watchdog_attempts) == (0.1, 12, 3)
    assert (res.checkpoint_interval, res.catchup_window) == (4, 6)
    assert (res.crash_rate, res.crash_length) == (0.07, 2.5)
    assert (res.degrade_after, res.recover_after, res.seed) == (5, 8, 321)

    kwargs = captured["kwargs"]
    assert kwargs["report_schedule"].per_cycle == 2
    assert kwargs["report_schedule"].window == 3
    assert kwargs["interleaved_server"] is True
    assert kwargs["columnar"] is False
    assert kwargs["keep_history"] is False
    assert type(captured["scheme"]).__name__ == "MultiversionBroadcast"


def test_serve_maps_the_shared_model_flags_like_run(monkeypatch):
    import repro.live.server as live_server

    captured = {}

    class FakeServer:
        host, port, end_time = "127.0.0.1", 0, 0.0

        class backend:
            cycles_completed = 0

        def __init__(self, params, requirements, **kwargs):
            captured["params"] = params
            captured["requirements"] = requirements
            captured["kwargs"] = kwargs

        async def start(self):
            pass

        async def run(self):
            pass

        async def stop(self):
            pass

        def request_stop(self):
            pass

    monkeypatch.setattr(live_server, "LiveBroadcastServer", FakeServer)
    code = cli.main(
        ["serve", *MODEL_FLAGS, "--host", "0.0.0.0", "--port", "0",
         "--slot-seconds", "0.01"]
    )
    assert code == 0
    _assert_model(captured["params"])
    kwargs = captured["kwargs"]
    assert kwargs["scheme_label"] == "multiversion+cache"
    assert kwargs["report_schedule"].window == 3
    assert kwargs["columnar"] is False
    assert (kwargs["host"], kwargs["port"]) == ("0.0.0.0", 0)
    assert kwargs["clock"].slot_seconds == 0.01
    expected = scheme_factory("multiversion+cache")().requirements()
    assert captured["requirements"] == expected
