"""Every (mode, feature) pair of :mod:`repro.modes`, driven end to end.

Each pair is requested the way a user would ask for it: a ``repro run``
flag for the simulation modes, a constructor argument where the feature
has no flag (a custom schedule) or the mode has no ``run`` surface
(live).  A supported pair runs a tiny world -- and where the mode
supports ``--verify``, the correctness oracle reports 0 violations.  A
refused pair exits 2 (or raises ValueError at the constructor) with the
table's message, which names the flag and the mode.  A pair no surface
can express (``--shards`` selects sharded mode, so the single-channel
simulation never sees it) is asked of the table itself.
"""

import asyncio
from pathlib import Path

import pytest

from repro import modes
from repro.broadcast.schedule import BroadcastDiskSchedule
from repro.cli import main
from repro.cohort import CohortSimulation
from repro.core.control import ReportSchedule
from repro.experiments.schemes import scheme_factory
from repro.live.loopback import run_live
from repro.live.server import LiveBroadcastServer
from repro.oracle import oracle_params
from repro.runtime import Simulation
from repro.shard import ShardedSimulation, sharded_violations
from repro.verify import violations

WORLD = [
    "--scheme", "inval+cache",
    "--cycles", "12",
    "--warmup", "2",
    "--clients", "2",
    "--broadcast-size", "60",
    "--update-range", "30",
    "--updates", "4",
    "--offset", "10",
    "--read-range", "30",
    "--cache-size", "10",
    "--ops", "3",
]

MODE_ARGS = {
    modes.DISCRETE: [],
    modes.COHORT: ["--cohorts"],
    modes.SHARDED: ["--shards", "2"],
    modes.SHARD1: ["--shards", "1"],
}

FEATURE_ARGS = {
    modes.RESILIENCE: ["--crash-rate", "0.1"],
    modes.SUBCYCLE_REPORTS: ["--reports-per-cycle", "2"],
    modes.REPORT_WINDOW: ["--report-window", "2"],
    modes.INTERLEAVED: ["--interleaved-server"],
    modes.TRACE: ["--trace", "{tmp}/run.jsonl"],
    modes.VERIFY: ["--verify"],
    modes.FAULTS: ["--slot-loss", "0.05"],
    modes.SHARDS: ["--shards", "2"],
    modes.PARTITIONER: ["--partitioner", "range"],
    modes.SHARD_CONSISTENCY: ["--shard-consistency", "epoch"],
    modes.CROSS_SHARD_FRACTION: ["--cross-shard-fraction", "0.5"],
    modes.COHORT_SIZE: ["--cohort-size", "1"],
}

PAIRS = [(mode, feature) for mode in modes.MODES for feature in modes.FEATURES]


def _ids(pairs):
    return [f"{mode}-{feature}".replace(" ", "") for mode, feature in pairs]


def _oracle_line(bad) -> str:
    return f"correctness oracle: {len(bad)} violation(s)"


def _ask_table(mode, feature):
    try:
        modes.check_feature(mode, feature)
    except ValueError as error:
        return 2, str(error)
    return 0, ""


def _constructed(build):
    """Run a constructor-built world: (0, oracle line) or (2, refusal)."""
    try:
        return 0, _oracle_line(build())
    except ValueError as error:
        return 2, str(error)


def _custom_schedule(mode):
    params = oracle_params(2, seed=7, faults=False, num_cycles=12)
    factory = scheme_factory("inval+cache")
    schedule = BroadcastDiskSchedule.classic(params.server.broadcast_size)
    if mode == modes.DISCRETE:

        def build():
            sim = Simulation(params, factory, schedule=schedule, keep_history=True)
            sim.run()
            return violations(sim.clients, sim.database, sim.engine.history)

        return _constructed(build)
    if mode in (modes.SHARDED, modes.SHARD1):

        def build():
            sim = ShardedSimulation(
                params,
                factory,
                num_shards=2 if mode == modes.SHARDED else 1,
                schedule=schedule,
                keep_history=True,
            )
            sim.run()
            return sharded_violations(sim)

        return _constructed(build)
    # CohortSimulation and the live server take no schedule argument.
    return _ask_table(mode, modes.CUSTOM_SCHEDULE)


def _live(feature, capsys):
    params = oracle_params(2, seed=7, faults=False, num_cycles=10)
    requirements = scheme_factory("inval+cache")().requirements()
    if feature == modes.RESILIENCE:
        resilient = params.with_resilience(crash_rate=0.1)
        return _constructed(lambda: LiveBroadcastServer(resilient, requirements))
    if feature == modes.SUBCYCLE_REPORTS:
        schedule = ReportSchedule(per_cycle=2)
        return _constructed(
            lambda: LiveBroadcastServer(
                params, requirements, report_schedule=schedule
            )
        )
    if feature == modes.REPORT_WINDOW:
        # `repro serve` airs to an empty room; no listener commits anything.
        code = main(["serve", *WORLD, "--port", "0", "--report-window", "2"])
        return code, capsys.readouterr().out
    if feature in (modes.VERIFY, modes.FAULTS):
        if feature == modes.FAULTS:
            params = params.with_faults(slot_loss=0.05, seed=3)

        def build():
            server, results, _ = asyncio.run(
                run_live(params, "inval+cache", faults=True, keep_history=True)
            )
            return violations(
                [result.client for result in results],
                server.database,
                server.engine.history,
            )

        return _constructed(build)
    # Live mode has no flag or constructor argument for the rest.
    return _ask_table(modes.LIVE, feature)


def _request(mode, feature, tmp_path, capsys):
    """Ask ``mode`` for ``feature``; returns (exit code, output)."""
    if mode == modes.LIVE:
        return _live(feature, capsys)
    if feature == modes.CUSTOM_SCHEDULE:
        return _custom_schedule(mode)
    if mode == modes.DISCRETE and feature == modes.SHARDS:
        return _ask_table(mode, feature)
    extra = [arg.format(tmp=tmp_path) for arg in FEATURE_ARGS[feature]]
    if feature == modes.SHARDS and mode != modes.COHORT:
        extra = []  # --shards already selected this mode
    argv = ["run", *WORLD, *MODE_ARGS[mode], *extra]
    if feature != modes.VERIFY and modes.refusal(mode, modes.VERIFY) is None:
        argv.append("--verify")
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "mode,feature", PAIRS, ids=_ids(PAIRS)
)
def test_mode_feature_pair(mode, feature, tmp_path, capsys):
    code, text = _request(mode, feature, tmp_path, capsys)
    if modes.refusal(mode, feature) is None:
        assert code == 0, text
        empty_room = mode == modes.LIVE and feature == modes.REPORT_WINDOW
        if modes.refusal(mode, modes.VERIFY) is None and not empty_room:
            assert "correctness oracle: 0 violation(s)" in text, text
    else:
        assert code == 2, text
        assert modes.FEATURES[feature] in text
        assert modes.MODES[mode] in text


def _build_cohort(params, schedule):
    CohortSimulation(params, scheme_factory("inval"), report_schedule=schedule)


def _build_sharded(num_shards):
    def build(params, schedule):
        ShardedSimulation(
            params, scheme_factory("inval"), num_shards=num_shards,
            report_schedule=schedule,
        )

    return build


CONSTRUCTORS = {
    modes.COHORT: _build_cohort,
    modes.SHARDED: _build_sharded(2),
    modes.SHARD1: _build_sharded(1),
}


CONSTRUCTOR_REFUSALS = [
    (modes.COHORT, modes.RESILIENCE),
    (modes.COHORT, modes.SUBCYCLE_REPORTS),
    (modes.SHARDED, modes.RESILIENCE),
    (modes.SHARDED, modes.SUBCYCLE_REPORTS),
    (modes.SHARD1, modes.RESILIENCE),
]


@pytest.mark.parametrize(
    "mode,feature", CONSTRUCTOR_REFUSALS, ids=_ids(CONSTRUCTOR_REFUSALS)
)
def test_constructors_refuse_from_the_table(mode, feature):
    """The runtimes raise the table's own message, not a private one
    (``repro run`` asks the table first, so the matrix above reaches
    these constructors only through the CLI's check)."""
    params = oracle_params(2, seed=7, faults=False, num_cycles=10)
    schedule = ReportSchedule()
    if feature == modes.RESILIENCE:
        params = params.with_resilience(crash_rate=0.1)
    else:
        schedule = ReportSchedule(per_cycle=2)
    with pytest.raises(ValueError) as info:
        CONSTRUCTORS[mode](params, schedule)
    assert str(info.value) == _ask_table(mode, feature)[1]


def test_unknown_features_are_not_read_as_supported():
    with pytest.raises(KeyError):
        modes.refusal(modes.DISCRETE, "no-such-feature")
    with pytest.raises(KeyError):
        modes.check(
            modes.DISCRETE,
            oracle_params(1, seed=7, faults=False),
            ReportSchedule(),
            knobs={"shard": 2},
        )


def _design_rows():
    """The ``| feature | flag | marks... |`` rows of DESIGN §18."""
    text = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
    section = text.split("## 18. One mode table", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == len(modes.MODES) + 2 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[2:]
    return rows


def test_design_prints_the_table():
    rows = _design_rows()
    assert set(rows) == set(modes.FEATURES)
    for feature, marks in rows.items():
        expected = [
            "yes" if modes.refusal(mode, feature) is None else "no"
            for mode in modes.MODES
        ]
        assert marks == expected, feature
