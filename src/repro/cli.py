"""Command-line interface: run a simulation from the shell.

    python -m repro run --scheme sgt+cache --cycles 120 --clients 4
    python -m repro run --scheme inval --trace run.jsonl --trace-level read
    python -m repro trace summarize run.jsonl
    python -m repro bench --scenario smoke
    python -m repro schemes
    python -m repro sizes --updates 50 --span 3

Subcommands
-----------
``run``
    One simulation with the chosen scheme and knobs; prints the result
    summary (and, with ``--verify``, replays every committed query
    against the correctness oracle).  ``--trace FILE`` records a JSONL
    event trace plus a ``FILE.manifest.json`` provenance record.
    ``--cohorts`` and ``--shards K`` pick the mode; a flag the mode
    cannot honour is refused by :mod:`repro.modes` (exit 2).
``trace``
    Analyze a recorded trace: ``summarize``, ``timeline``, ``aborts``,
    ``airtime``.
``bench`` / ``experiments``
    Hand the rest of the command line unchanged to
    :mod:`repro.obs.bench` (``bench hotpath``: :mod:`repro.obs.hotpath`)
    and :mod:`repro.experiments`, whose own parsers read it.
``serve`` / ``listen``
    Live mode (:mod:`repro.live`): air a real broadcast over TCP /
    join one as a listening client.
``schemes``
    List the registered scheme labels.
``sizes``
    Print the analytic broadcast-size table (Figure 7 row) for the
    chosen operating point.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import modes
from repro.config import RETRY_POLICIES, ModelParameters
from repro.core.control import ReportSchedule
from repro.faults.presets import get_preset, preset_names
from repro.experiments.render import render_table
from repro.experiments.schemes import SCHEME_FACTORIES, scheme_factory
from repro.obs.analyze import TraceAnalyzer
from repro.obs.manifest import git_revision, write_manifest
from repro.obs.trace import JsonlSink, TraceLevel, Tracer
from repro.runtime import Simulation
from repro.server.sizing import SizeModel
from repro.shard.partition import PARTITIONERS
from repro.shard.scheme import CONSISTENCY_MODES


#: Subcommands whose remaining argv goes unchanged to another tool's main.
PASS_THROUGH = {
    "bench": (
        "simulator throughput / tracing-overhead benchmark; `bench hotpath` "
        "runs the per-event micro-suite (takes repro.obs.bench / "
        "repro.obs.hotpath flags)"
    ),
    "experiments": (
        "regenerate the paper's figures and tables (takes "
        "repro.experiments flags)"
    ),
}


def _model_flags() -> argparse.ArgumentParser:
    """Server, client and simulation flags shared by ``run`` and ``serve``."""
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument(
        "--scheme",
        default="sgt+cache",
        choices=sorted(SCHEME_FACTORIES),
        help="processing scheme (default: sgt+cache)",
    )
    model.add_argument("--cycles", type=int, default=120, help="broadcast cycles")
    model.add_argument("--warmup", type=int, default=10, help="warm-up cycles")
    model.add_argument("--clients", type=int, default=4, help="client count")
    model.add_argument("--seed", type=int, default=42, help="RNG seed")
    model.add_argument("--broadcast-size", type=int, default=1000, help="items (D)")
    model.add_argument("--update-range", type=int, default=500)
    model.add_argument("--updates", type=int, default=50, help="updates per cycle (U)")
    model.add_argument("--offset", type=int, default=100)
    model.add_argument("--ops", type=int, default=16, help="reads per query")
    model.add_argument("--read-range", type=int, default=250)
    model.add_argument("--cache-size", type=int, default=125)
    model.add_argument("--think-time", type=float, default=2.0)
    model.add_argument("--retention", type=int, default=16, help="S / V versions")
    model.add_argument(
        "--report-window", type=int, default=0, help="w-window retransmission"
    )
    model.add_argument(
        "--no-columnar",
        action="store_true",
        help=(
            "use the dict-backed reference item-state store instead of "
            "the array-backed columnar store (DESIGN §14); results are "
            "bit-identical, only the server hot path slows down"
        ),
    )
    return model


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scalable processing of read-only transactions in broadcast "
            "push (Pitoura & Chrysanthis, ICDCS 1999) -- reproduction CLI"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__} ({git_revision()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", parents=[_model_flags()], help="run one simulation"
    )
    run.add_argument(
        "--reports-per-cycle", type=int, default=1, help="sub-cycle reports (§7)"
    )
    run.add_argument(
        "--interleaved-server",
        action="store_true",
        help="run server transactions under the real 2PL lock manager",
    )
    run.add_argument(
        "--cohorts",
        action="store_true",
        help=(
            "advance the client population with the cohort engine "
            "(repro.cohort) instead of one kernel process per client; "
            "aggregates match the discrete engine exactly, memory stays "
            "bounded in --cohort-size, so --clients can reach 10^5+"
        ),
    )
    run.add_argument(
        "--cohort-size",
        type=int,
        default=None,
        metavar="N",
        help="clients advanced per cohort chunk (default: 4096)",
    )
    shard = run.add_argument_group(
        "sharding", "partition items over K broadcast channels (see repro.shard)"
    )
    shard.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=(
            "run the sharded multi-channel server with K shards "
            "(K=1 is bit-identical to the single-channel server)"
        ),
    )
    shard.add_argument(
        "--partitioner",
        default=None,
        choices=sorted(PARTITIONERS),
        help="item-to-shard mapping (default: hash)",
    )
    shard.add_argument(
        "--shard-consistency",
        default=None,
        choices=list(CONSISTENCY_MODES),
        help="cross-shard read consistency mode (default: local)",
    )
    shard.add_argument(
        "--cross-shard-fraction",
        type=float,
        default=None,
        metavar="F",
        help=(
            "steer this fraction of queries to span shards "
            "(default: the workload's natural mix)"
        ),
    )
    fault = run.add_argument_group(
        "fault injection", "degrade the air interface (see repro.faults)"
    )
    fault.add_argument(
        "--slot-loss", type=float, default=0.0, help="per-slot loss probability"
    )
    fault.add_argument(
        "--burst-loss", type=float, default=0.0, help="burst (fade) start probability"
    )
    fault.add_argument(
        "--burst-length", type=float, default=4.0, help="mean burst length in slots"
    )
    fault.add_argument(
        "--control-loss",
        type=float,
        default=0.0,
        help="control-bucket corruption probability",
    )
    fault.add_argument(
        "--truncation", type=float, default=0.0, help="cycle-truncation probability"
    )
    fault.add_argument(
        "--report-delay",
        type=float,
        default=0.0,
        help="late control-decode probability",
    )
    fault.add_argument(
        "--storm-rate",
        type=float,
        default=0.0,
        help="per-cycle disconnect-storm start probability",
    )
    fault.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="fault RNG seed (default: derived from --seed)",
    )
    fault.add_argument(
        "--preset",
        default=None,
        choices=preset_names(),
        metavar="NAME",
        help=(
            "named fault scenario; replaces the individual fault knobs "
            f"(known: {', '.join(preset_names())})"
        ),
    )
    fault.add_argument(
        "--severity",
        type=float,
        default=1.0,
        help="scale the preset's probabilities (default: 1.0)",
    )
    res = run.add_argument_group(
        "resilience", "client recovery and retry (see repro.resilience)"
    )
    res.add_argument(
        "--retry-policy",
        default="immediate",
        choices=sorted(RETRY_POLICIES),
        help="retry scheduling between attempts (default: immediate)",
    )
    res.add_argument(
        "--backoff-base", type=int, default=1, help="first backoff delay (cycles)"
    )
    res.add_argument(
        "--backoff-cap", type=int, default=8, help="max backoff delay (cycles)"
    )
    res.add_argument(
        "--backoff-jitter",
        type=float,
        default=0.0,
        help="jitter fraction added to each delay (seeded)",
    )
    res.add_argument(
        "--deadline",
        type=int,
        default=0,
        help="abandon a query after this many cycles (0 = never)",
    )
    res.add_argument(
        "--watchdog",
        type=int,
        default=0,
        help="escalate after N consecutive aborted attempts (0 = off)",
    )
    res.add_argument(
        "--checkpoint",
        type=int,
        default=0,
        help="checkpoint client state every N heard cycles (0 = off)",
    )
    res.add_argument(
        "--catchup-window",
        type=int,
        default=8,
        help="max outage length for incremental catch-up resync",
    )
    res.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="per-cycle client crash probability",
    )
    res.add_argument(
        "--crash-length",
        type=float,
        default=2.0,
        help="mean crash outage length in cycles",
    )
    res.add_argument(
        "--degrade-after",
        type=int,
        default=0,
        help="step the degradation ladder down after N faulty cycles (0 = off)",
    )
    res.add_argument(
        "--recover-after",
        type=int,
        default=3,
        help="step the ladder back up after N clean cycles",
    )
    res.add_argument(
        "--resilience-seed",
        type=int,
        default=None,
        help="resilience RNG seed (default: derived from --seed)",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help="replay every committed query against the correctness oracle",
    )
    trace_group = run.add_argument_group(
        "tracing", "record a structured event trace (see repro.obs)"
    )
    trace_group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL event trace (plus FILE.manifest.json)",
    )
    trace_group.add_argument(
        "--trace-level",
        default="query",
        choices=[level.name.lower() for level in TraceLevel if level > 0],
        help="trace depth (default: query)",
    )

    trace = sub.add_parser("trace", help="analyze a recorded JSONL trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    for name, help_text in (
        ("summarize", "overall event/outcome summary"),
        ("timeline", "per-transaction event timelines"),
        ("aborts", "abort counts by reason and by root cause"),
        ("airtime", "per-segment slot accounting from cycle events"),
    ):
        cmd = trace_sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="JSONL trace file")
        if name == "timeline":
            cmd.add_argument(
                "--txn", default=None, help="only this transaction id"
            )
            cmd.add_argument(
                "--client", type=int, default=None, help="only this client"
            )
            cmd.add_argument(
                "--limit", type=int, default=10, help="max timelines shown"
            )
        if name == "aborts":
            cmd.add_argument(
                "--all",
                action="store_true",
                help="include warm-up (unmeasured) aborts",
            )

    # These hand their argv to the tool's own parser unchanged (see main).
    for name, help_text in PASS_THROUGH.items():
        sub.add_parser(name, help=help_text, add_help=False)

    serve = sub.add_parser(
        "serve",
        parents=[_model_flags()],
        help="air a live broadcast over TCP (see repro.live)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7787, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--slot-seconds",
        type=float,
        default=0.0,
        help="wall-clock pacing per broadcast slot (0 = full speed)",
    )

    listen = sub.add_parser(
        "listen",
        help="join a live broadcast as one client (see repro.live)",
    )
    listen.add_argument("--host", default="127.0.0.1")
    listen.add_argument("--port", type=int, default=7787)
    listen.add_argument(
        "--scheme",
        default=None,
        choices=sorted(SCHEME_FACTORIES),
        help="override the scheme advertised in the server's HELLO",
    )
    listen.add_argument("--client-id", type=int, default=0)
    listen.add_argument(
        "--rng-seed",
        type=int,
        default=None,
        help="workload RNG seed (default: derived from the served seed)",
    )

    sub.add_parser("schemes", help="list scheme labels")

    sizes = sub.add_parser("sizes", help="analytic broadcast sizes (Figure 7)")
    sizes.add_argument("--updates", type=int, default=50)
    sizes.add_argument("--span", type=int, default=3)
    sizes.add_argument("--broadcast-size", type=int, default=1000)

    return parser


def _model_params(args: argparse.Namespace) -> ModelParameters:
    """The server, client and simulation flags ``run`` and ``serve`` share."""
    return (
        ModelParameters()
        .with_server(
            broadcast_size=args.broadcast_size,
            update_range=args.update_range,
            updates_per_cycle=args.updates,
            offset=args.offset,
            retention=args.retention,
        )
        .with_client(
            ops_per_query=args.ops,
            read_range=args.read_range,
            cache_size=args.cache_size,
            think_time=args.think_time,
        )
        .with_sim(
            num_cycles=args.cycles,
            warmup_cycles=args.warmup,
            num_clients=args.clients,
            seed=args.seed,
        )
    )


def _params_from(args: argparse.Namespace) -> ModelParameters:
    params = _model_params(args).with_resilience(
        retry_policy=args.retry_policy,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        backoff_jitter=args.backoff_jitter,
        deadline_cycles=args.deadline,
        watchdog_attempts=args.watchdog,
        checkpoint_interval=args.checkpoint,
        catchup_window=args.catchup_window,
        crash_rate=args.crash_rate,
        crash_length=args.crash_length,
        degrade_after=args.degrade_after,
        recover_after=args.recover_after,
        seed=args.resilience_seed,
    )
    if args.preset is not None:
        return get_preset(args.preset).apply(params, args.severity)
    return params.with_faults(
        slot_loss=args.slot_loss,
        burst_rate=args.burst_loss,
        burst_length=args.burst_length,
        control_loss=args.control_loss,
        truncation=args.truncation,
        report_delay=args.report_delay,
        storm_rate=args.storm_rate,
        seed=args.fault_seed,
    )


def _result_rows(result) -> List[List[str]]:
    """Summary-table rows every run mode prints."""
    rows = [
        ["scheme", result.scheme_label],
        ["cycles", str(result.cycles_completed)],
        ["mean bcast length (buckets)", f"{result.mean_cycle_slots:.1f}"],
        ["attempts", str(result.total_attempts)],
        ["committed", str(result.committed_attempts)],
        ["abort rate", f"{result.abort_rate:.3f}"],
        ["latency (cycles)", f"{result.mean_latency_cycles:.2f}"],
        ["span (cycles)", f"{result.mean_span:.2f}"],
    ]
    for name, counter in sorted(result.metrics.counters()):
        if name.startswith("abort."):
            rows.append([name, str(counter.value)])
    return rows


def _make_tracer(args, params) -> Optional[Tracer]:
    """``--trace FILE``: tracer plus manifest, shared by every run mode."""
    from repro import __version__

    if not args.trace:
        return None
    manifest_path = write_manifest(
        f"{args.trace}.manifest.json",
        params=params,
        scheme=args.scheme,
        extra={"trace": args.trace, "trace_level": args.trace_level},
    )
    tracer = Tracer(
        level=TraceLevel.parse(args.trace_level),
        sinks=[JsonlSink(args.trace)],
    )
    tracer.header(
        version=__version__,
        git_rev=git_revision(),
        scheme=args.scheme,
        seed=args.seed,
        manifest=str(manifest_path),
    )
    return tracer


def _run_mode(args: argparse.Namespace) -> str:
    if args.cohorts:
        return modes.COHORT
    if args.shards is None:
        return modes.DISCRETE
    return modes.SHARD1 if args.shards == 1 else modes.SHARDED


def _given(**knobs):
    """The knobs set on the command line; the rest keep the callee's default."""
    return {name: value for name, value in knobs.items() if value is not None}


def _build_sim(mode, args, params, schedule, tracer):
    factory = scheme_factory(args.scheme)
    columnar = not args.no_columnar
    if mode == modes.COHORT:
        from repro.cohort import CohortSimulation

        return CohortSimulation(
            params,
            scheme_factory=factory,
            report_schedule=schedule,
            columnar=columnar,
            **_given(cohort_size=args.cohort_size),
        )
    if mode == modes.DISCRETE:
        return Simulation(
            params,
            scheme_factory=factory,
            report_schedule=schedule,
            keep_history=args.verify,
            interleaved_server=args.interleaved_server,
            tracer=tracer,
            columnar=columnar,
        )
    from repro.shard import ShardedSimulation

    return ShardedSimulation(
        params,
        factory,
        num_shards=args.shards,
        cross_shard_fraction=args.cross_shard_fraction,
        report_schedule=schedule,
        keep_history=args.verify,
        tracer=tracer,
        columnar=columnar,
        **_given(
            partitioner=args.partitioner, consistency=args.shard_consistency
        ),
    )


def _mode_rows(mode, sim, result) -> List[List[str]]:
    """The rows only one mode prints, after the shared ones."""
    from repro.stats import names as metric_names

    metrics = result.metrics
    if mode == modes.COHORT:
        return [
            ["clients (cohort mode)", str(sim.params.sim.num_clients)],
            ["cohort size", str(sim.cohort_size)],
            ["client steps", str(sim.steps)],
        ]
    if mode == modes.DISCRETE:
        return []
    cross = metrics.get_counter(metric_names.SHARD_CROSS_COMMITS)
    rows = [
        ["shards", str(sim.num_shards)],
        ["partitioner", sim.partitioner.name],
        ["consistency", sim.consistency],
        ["cross-shard commits", str(cross.value if cross else 0)],
    ]
    if sim.consistency == "epoch":
        epoch = metrics.get_counter(metric_names.SHARD_EPOCH_ABORTS)
        rows.append(["epoch aborts", str(epoch.value if epoch else 0)])
    for shard in sim.shards:
        sampler = metrics.get_sampler(
            metric_names.shard_metric(shard.index, metric_names.BROADCAST_SLOTS)
        )
        if sampler is not None and sampler.count:
            rows.append(
                [
                    f"shard {shard.index} slots",
                    f"{sampler.mean:.1f} mean x {len(shard.items)} items",
                ]
            )
    return rows


def _extension_rows(params, result) -> List[List[str]]:
    """Fault and resilience counters, printed when those knobs are on."""
    from repro.stats import names as metric_names

    rows = []
    if params.faults.active:
        for name, value in sorted(result.metrics.fault_summary().items()):
            rows.append([name, str(value)])
    if params.resilience.active:
        for name in metric_names.RESILIENCE_COUNTERS:
            counter = result.metrics.get_counter(name)
            rows.append([name, str(counter.value if counter else 0)])
        ttr = result.metrics.get_sampler(metric_names.TIME_TO_RECOVER_CYCLES)
        if ttr is not None and ttr.count:
            rows.append(
                [metric_names.TIME_TO_RECOVER_CYCLES, f"{ttr.mean:.1f} mean"]
            )
    return rows


def _violations(mode, sim):
    """``--verify``: (transaction, why) for every committed query the
    correctness oracle rejects."""
    if mode == modes.DISCRETE:
        from repro.verify import violations

        bad = violations(sim.clients, sim.database, sim.engine.history)
        return [(txn, None) for txn in bad]
    from repro.shard import sharded_violations

    return sharded_violations(sim)


def _command_run(args: argparse.Namespace) -> int:
    mode = _run_mode(args)
    try:
        params = _params_from(args)
        schedule = ReportSchedule(
            per_cycle=args.reports_per_cycle, window=args.report_window
        )
        modes.check(
            mode,
            params,
            schedule,
            interleaved=args.interleaved_server,
            trace=bool(args.trace),
            verify=args.verify,
            knobs={
                modes.SHARDS: args.shards,
                modes.PARTITIONER: args.partitioner,
                modes.SHARD_CONSISTENCY: args.shard_consistency,
                modes.CROSS_SHARD_FRACTION: args.cross_shard_fraction,
                modes.COHORT_SIZE: args.cohort_size,
            },
        )
    except ValueError as error:
        print(f"run: {error}")
        return 2
    tracer = _make_tracer(args, params)
    try:
        sim = _build_sim(mode, args, params, schedule, tracer)
    except ValueError as error:
        if tracer is not None:
            tracer.close()
        print(f"run: {error}")
        return 2
    result = sim.run()
    if tracer is not None:
        tracer.close()
        print(f"trace written to {args.trace}")

    rows = (
        _result_rows(result)
        + _mode_rows(mode, sim, result)
        + _extension_rows(params, result)
    )
    print(render_table(["measure", "value"], rows, title="simulation result"))

    if args.verify:
        bad = _violations(mode, sim)
        print(f"correctness oracle: {len(bad)} violation(s)")
        if bad:
            for txn, why in bad[:5]:
                tag = f" [{why}]" if why else ""
                print(f"  {txn.txn_id}{tag}: {dict(txn.reads)}")
            return 1
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    analyzer = TraceAnalyzer.from_jsonl(args.file)

    if args.trace_command == "summarize":
        info = analyzer.summary()
        rows = [
            ["events", str(info["events"])],
            ["cycles", str(info["cycles"])],
            ["last cycle", str(info["last_cycle"])],
            ["t range", f"{info['t_min']:.1f} .. {info['t_max']:.1f}"],
            ["accepted (measured)", f"{info['accepted']} ({info['accepted_measured']})"],
            ["aborted (measured)", f"{info['aborted']} ({info['aborted_measured']})"],
        ]
        header = info["header"]
        if header:
            for key in ("version", "git_rev", "scheme", "seed", "level"):
                if key in header:
                    rows.append([key, str(header[key])])
        print(render_table(["measure", "value"], rows, title=f"trace {args.file}"))
        kind_rows = [
            [kind, str(count)]
            for kind, count in sorted(analyzer.kind_counts().items())
        ]
        print(render_table(["event kind", "count"], kind_rows))
        return 0

    if args.trace_command == "timeline":
        lines = analyzer.timelines(txn=args.txn, client=args.client)
        if not lines:
            print("no matching query events in trace")
            return 1
        for tid in sorted(lines)[: args.limit]:
            print(f"{tid}:")
            for event in lines[tid]:
                extra = {
                    k: v
                    for k, v in event.items()
                    if k not in ("t", "kind", "txn", "client")
                }
                print(f"  t={event['t']:<8g} {event['kind']:<14} {extra}")
        shown = min(len(lines), args.limit)
        if shown < len(lines):
            print(f"... {len(lines) - shown} more (raise --limit)")
        return 0

    if args.trace_command == "aborts":
        measured_only = not args.all
        breakdown = analyzer.abort_breakdown(measured_only=measured_only)
        causes = analyzer.abort_causes(measured_only=measured_only)
        scope = "measured attempts" if measured_only else "all attempts"
        rows = [[r, str(n)] for r, n in sorted(breakdown.items())]
        print(render_table(["reason", "count"], rows, title=f"aborts by reason ({scope})"))
        rows = [[c, str(n)] for c, n in sorted(causes.items())]
        print(render_table(["root cause", "count"], rows, title="aborts by root cause"))
        return 0

    if args.trace_command == "airtime":
        totals = analyzer.airtime_totals()
        if not totals["cycles"]:
            print("no cycle.start events in trace (record at level >= cycle)")
            return 1
        rows = [
            [
                seg,
                str(int(totals[seg])),
                f"{totals[f'{seg}_fraction']:.1%}",
            ]
            for seg in ("control", "index", "data", "overflow")
        ]
        aired = int(totals["aired"])
        rows.append(["aired", str(aired), "100.0%"])
        if aired != int(totals["total"]):
            rows.append(
                ["superframe total", str(int(totals["total"])), "--"]
            )
        print(
            render_table(
                ["segment", "slots", "share"],
                rows,
                title=f"airtime over {int(totals['cycles'])} cycles",
            )
        )
        per_shard = analyzer.shard_airtime()
        if per_shard:
            aired = sum(row["total"] for row in per_shard.values())
            rows = [
                [
                    str(shard),
                    str(row["control"]),
                    str(row["index"]),
                    str(row["data"]),
                    str(row["overflow"]),
                    str(row["total"]),
                    f"{row['total'] / aired:.1%}" if aired else "0.0%",
                ]
                for shard, row in sorted(per_shard.items())
            ]
            print(
                render_table(
                    [
                        "shard",
                        "control",
                        "index",
                        "data",
                        "overflow",
                        "slots",
                        "share",
                    ],
                    rows,
                    title=(
                        f"per-shard airtime ({len(per_shard)} channels; "
                        "superframe = max per cycle, not sum)"
                    ),
                )
            )
        return 0

    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.live.clock import ImmediateClock, RealTimeClock
    from repro.live.server import LiveBroadcastServer

    params = _model_params(args)
    scheme = scheme_factory(args.scheme)()
    clock = (
        RealTimeClock(args.slot_seconds)
        if args.slot_seconds > 0
        else ImmediateClock()
    )
    try:
        server = LiveBroadcastServer(
            params,
            scheme.requirements(),
            scheme_label=args.scheme,
            host=args.host,
            port=args.port,
            clock=clock,
            columnar=not args.no_columnar,
            report_schedule=ReportSchedule(window=args.report_window),
        )
    except ValueError as error:
        print(f"serve: {error}")
        return 2

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(
            f"airing {args.scheme} on {server.host}:{server.port} "
            f"({params.sim.num_cycles} cycles; ctrl-c stops cleanly)"
        )
        try:
            await server.run()
        finally:
            await server.stop()

    asyncio.run(_serve())
    print(
        f"aired {server.backend.cycles_completed} cycle(s), "
        f"end time {server.end_time:.0f} slots"
    )
    return 0


def _command_listen(args: argparse.Namespace) -> int:
    import asyncio
    import random as random_module

    from repro.live.client import LiveClient

    rng = (
        random_module.Random(args.rng_seed)
        if args.rng_seed is not None
        else None
    )
    client = LiveClient(
        args.host,
        args.port,
        scheme=args.scheme,
        client_id=args.client_id,
        rng=rng,
    )
    try:
        result = asyncio.run(client.run())
    except KeyboardInterrupt:
        print("listen: interrupted before the broadcast ended")
        return 1
    except (ConnectionError, OSError) as error:
        print(f"listen: {error}")
        return 1
    ratio = result.metrics.get_ratio("attempt.committed")
    rows = [
        ["scheme", result.scheme_label],
        ["cycles heard", str(result.cycles_heard)],
        ["cycles missed", str(result.cycles_missed)],
        ["attempts", str(ratio.total if ratio else 0)],
        ["committed", str(ratio.hits if ratio else 0)],
        ["end time (slots)", f"{result.end_time:.0f}"],
    ]
    print(render_table(["measure", "value"], rows, title="live session"))
    return 0


def _command_schemes() -> int:
    for name in sorted(SCHEME_FACTORIES):
        print(name)
    return 0


def _command_sizes(args: argparse.Namespace) -> int:
    params = ModelParameters().with_server(broadcast_size=args.broadcast_size)
    model = SizeModel(params.server)
    row = model.figure7_row(updates=args.updates, span=args.span)
    rows = [[scheme, f"{value:.2f}"] for scheme, value in sorted(row.items())]
    print(
        render_table(
            ["scheme", "size increase (%)"],
            rows,
            title=f"U={args.updates}, span={args.span}, D={args.broadcast_size}",
        )
    )
    return 0


def _pass_through(command: str, argv: List[str]) -> int:
    """``repro bench [overhead|hotpath]`` / ``repro experiments``: the
    tool's own parser reads the rest of the command line."""
    if command == "experiments":
        import repro.experiments.__main__ as experiments

        return experiments.main(argv)
    if argv[:1] == ["hotpath"]:
        from repro.obs import hotpath

        return hotpath.main(argv[1:])
    from repro.obs import bench

    return bench.main(argv[1:] if argv[:1] == ["overhead"] else argv)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in PASS_THROUGH:
            return _pass_through(argv[0], argv[1:])
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.stderr.close()
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _command_run(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "listen":
        return _command_listen(args)
    if args.command == "schemes":
        return _command_schemes()
    if args.command == "sizes":
        return _command_sizes(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
