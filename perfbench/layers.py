"""Reduce a traced run's spans to the per-layer metrics.

Times are per broadcast cycle, per client cycle (one client hearing one
cycle) or per listener cycle, so a workload's figures do not depend on how
many repeats fitted into the run.  ``share.<layer>`` is the layer's self
time over the traced wall time; ``share.outside`` is the wall time no span
covers (the asyncio loop and socket I/O on ``live-inval``).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from spans import LAYERS, SpanTracer

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events_per_cycle", "count", "lower"),
    ("sim.self_ms_per_cycle", "ms", "lower"),
    ("server.backend_self_ms_per_cycle", "ms", "lower"),
    ("engine.run_cycle_ms_per_cycle", "ms", "lower"),
    ("engine.prune_ms_per_cycle", "ms", "lower"),
    ("engine.graph_nodes", "count", "lower"),
    ("itemstate.ms_per_cycle", "ms", "lower"),
    ("itemstate.overflow_records_ms_per_cycle", "ms", "lower"),
    ("itemstate.retained_versions", "count", "lower"),
    ("itemstate.evicted_per_cycle", "count", "lower"),
    ("builder.self_ms_per_cycle", "ms", "lower"),
    ("builder.overflow_buckets_per_cycle", "count", "lower"),
    ("codec.encode_ms_per_cycle", "ms", "lower"),
    ("codec.decode_ms_per_listener_cycle", "ms", "lower"),
    ("codec.frames_per_cycle", "count", "lower"),
    ("fanout.server_self_ms_per_cycle", "ms", "lower"),
    ("fanout.listener_self_ms_per_cycle", "ms", "lower"),
    ("fanout.listener_lag_cycles", "cycles", "lower"),
    ("client.cycle_start_us_per_client_cycle", "us", "lower"),
    ("client.read_us_per_read", "us", "lower"),
    ("client.reads_per_client_cycle", "count", "lower"),
    ("client.attempts_per_commit", "ratio", "lower"),
    ("client.cache_hit_ratio", "fraction", "higher"),
    ("graph.apply_diff_us_per_client_cycle", "us", "lower"),
    ("graph.prune_us_per_client_cycle", "us", "lower"),
    ("graph.nodes_per_client", "count", "lower"),
    ("graph.engine_ms_per_cycle", "ms", "lower"),
    ("cohort.trace_build_ms_per_cycle", "ms", "lower"),
    ("cohort.driver_self_us_per_client_cycle", "us", "lower"),
    ("cohort.steps_per_client_cycle", "count", "lower"),
    ("shard.backend_self_ms_per_cycle", "ms", "lower"),
    ("shard.engine_imbalance", "ratio", "lower"),
    ("shard.routing_us_per_client_cycle", "us", "lower"),
    *((f"share.{layer}", "fraction", "lower") for layer in LAYERS),
    ("share.outside", "fraction", "lower"),
    ("trace.traced_cycles_per_s", "cycles/s", "higher"),
    ("trace.untraced_cycles_per_s", "cycles/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def reduce(
    tracer: SpanTracer,
    traced: Sequence,
    untraced_cps: float,
    traced_cps: float,
) -> Dict[str, float]:
    """Per-layer metrics of the traced repeats ``traced``."""
    cycles = sum(r.cycles for r in traced)
    client_cycles = sum(r.clients * r.cycles for r in traced)
    listener_cycles = sum(r.listeners * r.cycles for r in traced)
    # Listeners decode HELLO during set-up, so the wall includes set-up.
    wall = sum(r.setup_s + r.run_s for r in traced)
    attempts = sum(r.det["attempts"] for r in traced)
    committed = sum(r.det["committed"] for r in traced)
    ms, us = 1e3, 1e6
    t = tracer

    # Per repeat, the slowest shard engine over the mean shard engine.
    ratios = [
        max(r.engine_seconds) * len(r.engine_seconds) / sum(r.engine_seconds)
        for r in traced
        if len(r.engine_seconds) > 1 and sum(r.engine_seconds)
    ]
    imbalance = _mean(ratios)

    cohort_self = sum(
        rec[2]
        for name, rec in t.totals.items()
        if name.startswith("cohort.") and name != "cohort.build_trace"
    )
    out = {
        "sim.events_per_cycle": _per(
            sum(r.det.get("events", 0.0) for r in traced), cycles
        ),
        "sim.self_ms_per_cycle": ms * _per(t.layer_self("sim"), cycles),
        "server.backend_self_ms_per_cycle": ms * _per(t.layer_self("server"), cycles),
        "engine.run_cycle_ms_per_cycle": ms * _per(t.inclusive("engine.run_batch"), cycles),
        "engine.prune_ms_per_cycle": ms * _per(t.inclusive("engine.prune"), cycles),
        "engine.graph_nodes": t.sample_mean("engine.graph_nodes"),
        "itemstate.ms_per_cycle": ms * _per(t.layer_self("itemstate"), cycles),
        "itemstate.overflow_records_ms_per_cycle": ms
        * _per(t.inclusive("itemstate.overflow_records"), cycles),
        "itemstate.retained_versions": t.sample_mean("itemstate.retained"),
        "itemstate.evicted_per_cycle": _per(t.sample_sum("itemstate.evicted"), cycles),
        "builder.self_ms_per_cycle": ms * _per(t.layer_self("builder"), cycles),
        "builder.overflow_buckets_per_cycle": _per(
            t.sample_sum("builder.overflow_buckets"), cycles
        ),
        "codec.encode_ms_per_cycle": ms * _per(t.inclusive("codec.encode"), cycles),
        "codec.decode_ms_per_listener_cycle": ms
        * _per(t.self_of("codec.decode"), listener_cycles),
        "codec.frames_per_cycle": _per(t.sample_sum("codec.frames"), cycles),
        "fanout.server_self_ms_per_cycle": ms * _per(t.self_of("fanout.server"), cycles),
        "fanout.listener_self_ms_per_cycle": ms
        * _per(t.self_of("fanout.listener"), listener_cycles),
        "fanout.listener_lag_cycles": _mean([lag for r in traced for lag in r.lags]),
        "client.cycle_start_us_per_client_cycle": us
        * _per(t.inclusive("client.cycle_start"), client_cycles),
        "client.read_us_per_read": us
        * _per(t.inclusive("client.read"), t.calls("client.read")),
        "client.reads_per_client_cycle": _per(t.calls("client.read"), client_cycles),
        "client.attempts_per_commit": _per(attempts, committed),
        "client.cache_hit_ratio": _per(
            sum(r.cache_hits for r in traced), sum(r.cache_lookups for r in traced)
        ),
        "graph.apply_diff_us_per_client_cycle": us
        * _per(t.inclusive("graph.client.apply_diff"), client_cycles),
        "graph.prune_us_per_client_cycle": us
        * _per(t.inclusive("graph.client.prune"), client_cycles),
        "graph.nodes_per_client": t.sample_mean("graph.client_nodes"),
        "graph.engine_ms_per_cycle": ms
        * _per(
            t.inclusive("graph.engine.apply_diff") + t.inclusive("graph.engine.prune"),
            cycles,
        ),
        "cohort.trace_build_ms_per_cycle": ms
        * _per(t.inclusive("cohort.build_trace"), cycles),
        "cohort.driver_self_us_per_client_cycle": us * _per(cohort_self, client_cycles),
        "cohort.steps_per_client_cycle": _per(sum(r.steps for r in traced), client_cycles),
        "shard.backend_self_ms_per_cycle": ms * _per(t.self_of("shard.backend"), cycles),
        "shard.engine_imbalance": imbalance,
        "shard.routing_us_per_client_cycle": us
        * _per(t.self_of("shard.route"), client_cycles),
    }
    covered = 0.0
    for layer in LAYERS:
        own = t.layer_self(layer)
        covered += own
        out[f"share.{layer}"] = _per(own, wall)
    out["share.outside"] = max(0.0, 1.0 - _per(covered, wall))
    out["trace.traced_cycles_per_s"] = traced_cps
    out["trace.untraced_cycles_per_s"] = untraced_cps
    out["trace.overhead"] = _per(untraced_cps, traced_cps)
    return out


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
