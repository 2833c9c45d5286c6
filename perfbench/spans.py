"""Spans around the public entry points of each layer, installed from here.

The program under test carries no timers of its own, so the traced run
wraps the methods listed in :data:`SPANS` at class level for the length of
one repeat and restores them afterwards.  A span is one call, or for a
generator or coroutine one *resumption*: calling ``Scheme.read`` only
creates the generator, so wrapping the call would time almost nothing,
while the work happens in each ``send``/``throw`` the kernel, the cohort
driver or the asyncio loop makes.  Time the generator spends suspended is
never counted.

Spans are reduced as they close into per-name totals: calls, inclusive
time and self time (inclusive minus the time child spans cover).  That
keeps memory flat however long the run is.  A serialization-graph span is
named after the nearest enclosing client or engine span, so client-side
graph work and the server's graph bookkeeping are reported apart.
"""

from __future__ import annotations

import importlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layers in report order; a span's layer is the first dotted component.
LAYERS = (
    "sim",
    "server",
    "engine",
    "itemstate",
    "builder",
    "codec",
    "fanout",
    "client",
    "graph",
    "cohort",
    "shard",
)


class SpanTracer:
    """In-memory span aggregation for one or more traced repeats."""

    def __init__(self) -> None:
        #: Open frames, innermost last: ``[child_seconds, name]``.
        self.stack: List[list] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (name, id(instance)) -> inclusive seconds, for per-instance splits.
        self.by_instance: Dict[Tuple[str, int], float] = {}
        #: name -> [samples, sum]
        self.samples: Dict[str, List[float]] = {}

    def record(self, name: str) -> List[float]:
        rec = self.totals.get(name)
        if rec is None:
            rec = self.totals[name] = [0, 0.0, 0.0]
        return rec

    def sample(self, name: str, value: float) -> None:
        rec = self.samples.get(name)
        if rec is None:
            rec = self.samples[name] = [0, 0.0]
        rec[0] += 1
        rec[1] += value

    def owner(self) -> str:
        """The nearest enclosing client or engine span, for graph calls."""
        for frame in reversed(self.stack):
            layer = frame[1].split(".", 1)[0]
            if layer in ("client", "engine"):
                return layer
        return "other"

    # -- queries ------------------------------------------------------------

    def inclusive(self, name: str) -> float:
        rec = self.totals.get(name)
        return rec[1] if rec else 0.0

    def calls(self, name: str) -> int:
        rec = self.totals.get(name)
        return int(rec[0]) if rec else 0

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            rec[2] for name, rec in self.totals.items() if name.startswith(prefix)
        )

    def self_of(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def sample_mean(self, name: str) -> float:
        rec = self.samples.get(name)
        return rec[1] / rec[0] if rec and rec[0] else 0.0

    def sample_sum(self, name: str) -> float:
        rec = self.samples.get(name)
        return rec[1] if rec else 0.0


def _close(tracer: SpanTracer, name: str, frame: list, start: float) -> float:
    duration = perf_counter() - start
    stack = tracer.stack
    stack.pop()
    if stack:
        stack[-1][0] += duration
    rec = tracer.record(name)
    rec[1] += duration
    rec[2] += duration - frame[0]
    return duration


def _name_for(tracer: SpanTracer, name: str) -> str:
    if name.startswith("graph."):
        return f"graph.{tracer.owner()}.{name[6:]}"
    return name


def wrap_call(
    tracer: SpanTracer,
    name: str,
    fn: Callable,
    after: Optional[Callable] = None,
    per_instance: bool = False,
) -> Callable:
    """A plain call as one span; ``after(tracer, self, result)`` runs once
    the span has closed."""

    def traced(*args, **kwargs):
        span = _name_for(tracer, name)
        frame = [0.0, span]
        tracer.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = _close(tracer, span, frame, start)
            tracer.totals[span][0] += 1
            if per_instance:
                key = (span, id(args[0]))
                tracer.by_instance[key] = tracer.by_instance.get(key, 0.0) + duration
        if after is not None:
            after(tracer, args[0], result)
        return result

    return traced


def traced_resumptions(tracer: SpanTracer, name: str, gen):
    """Drive ``gen`` one resumption at a time, each resumption one span.

    Works for generators and for coroutine objects alike: values the
    inner generator yields (kernel events, cohort tokens, asyncio futures)
    pass through unchanged, exceptions thrown in are forwarded, and the
    inner return value is returned.
    """
    rec = tracer.record(name)
    rec[0] += 1
    value = None
    error: Optional[BaseException] = None
    while True:
        frame = [0.0, name]
        tracer.stack.append(frame)
        start = perf_counter()
        try:
            if error is None:
                yielded = gen.send(value)
            else:
                thrown, error = error, None
                yielded = gen.throw(thrown)
        except StopIteration as stop:
            _close(tracer, name, frame, start)
            return stop.value
        except BaseException:
            _close(tracer, name, frame, start)
            raise
        _close(tracer, name, frame, start)
        try:
            value = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the inner generator
            error = exc
            value = None


def wrap_generator(tracer: SpanTracer, name: str, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return traced_resumptions(tracer, name, fn(*args, **kwargs))

    return traced


class _TracedAwaitable:
    __slots__ = ("_steps",)

    def __init__(self, steps) -> None:
        self._steps = steps

    def __await__(self):
        return self._steps


def wrap_coroutine(tracer: SpanTracer, name: str, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return _TracedAwaitable(traced_resumptions(tracer, name, fn(*args, **kwargs)))

    return traced


# -- what is traced ----------------------------------------------------------


def _after_prune(tracer: SpanTracer, engine, _result) -> None:
    tracer.sample("engine.graph_nodes", len(engine.graph))


def _after_evict(tracer: SpanTracer, store, evicted) -> None:
    tracer.sample("itemstate.evicted", evicted)
    tracer.sample("itemstate.retained", store.total_retained)


def _after_build(tracer: SpanTracer, _builder, program) -> None:
    tracer.sample("builder.overflow_buckets", len(program.overflow_buckets))


def _after_encode(tracer: SpanTracer, _codec, frames) -> None:
    tracer.sample("codec.frames", len(frames))


def _after_graph_prune(tracer: SpanTracer, graph, _result) -> None:
    if tracer.owner() == "client":
        tracer.sample("graph.client_nodes", len(graph))


@dataclass(frozen=True)
class Span:
    """One traced entry point: ``module.Class.method`` (or a module
    function when ``cls`` is empty)."""

    module: str
    cls: str
    attr: str
    name: str
    kind: str = "call"  # call | generator | coroutine
    after: Optional[Callable] = None
    per_instance: bool = False


_ITEMSTATE_METHODS = (
    "note_write",
    "item_record",
    "records_for",
    "has_old",
    "buckets_of",
    "record_supersedure",
    "evict_expired",
    "consume_dirty",
    "on_air",
    "all_on_air",
    "overflow_records",
    "best_version_at",
)

_SCHEME_CLASSES = (
    ("repro.core.invalidation", "InvalidationOnly"),
    ("repro.core.multiversion", "MultiversionBroadcast"),
    ("repro.core.multiversion_cache", "MultiversionCaching"),
    ("repro.core.sgt", "SerializationGraphTesting"),
    ("repro.core.versioned_cache", "InvalidationWithVersionedCache"),
    ("repro.core.unsafe", "NoConsistency"),
)

SPANS: Tuple[Span, ...] = (
    Span("repro.sim.engine", "Environment", "run", "sim.run"),
    Span("repro.server.backend", "SingleChannelBackend", "process",
         "server.backend", kind="generator"),
    Span("repro.server.transactions", "TransactionEngine", "run_batch",
         "engine.run_batch", per_instance=True),
    Span("repro.server.transactions", "TransactionEngine", "prune_graph_before",
         "engine.prune", after=_after_prune),
    *(
        Span("repro.server.columnar", "ColumnarVersionStore", method,
             f"itemstate.{method}",
             after=_after_evict if method == "evict_expired" else None)
        for method in _ITEMSTATE_METHODS
    ),
    Span("repro.server.broadcast", "ProgramBuilder", "build", "builder.build",
         after=_after_build),
    Span("repro.live.codec", "CycleCodec", "encode_cycle", "codec.encode",
         after=_after_encode),
    *(
        Span("repro.live.codec", "CycleCodec", method, "codec.decode")
        for method in (
            "decode_control",
            "decode_data_bucket",
            "decode_overflow_bucket",
            "assemble",
        )
    ),
    Span("repro.live.codec", "FrameStream", "feed", "codec.decode"),
    Span("repro.live.server", "LiveBroadcastServer", "run", "fanout.server",
         kind="coroutine"),
    Span("repro.live.client", "LiveClient", "run", "fanout.listener",
         kind="coroutine"),
    Span("repro.client.machine", "BroadcastClient", "on_cycle_start",
         "client.cycle_start"),
    Span("repro.shard.client", "ShardedClient", "_shard_cycle_start",
         "client.cycle_start"),
    Span("repro.client.machine", "BroadcastClient", "run", "client.run",
         kind="generator"),
    *(
        Span(module, cls, "read", "client.read", kind="generator")
        for module, cls in _SCHEME_CLASSES
    ),
    Span("repro.graph.sgraph", "SerializationGraph", "apply_diff",
         "graph.apply_diff"),
    Span("repro.graph.sgraph", "SerializationGraph", "prune_before",
         "graph.prune", after=_after_graph_prune),
    Span("repro.cohort.engine", "CohortSimulation", "run", "cohort.run"),
    Span("repro.cohort.engine", "CohortSimulation", "_make_member",
         "cohort.make_member"),
    Span("repro.cohort.engine", "", "build_trace", "cohort.build_trace"),
    Span("repro.cohort.engine", "Member", "deliver", "cohort.deliver"),
    Span("repro.cohort.engine", "Member", "advance", "cohort.advance"),
    Span("repro.cohort.engine", "Member", "finish", "cohort.finish"),
    Span("repro.shard.runtime", "ShardedBroadcastBackend", "process",
         "shard.backend", kind="generator"),
    Span("repro.shard.scheme", "MultiShardScheme", "read", "shard.route",
         kind="generator"),
    *(
        Span("repro.shard.scheme", "MultiShardScheme", method, "shard.route")
        for method in ("begin", "finish", "end", "on_shard_cycle_start")
    ),
)


def _wrap(tracer: SpanTracer, span: Span, fn: Callable) -> Callable:
    if span.kind == "generator":
        return wrap_generator(tracer, span.name, fn)
    if span.kind == "coroutine":
        return wrap_coroutine(tracer, span.name, fn)
    return wrap_call(tracer, span.name, fn, span.after, span.per_instance)


@contextmanager
def patched(owner, attr: str, make: Callable[[Callable], Callable]):
    """Replace ``owner.attr`` with ``make(original)`` inside the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def installed(tracer: SpanTracer):
    """Every span in :data:`SPANS` is live inside the block."""
    with ExitStack() as stack:
        for span in SPANS:
            owner = importlib.import_module(span.module)
            if span.cls:
                owner = getattr(owner, span.cls)
            stack.enter_context(
                patched(owner, span.attr, lambda fn, span=span: _wrap(tracer, span, fn))
            )
        yield tracer
