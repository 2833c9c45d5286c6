"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They pin what the benchmark claims about itself: the traced run leaves
the program's deterministic outputs untouched, span self times never add
up to more than the wall time they were measured in, generator spans time
resumptions only, and the declared metrics match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import LAYERS, SpanTracer, installed, traced_resumptions  # noqa: E402
from workloads import WORKLOADS, Repeat, wire_bytes  # noqa: E402

#: Small versions of each workload: enough cycles for every layer to run.
SMALL_CYCLES = {"des-mv": 24, "cohort-sgt": 8, "live-inval": 10, "shard-k4": 12}


def test_benchmark_json_declares_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )


def test_generator_span_times_resumptions_not_suspension():
    tracer = SpanTracer()

    def worker():
        received = yield "first"
        assert received == "sent"
        try:
            yield "second"
        except KeyError:
            pass
        return "done"

    steps = traced_resumptions(tracer, "client.read", worker())
    assert next(steps) == "first"
    time.sleep(0.05)  # suspended: must not be counted
    assert steps.send("sent") == "second"
    with pytest.raises(StopIteration) as stop:
        steps.throw(KeyError("forwarded"))
    assert stop.value.value == "done"
    assert tracer.calls("client.read") == 1
    assert tracer.inclusive("client.read") < 0.02
    assert tracer.stack == []


def test_child_spans_are_subtracted_from_self_time():
    from spans import wrap_call

    tracer = SpanTracer()
    inner = wrap_call(tracer, "engine.run_batch", lambda _self: time.sleep(0.02))
    outer = wrap_call(tracer, "builder.build", lambda _self: inner(None))
    outer(None)
    assert tracer.inclusive("builder.build") >= tracer.inclusive("engine.run_batch")
    assert tracer.layer_self("builder") < 0.01
    assert tracer.layer_self("engine") >= 0.02


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail([1.0, 2.0, 3.0])[0] == 50.0


def test_delivery_tail_is_the_median_over_groups():
    assert run.delivery_tail([float(i) for i in range(60)]) == (75.0, 44.0, 1)
    # 250 cycles: groups of 100 and 150, p90 of each, median of the two.
    pct, ms, groups = run.delivery_tail([float(i) for i in range(250)])
    assert (pct, groups) == (90.0, 2)
    assert ms == (89.0 + 234.0) / 2


def test_windows_are_rescaled_to_the_reference_core():
    ref = hostspeed.REFERENCE_MS
    # Two cycles at full speed, then two with the host, and so the
    # calibration loop, twice as slow.
    ms = [40.0, 40.0, 80.0, 80.0]
    repeat = Repeat(0.0, 0.0, 4, ms, ms, {}, 0, 0,
                    loop_ms=[[ref], [ref], [2 * ref], [2 * ref]])
    spans = run.windows([repeat], 2)
    assert spans == [(80.0, [40.0, 40.0]), (80.0, [40.0, 40.0])]
    assert run.cycle_rate(spans, 2) == 25.0
    # An uncalibrated repeat keeps its host times.
    plain = Repeat(0.0, 0.0, 4, ms, ms, {}, 0, 0)
    assert run.windows([plain], 2) == [(80.0, ms[:2]), (160.0, ms[2:])]


def test_the_program_clock_leaves_the_loop_out():
    clock = hostspeed.ProgramClock(calibrate=True)
    before = clock.now()
    clock.sample_cycle(3)
    assert clock.now() - before < clock.loops[3] / 1e3
    assert clock.loop_ms([3, 4]) == [[clock.loops[3]], []]
    assert hostspeed.ProgramClock(calibrate=False).sample() == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reproduces_the_untraced_outputs(name):
    workload = WORKLOADS[name]
    params = workload.params(7, cycles=SMALL_CYCLES[name])
    plain = workload.repeat(workload, params)
    tracer = SpanTracer()
    with installed(tracer):
        spanned = workload.repeat(workload, params)
    assert plain.failed == 0 and spanned.failed == 0
    assert plain.cycles == spanned.cycles == SMALL_CYCLES[name]
    for key in run.DETERMINISTIC:
        assert plain.det.get(key) == spanned.det.get(key), key
    self_total = sum(tracer.layer_self(layer) for layer in LAYERS)
    assert 0 < self_total <= spanned.setup_s + spanned.run_s
    assert tracer.stack == []


@pytest.mark.parametrize("name", ["des-mv", "shard-k4"])
def test_wire_replay_is_unchanged_by_tracing(name):
    workload = WORKLOADS[name]
    params = workload.params(7, cycles=6)
    plain = wire_bytes(workload, params)
    with installed(SpanTracer()):
        assert wire_bytes(workload, params) == plain
    assert plain > 0


def test_spans_are_removed_after_the_block():
    from repro.server.broadcast import ProgramBuilder

    before = ProgramBuilder.__dict__["build"]
    with installed(SpanTracer()):
        assert ProgramBuilder.__dict__["build"] is not before
    assert ProgramBuilder.__dict__["build"] is before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des-mv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
