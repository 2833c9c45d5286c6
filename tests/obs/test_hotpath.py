"""Smoke tests for the hot-path micro-benchmark suite (quick mode)."""

import json

from repro.obs import hotpath


def test_hotpath_quick_payload_and_gate(tmp_path, capsys):
    out = tmp_path / "BENCH_hotpath.json"
    code = hotpath.main(
        ["--quick", "--repeats", "1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["bench"] == "repro.obs.hotpath"
    assert payload["quick"] is True

    suites = payload["suites"]
    assert suites["dispatch"]["events_per_sec"] > 0
    assert suites["dispatch"]["events"] > 0
    for variant in ("flat", "overflow", "clustered"):
        assert suites["programs"][variant]["builds_per_sec"] > 0
    # The builder supports incremental construction, so the suite also
    # measures the full-rebuild control for the non-clustered layouts.
    assert suites["programs"]["flat_full_rebuild"]["builds_per_sec"] > 0
    for count in hotpath.CLIENT_COUNTS:
        stats = suites["clients"][str(count)]
        assert stats["events_per_sec"] > 0
        assert stats["cycles_per_sec"] > 0
    assert suites["profile"]
    assert all("cumtime" in row for row in suites["profile"])
    assert "events/s" in capsys.readouterr().out

    # Self-comparison always passes the regression gate...
    assert hotpath.main(
        [
            "--quick", "--repeats", "1",
            "--out", str(tmp_path / "b.json"),
            "--against", str(out),
        ]
    ) == 0


def test_hotpath_gate_trips_on_impossible_baseline(tmp_path):
    out = tmp_path / "BENCH_hotpath.json"
    assert hotpath.main(["--quick", "--repeats", "1", "--out", str(out)]) == 0
    baseline = json.loads(out.read_text())
    # An absurdly fast baseline makes any run a >20% regression.
    baseline["suites"]["dispatch"]["events_per_sec"] *= 1000
    fast = tmp_path / "impossible.json"
    fast.write_text(json.dumps(baseline))
    code = hotpath.main(
        [
            "--quick", "--repeats", "1",
            "--out", str(tmp_path / "b.json"),
            "--against", str(fast),
        ]
    )
    assert code == 1


def test_hotpath_before_attaches_speedups(tmp_path):
    before = tmp_path / "before.json"
    assert hotpath.main(["--quick", "--repeats", "1", "--out", str(before)]) == 0
    out = tmp_path / "after.json"
    assert hotpath.main(
        [
            "--quick", "--repeats", "1",
            "--out", str(out),
            "--before", str(before),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert "before" in payload
    speedups = payload["speedup_vs_before"]
    assert speedups["dispatch_events_per_sec"] > 0
    assert speedups["programs_flat_builds_per_sec"] > 0


def _payload(rate, loop_ms=None):
    lane = {"events_per_sec": rate}
    if loop_ms is not None:
        lane["host_loop_ms"] = loop_ms
    return {"suites": {"dispatch": lane}}


def test_gate_scales_rates_by_the_host_loop_time():
    # 1.5x slower on a host whose loop also takes 1.5x longer: no regression.
    assert hotpath.compare_against(_payload(100.0, 0.3), _payload(150.0, 0.2), 0.2) == []
    # The same drop at the same host speed is one.
    failures = hotpath.compare_against(_payload(100.0, 0.2), _payload(150.0, 0.2), 0.2)
    assert len(failures) == 1 and "dispatch events/sec regressed" in failures[0]


def test_gate_refuses_a_baseline_without_host_loop_time():
    failures = hotpath.compare_against(_payload(150.0, 0.2), _payload(100.0), 0.2)
    assert len(failures) == 1 and "host_loop_ms" in failures[0]
