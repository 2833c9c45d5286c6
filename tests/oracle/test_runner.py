"""The one oracle runner, on fake in-memory suites: no simulations run."""

import json
from types import SimpleNamespace

import pytest

from repro import oracle
from repro.oracle import Cell, Suite, UsageError, flag, run_cells


def _cells(count, failing=(), log=None):
    def make(label, mismatches):
        def run():
            if log is not None:
                log.append(label)
            return {"mismatches": mismatches, "payload": label}

        return Cell(label, run)

    return [
        make(f"cell {i}", ["boom"] if i in failing else [])
        for i in range(count)
    ]


def _fake_cells(args):
    if args.count < 0:
        raise UsageError("--count must be >= 0")
    return _cells(args.count, failing=args.fail, log=LOG)


LOG = []
SUMMARIES = []


def _summary(reports):
    SUMMARIES.append([r["label"] for r in reports])
    LOG.append("summary")
    return ["suite-level problem"] if len(reports) == 2 else []


FAKE = Suite(
    name="fake",
    description="in-memory cells",
    flags=(
        flag("--count", type=int, default=3),
        flag("--fail", nargs="*", type=int, default=[]),
    ),
    cells=_fake_cells,
    summary=_summary,
)
PLAIN = Suite(
    name="plain",
    description="in-memory cells without flags",
    flags=(),
    cells=lambda args: _cells(1),
    max_seconds=600.0,
)


@pytest.fixture(autouse=True)
def fake_suites(monkeypatch):
    LOG.clear()
    SUMMARIES.clear()
    monkeypatch.setattr(oracle, "SUITES", {"fake": FAKE, "plain": PLAIN})


def _exit_code(argv):
    with pytest.raises(SystemExit) as info:
        oracle.main(argv)
    return info.value.code


def test_all_clean_cells_pass(capsys):
    assert oracle.main(["fake"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in out[:3]] == [
        "[ok] cell 0",
        "[ok] cell 1",
        "[ok] cell 2",
    ]
    assert out[-1] == "PASS: 3/3 cells clean"


def test_failing_cell_fails_the_run_and_leaves_one_json_each(tmp_path, capsys):
    artifacts = tmp_path / "evidence"
    code = oracle.main(
        ["fake", "--count", "4", "--fail", "1", "3", "--artifacts", str(artifacts)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] cell 1: 1 mismatch(es)" in out
    assert out.splitlines()[-1] == "FAIL: 2/4 cells clean"
    # Only the failing cells, one file each, named after the label.
    assert sorted(p.name for p in artifacts.iterdir()) == [
        "cell_1.json",
        "cell_3.json",
    ]
    report = json.loads((artifacts / "cell_3.json").read_text())
    assert report["label"] == "cell 3"
    assert report["mismatches"] == ["boom"]
    assert report["payload"] == "cell 3"


def test_no_artifacts_directory_when_every_cell_passes(tmp_path):
    assert oracle.main(["fake", "--artifacts", str(tmp_path / "ev")]) == 0
    assert not (tmp_path / "ev").exists()


def test_budget_skips_remaining_cells_without_failing(monkeypatch, capsys):
    now = [0.0]
    monkeypatch.setattr(oracle, "time", SimpleNamespace(perf_counter=lambda: now[0]))

    def slow():
        now[0] += 10.0
        return {"mismatches": []}

    cells = [Cell("slow", slow)] + _cells(2, log=LOG)
    assert run_cells(cells, max_seconds=5.0) == 0
    assert LOG == []  # the budget ran out before the fast cells
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == [
        "[skip] cell 0 (over --max-seconds budget)",
        "[skip] cell 1 (over --max-seconds budget)",
    ]
    assert out[-1] == "PASS: 1/1 cells clean, 2 skipped (runtime budget)"


def test_budget_never_turns_a_failure_into_a_pass(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(oracle, "time", SimpleNamespace(perf_counter=lambda: now[0]))

    def slow_failure():
        now[0] += 10.0
        return {"mismatches": ["boom"]}

    cells = [Cell("slow", slow_failure)] + _cells(2)
    assert run_cells(cells, max_seconds=5.0) == 1


def test_every_cell_skipped_is_not_a_pass(capsys):
    """A zero budget skips everything: that proves nothing, so it fails."""
    assert oracle.main(["fake", "--max-seconds", "0"]) == 1
    assert LOG == []
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL: no cell ran (3 selected, 3 skipped by the runtime budget)"
    )
    assert SUMMARIES == []  # the summary never sees an empty run


def test_empty_selection_is_not_a_pass(capsys):
    assert oracle.main(["fake", "--count", "0"]) == 1
    assert "no cell ran (0 selected" in capsys.readouterr().out


def test_summary_hook_runs_once_after_every_cell():
    assert oracle.main(["fake"]) == 0
    assert LOG == ["cell 0", "cell 1", "cell 2", "summary"]
    assert SUMMARIES == [["cell 0", "cell 1", "cell 2"]]


def test_summary_failure_fails_a_run_of_clean_cells(capsys):
    assert oracle.main(["fake", "--count", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["FAIL suite-level problem", "FAIL: 2/2 cells clean"]


def test_per_suite_defaults():
    parser = oracle.build_parser()
    assert parser.parse_args(["fake"]).max_seconds is None
    assert parser.parse_args(["plain"]).max_seconds == 600.0


def test_flag_of_another_suite_is_rejected():
    assert _exit_code(["plain", "--count", "2"]) == 2
    assert _exit_code(["fake", "--bogus"]) == 2
    assert LOG == []


def test_suite_usage_error_exits_2_before_any_cell(capsys):
    assert _exit_code(["fake", "--count", "-1"]) == 2
    assert "--count must be >= 0" in capsys.readouterr().err
    assert LOG == []
