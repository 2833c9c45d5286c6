"""The real oracle suites, parsed and enumerated only: no cell runs.

Every ``python -m repro.oracle`` / ``repro experiments --check`` line in
the CI workflow is parsed with the runner's own parser and must select
the cells it selected when its job was written, so a renamed flag fails
tier-1, not only CI.
"""

import shlex
from pathlib import Path

import pytest

from repro import oracle


def _select(argv):
    """Parse ``argv`` and enumerate its suite's cells without running any."""
    args = oracle.build_parser().parse_args(argv)
    suite = oracle.SUITES[args.suite]
    return suite, args, suite.cells(args)


def _exit_code(argv):
    with pytest.raises(SystemExit) as info:
        oracle.main(argv)
    return info.value.code


@pytest.mark.parametrize(
    "argv",
    [
        ["resilience", "--cycles", "5"],
        ["parallel", "--clients", "3"],
        ["cohort", "--chaos", "off"],
        ["live", "--cohort-size", "8"],
        ["shard", "--faults", "on"],
    ],
)
def test_real_suites_reject_flags_they_do_not_use(argv):
    assert _exit_code(argv) == 2


@pytest.mark.parametrize("suite", ["cohort", "shard", "live"])
def test_unknown_scheme_is_a_usage_error_before_any_cell(suite):
    # "inval" is valid and listed first: it must not run before the
    # unknown label is refused.
    assert _exit_code([suite, "--schemes", "inval", "bogus"]) == 2


def test_unknown_experiment_is_a_usage_error():
    assert _exit_code(["parallel", "fig6", "bogus"]) == 2


CI_WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

#: Cells each CI oracle line selected when its job was written.
CI_CELLS = {"cohort": 60, "shard": 148, "live": 27, "resilience": 54, "parallel": 8}


def _ci_oracle_argvs(monkeypatch):
    """The runner argv of every oracle command in the CI workflow; the
    ``repro experiments --check`` lines go through the real CLI shell."""
    from repro.cli import main as repro_main

    forwarded = []
    monkeypatch.setattr(oracle, "main", lambda argv: forwarded.append(argv) or 0)
    text = CI_WORKFLOW.read_text().replace("\\\n", " ")
    argvs = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            continue
        if "-m repro.oracle " in line:
            words = shlex.split(line)
            argvs.append(words[words.index("repro.oracle") + 1 :])
        elif "-m repro experiments --check" in line:
            words = shlex.split(line)
            assert repro_main(words[3:]) == 0
            argvs.append(forwarded.pop())
    return argvs


def test_ci_oracle_lines_select_todays_cells(monkeypatch):
    argvs = _ci_oracle_argvs(monkeypatch)
    selected = []
    for argv in argvs:
        suite, args, cells = _select(argv)
        assert len(cells) == CI_CELLS[suite.name], argv
        labels = [cell.label for cell in cells]
        assert len(set(labels)) == len(labels), "cell labels must be unique"
        assert args.artifacts is not None, "every CI job keeps its evidence"
        selected.append((suite.name, getattr(args, "jobs", None)))
    assert sorted(selected, key=str) == sorted(
        [
            ("cohort", None),
            ("shard", None),
            ("live", None),
            ("resilience", None),
            ("parallel", 2),
            ("parallel", 4),
        ],
        key=str,
    )


@pytest.mark.parametrize(
    "suite,count,budget",
    [
        ("cohort", 150, 600.0),
        ("shard", 178, None),
        ("live", 27, 600.0),
        ("resilience", 54, None),
        ("parallel", 8, None),
    ],
)
def test_default_selection_and_budget(suite, count, budget):
    _, args, cells = _select([suite])
    assert len(cells) == count
    assert args.max_seconds == budget
