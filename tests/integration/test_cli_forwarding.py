"""``repro bench [hotpath]`` and ``repro experiments`` are pass-throughs.

They declare no flags of their own: the rest of the command line goes
unchanged to the tool's ``main``, whose parser is the only place its
options are declared.  So an argv no parser knows must still arrive
verbatim, and the tool -- not the umbrella CLI -- is the one to refuse
it.
"""

import importlib

import pytest

from repro.cli import main

ARBITRARY = ["--repeats", "5", "--not-declared-anywhere", "x y", "-q", "--", "tail"]


def _capture(monkeypatch, module):
    calls = []

    def fake(argv=None):
        calls.append(list(argv))
        return 0

    monkeypatch.setattr(module, "main", fake)
    return calls


@pytest.mark.parametrize(
    "prefix,target",
    [
        (["bench"], "repro.obs.bench"),
        (["bench", "overhead"], "repro.obs.bench"),
        (["bench", "hotpath"], "repro.obs.hotpath"),
        (["experiments"], "repro.experiments.__main__"),
    ],
    ids=["bench", "bench-overhead", "bench-hotpath", "experiments"],
)
def test_argv_reaches_the_tool_unchanged(monkeypatch, prefix, target):
    calls = _capture(monkeypatch, importlib.import_module(target))
    assert main(prefix + ARBITRARY) == 0
    assert calls == [ARBITRARY]


def test_the_tool_refuses_what_it_does_not_declare(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "hotpath", "--not-declared-anywhere"])
    assert info.value.code == 2
    assert "repro.obs.hotpath" in capsys.readouterr().err


def test_experiments_check_forwards_to_the_parallel_oracle(monkeypatch):
    from repro import oracle

    calls = _capture(monkeypatch, oracle)
    code = main(
        ["experiments", "fig6", "--check", "--jobs", "4", "--artifacts", "outdir"]
    )
    assert code == 0
    assert calls == [["parallel", "--jobs", "4", "--artifacts", "outdir", "fig6"]]
    # The runner's own parser accepts the forwarded argv unchanged.
    parsed = oracle.build_parser().parse_args(calls[0])
    assert (parsed.suite, parsed.jobs, parsed.names) == ("parallel", 4, ["fig6"])
    assert str(parsed.artifacts) == "outdir"


def test_experiments_check_serial_request_still_runs_parallel_oracle(monkeypatch):
    """--check needs >= 2 workers to mean anything; the runner floors it."""
    from repro import oracle

    calls = _capture(monkeypatch, oracle)
    assert main(["experiments", "--check"]) == 0
    assert calls == [["parallel", "--jobs", "2"]]
