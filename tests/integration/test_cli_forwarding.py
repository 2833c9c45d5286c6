"""Argv re-forwarding audit (latent-bug regression).

``repro bench`` and ``repro experiments`` are thin shells: they parse a
user-facing flag set and re-forward it as argv to the underlying
tools.  The bug class this pins: a flag *accepted* by the shell parser
but silently dropped on the way through -- ``repro bench hotpath``
accepted ``--max-columnar-regression``, ``--max-before-regression``
and ``--profile-top`` and discarded all three, so the CI gates they
name could never fire through the umbrella CLI.

Every test sets each forwardable flag to a non-default value, captures
the argv handed to the target, and (where the target exposes its
parser) re-parses it with the *real* downstream parser, so a renamed
or retyped downstream flag also fails here.
"""

from repro.cli import main


def _capture(monkeypatch, module, attr="main"):
    calls = []

    def fake(argv=None):
        calls.append(list(argv))
        return 0

    monkeypatch.setattr(module, attr, fake)
    return calls


def test_bench_hotpath_forwards_every_flag(monkeypatch):
    from repro.obs import hotpath

    calls = _capture(monkeypatch, hotpath)
    code = main(
        [
            "bench", "hotpath",
            "--repeats", "5",
            "--out", "payload.json",
            "--quick",
            "--before", "before.json",
            "--against", "baseline.json",
            "--max-regression", "0.3",
            "--max-shard-overhead", "0.04",
            "--max-columnar-regression", "0.05",
            "--max-before-regression", "0.06",
            "--profile-top", "7",
        ]
    )
    assert code == 0
    assert calls == [
        [
            "--repeats", "5",
            "--out", "payload.json",
            "--quick",
            "--before", "before.json",
            "--against", "baseline.json",
            "--max-regression", "0.3",
            "--max-shard-overhead", "0.04",
            "--max-columnar-regression", "0.05",
            "--max-before-regression", "0.06",
            "--profile-top", "7",
        ]
    ]


def test_bench_overhead_forwards_every_flag(monkeypatch):
    from repro.obs import bench

    calls = _capture(monkeypatch, bench)
    code = main(
        [
            "bench",
            "--scenario", "fig6",
            "--repeats", "4",
            "--out", "overhead.json",
            "--max-overhead", "0.15",
            "--trace-sample", "0.5",
        ]
    )
    assert code == 0
    assert calls == [
        [
            "--scenario", "fig6",
            "--repeats", "4",
            "--out", "overhead.json",
            "--max-overhead", "0.15",
            "--trace-sample", "0.5",
        ]
    ]


def test_experiments_forwards_every_flag(monkeypatch):
    import repro.experiments.__main__ as experiments

    calls = _capture(monkeypatch, experiments)
    code = main(
        [
            "experiments", "fig5", "fig6",
            "--quick",
            "--jobs", "3",
            "--cache", "cachedir",
            "--progress",
            "--preset", "stormy",
            "--cohorts",
            "--cohort-out", "cohort.json",
            "--shard-out", "shard.json",
        ]
    )
    assert code == 0
    (argv,) = calls
    # The captured argv must survive the *real* downstream parser with
    # every value intact.
    parsed = experiments.build_parser().parse_args(argv)
    assert parsed.names == ["fig5", "fig6"]
    assert parsed.quick is True
    assert parsed.jobs == 3
    assert parsed.cache == "cachedir"
    assert parsed.progress is True
    assert parsed.preset == "stormy"
    assert parsed.cohorts is True
    assert parsed.cohort_out == "cohort.json"
    assert parsed.shard_out == "shard.json"


def test_experiments_check_forwards_to_the_parallel_oracle(monkeypatch):
    from repro import oracle

    calls = _capture(monkeypatch, oracle)
    code = main(
        [
            "experiments", "fig6",
            "--check",
            "--jobs", "4",
            "--artifacts", "outdir",
        ]
    )
    assert code == 0
    assert calls == [["parallel", "--jobs", "4", "--artifacts", "outdir", "fig6"]]
    # The runner's own parser accepts the forwarded argv unchanged.
    parsed = oracle.build_parser().parse_args(calls[0])
    assert (parsed.suite, parsed.jobs, parsed.names) == ("parallel", 4, ["fig6"])
    assert str(parsed.artifacts) == "outdir"


def test_experiments_check_serial_request_still_runs_parallel_oracle(monkeypatch):
    """--check needs >= 2 workers to mean anything; the shell floors it."""
    from repro import oracle

    calls = _capture(monkeypatch, oracle)
    assert main(["experiments", "--check"]) == 0
    assert calls == [["parallel", "--jobs", "2"]]
