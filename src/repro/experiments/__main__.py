"""Run the experiment harness: every figure and table, or one by name.

    python -m repro.experiments                  # everything, full profile
    python -m repro.experiments --quick          # everything, reduced profile
    python -m repro.experiments faults           # one experiment by name
    python -m repro.experiments fig5 --jobs 4    # shard cells over 4 workers
    python -m repro.experiments --jobs 0 --cache results/.cells
                                                 # one worker per CPU, resumable
    python -m repro.experiments --check --jobs 2 # parallel-vs-serial oracle

``--jobs`` shards every sweep's (scheme, x, seed) cells over worker
processes (see :mod:`repro.experiments.parallel`); output is
byte-identical to the serial run.  ``--cache DIR`` makes sweeps
resumable: finished cells are stored on disk and a re-run only
simulates the missing ones.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.experiments import FULL_PROFILE, QUICK_PROFILE
from repro.experiments import (
    faults,
    fig5,
    fig6,
    fig7,
    fig8,
    resilience,
    retention,
    scalability,
    sharding,
    table1,
)
from repro.experiments.parallel import CellCache, make_executor
from repro.faults.presets import preset_names

#: Name -> module with a ``main(profile, ...)`` entry point, in run order.
EXPERIMENTS = {
    "fig7": fig7,
    "fig5": fig5,
    "fig6": fig6,
    "fig8": fig8,
    "table1": table1,
    "scalability": scalability,
    "retention": retention,
    "faults": faults,
    "resilience": resilience,
    "sharding": sharding,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="regenerate the paper's figures and tables",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help=f"experiments to run (default: all; known: {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced profile for smoke runs"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per sweep (0 = one per CPU, default 1 = serial)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="resumable cell cache directory (restart a killed sweep for free)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="per-cell progress and wall/cpu speedup lines on stderr",
    )
    parser.add_argument(
        "--preset",
        default=None,
        metavar="NAME",
        help=(
            "named fault scenario for the faults experiment "
            f"(known: {', '.join(preset_names())})"
        ),
    )
    parser.add_argument(
        "--cohorts",
        action="store_true",
        help=(
            "scalability experiment only: sweep the cohort engine to "
            "10^5 clients instead of the discrete kernel"
        ),
    )
    parser.add_argument(
        "--cohort-out",
        default=None,
        metavar="FILE",
        help="with --cohorts: also write the sweep as a bench JSON",
    )
    parser.add_argument(
        "--shard-out",
        default="results/BENCH_shard.json",
        metavar="FILE",
        help=(
            "sharding experiment: where to write the sweep JSON "
            "(default: results/BENCH_shard.json; empty string disables)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "run the parallel-vs-serial determinism oracle on the named "
            "experiments instead (python -m repro.oracle parallel; "
            "--jobs is raised to at least 2)"
        ),
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="with --check: write failing cells' CSVs, diffs and reports here",
    )
    return parser


def _check(args: argparse.Namespace) -> int:
    """``--check``: the parallel oracle needs >= 2 workers to mean anything."""
    from repro import oracle

    argv = ["parallel", "--jobs", str(max(args.jobs, 2))]
    if args.artifacts:
        argv += ["--artifacts", args.artifacts]
    return oracle.main(argv + args.names)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check:
        return _check(args)
    profile = QUICK_PROFILE if args.quick else FULL_PROFILE
    label = "quick" if args.quick else "full"
    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        print(f"Unknown experiment(s): {', '.join(unknown)}; known: {known}")
        return 2
    selected = args.names or list(EXPERIMENTS)
    if args.preset is not None:
        if args.preset not in preset_names():
            known = ", ".join(preset_names())
            print(f"Unknown fault preset {args.preset!r}; known: {known}")
            return 2
        if selected != ["faults"]:
            print("--preset only applies to the faults experiment")
            return 2
    if args.cohorts and selected != ["scalability"]:
        print("--cohorts only applies to the scalability experiment")
        return 2
    executor = make_executor(args.jobs)
    cache = CellCache(args.cache) if args.cache else None

    start = time.time()
    print(
        f"Running {', '.join(selected)} at the {label} profile "
        f"(jobs={executor.jobs})\n"
    )
    for name in selected:
        module = EXPERIMENTS[name]
        if name == "fig7":
            module.main()  # analytic; no simulation profile
        elif name == "faults" and args.preset is not None:
            module.main(
                profile,
                executor=executor,
                cache=cache,
                verbose=args.progress,
                preset=args.preset,
            )
        elif name == "scalability" and args.cohorts:
            module.main(
                profile,
                verbose=args.progress,
                cohorts=True,
                cohort_out=args.cohort_out,
            )
        elif name == "sharding":
            module.main(
                profile, verbose=args.progress, shard_out=args.shard_out
            )
        else:
            module.main(
                profile, executor=executor, cache=cache, verbose=args.progress
            )
    print(f"All experiments done in {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
