"""Which mode supports which feature: one declared table.

The paper's server (§2) is one loop no client influences; the §7
extensions and this repository's tooling are where the modes differ.
Every simulation constructor and ``repro run`` call :func:`check` before
building anything, so a combination a mode cannot honour is refused
here, with the flag that asked for it and a short reason, and nowhere
else.  Input validation (shard counts, consistency names, retention
lengths) stays with the constructors that own those inputs.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.config import ModelParameters
from repro.core.control import ReportSchedule

# -- modes ---------------------------------------------------------------------

DISCRETE = "discrete"
COHORT = "cohort"
SHARDED = "sharded"
SHARD1 = "sharded K=1"
LIVE = "live"

#: Mode -> how a user selects it, for messages.
MODES: Dict[str, str] = {
    DISCRETE: "the single-channel simulation",
    COHORT: "cohort mode (--cohorts)",
    SHARDED: "sharded mode (--shards K, K > 1)",
    SHARD1: "sharded mode (--shards 1)",
    LIVE: "live mode (repro serve)",
}

# -- features ------------------------------------------------------------------

RESILIENCE = "resilience"
SUBCYCLE_REPORTS = "subcycle_reports"
REPORT_WINDOW = "report_window"
INTERLEAVED = "interleaved"
TRACE = "trace"
VERIFY = "verify"
CUSTOM_SCHEDULE = "custom_schedule"
FAULTS = "faults"
SHARDS = "shards"
PARTITIONER = "partitioner"
SHARD_CONSISTENCY = "shard_consistency"
CROSS_SHARD_FRACTION = "cross_shard_fraction"
COHORT_SIZE = "cohort_size"

#: Feature -> the flag (or constructor argument) that asks for it.
FEATURES: Dict[str, str] = {
    RESILIENCE: (
        "resilience knobs (--retry-policy, --deadline, --watchdog, "
        "--checkpoint, --crash-rate, --degrade-after)"
    ),
    SUBCYCLE_REPORTS: "--reports-per-cycle",
    REPORT_WINDOW: "--report-window",
    INTERLEAVED: "--interleaved-server",
    TRACE: "--trace",
    VERIFY: "--verify",
    CUSTOM_SCHEDULE: "schedule= (a custom broadcast schedule)",
    FAULTS: "fault knobs (--slot-loss, --burst-loss, --control-loss, ...)",
    SHARDS: "--shards",
    PARTITIONER: "--partitioner",
    SHARD_CONSISTENCY: "--shard-consistency",
    CROSS_SHARD_FRACTION: "--cross-shard-fraction",
    COHORT_SIZE: "--cohort-size",
}

# -- the table -----------------------------------------------------------------

_NEEDS_SHARDS = "it is a shard knob and needs --shards K"
_NEEDS_COHORTS = "it is a cohort knob and needs --cohorts"
_ONE_CHANNEL = "it airs one channel; --shards K selects sharded mode"
_ONE_SHARD = "one shard owns every item, so no query spans shards"

#: Mode -> feature -> why the mode refuses it.  A feature a mode does not
#: list is supported.
REFUSED: Dict[str, Dict[str, str]] = {
    DISCRETE: {
        SHARDS: _ONE_CHANNEL,
        PARTITIONER: _NEEDS_SHARDS,
        SHARD_CONSISTENCY: _NEEDS_SHARDS,
        CROSS_SHARD_FRACTION: _NEEDS_SHARDS,
        COHORT_SIZE: _NEEDS_COHORTS,
    },
    COHORT: {
        RESILIENCE: (
            "crash restarts re-enter the event heap mid-cycle; run without "
            "--cohorts for crash-recovery experiments"
        ),
        SUBCYCLE_REPORTS: "the cohort driver steps whole cycles",
        INTERLEAVED: "the cohort trace runs the serial update engine",
        TRACE: "the cohort result carries aggregates only, no event stream",
        VERIFY: "the cohort result carries aggregates only, no per-client history",
        CUSTOM_SCHEDULE: "the cohort trace airs the flat schedule",
        SHARDS: "the cohort engine aggregates a single-channel population",
        PARTITIONER: _NEEDS_SHARDS,
        SHARD_CONSISTENCY: _NEEDS_SHARDS,
        CROSS_SHARD_FRACTION: _NEEDS_SHARDS,
    },
    SHARDED: {
        RESILIENCE: "shard listeners are plain clients with no recovery layer",
        SUBCYCLE_REPORTS: "sub-cycle reports are a single-channel extension",
        INTERLEAVED: "shard engines run the serial update engine",
        CUSTOM_SCHEDULE: "shards derive their order from the partitioner",
        COHORT_SIZE: _NEEDS_COHORTS,
    },
    SHARD1: {
        RESILIENCE: "shard listeners are plain clients with no recovery layer",
        INTERLEAVED: "shard engines run the serial update engine",
        PARTITIONER: _ONE_SHARD,
        SHARD_CONSISTENCY: _ONE_SHARD,
        CROSS_SHARD_FRACTION: _ONE_SHARD,
        COHORT_SIZE: _NEEDS_COHORTS,
    },
    LIVE: {
        RESILIENCE: "listeners run no recovery layer; use the simulation",
        SUBCYCLE_REPORTS: "live mode airs one report per cycle",
        INTERLEAVED: "the live server runs the serial update engine",
        TRACE: "the live server emits no trace events",
        CUSTOM_SCHEDULE: "the live server airs the flat schedule",
        SHARDS: _ONE_CHANNEL,
        PARTITIONER: _NEEDS_SHARDS,
        SHARD_CONSISTENCY: _NEEDS_SHARDS,
        CROSS_SHARD_FRACTION: _NEEDS_SHARDS,
        COHORT_SIZE: _NEEDS_COHORTS,
    },
}


def refusal(mode: str, feature: str) -> Optional[str]:
    """Why ``mode`` refuses ``feature``, or None when it supports it."""
    if feature not in FEATURES:
        raise KeyError(f"Unknown feature {feature!r}")
    return REFUSED[mode].get(feature)


def check_feature(mode: str, feature: str) -> None:
    """Raise ValueError naming the flag when ``mode`` refuses ``feature``."""
    reason = refusal(mode, feature)
    if reason is not None:
        raise ValueError(
            f"{MODES[mode]} does not support {FEATURES[feature]}: {reason}"
        )


def check(
    mode: str,
    params: ModelParameters,
    report_schedule: ReportSchedule,
    *,
    schedule: object = None,
    interleaved: bool = False,
    trace: bool = False,
    verify: bool = False,
    knobs: Optional[Mapping[str, object]] = None,
) -> None:
    """Raise ValueError for the first feature this configuration turns on
    that ``mode`` refuses.

    ``knobs`` maps mode-only settings (``shards``, ``partitioner``,
    ``shard_consistency``, ``cross_shard_fraction``, ``cohort_size``) to
    their values; one is turned on when it is not None.  Faults and the
    report window are not looked at: every mode supports them
    (``tests/integration/test_mode_matrix.py`` runs them in each one).
    Every constructor calls this, and perfbench times construction with
    cold caches, so nothing is computed for a feature that is off.
    """
    if params.resilience.active:
        check_feature(mode, RESILIENCE)
    if report_schedule.per_cycle > 1:
        check_feature(mode, SUBCYCLE_REPORTS)
    if interleaved:
        check_feature(mode, INTERLEAVED)
    if trace:
        check_feature(mode, TRACE)
    if verify:
        check_feature(mode, VERIFY)
    if schedule is not None:
        check_feature(mode, CUSTOM_SCHEDULE)
    if knobs:
        for knob, value in knobs.items():
            if value is not None:
                check_feature(mode, knob)
