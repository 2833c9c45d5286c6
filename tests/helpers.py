"""Shared test utilities.

The correctness oracles live in the library itself
(:mod:`repro.verify`) so that examples and downstream users can run
them; this module re-exports them for the test suite and adds small
transaction-collection helpers plus the canonical tiny workloads the
integration tests simulate (one definition instead of per-module
copies).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.core.transaction import ReadOnlyTransaction, TransactionStatus
from repro.experiments.runner import ExperimentProfile
from repro.oracle import SMOKE_PARAMS, contention_params
from repro.runtime import Simulation
from repro.verify import (  # noqa: F401 -- re-exported for tests
    check_transaction,
    is_serializable_with_server,
    readset_matches_snapshot,
    snapshot_cycle_of,
    violations,
)

#: The standard tiny world most integration tests simulate (100 items,
#: 10 buckets per cycle, moderate update pressure): the parallel oracle's.
SMALL_WORLD = SMOKE_PARAMS

#: A matching one-seed experiment profile for harness tests.
TINY_PROFILE = ExperimentProfile(
    num_cycles=30, warmup_cycles=3, num_clients=3, seeds=(5,)
)


def make_oracle_params(
    seed: int,
    offset: int = 0,
    updates: int = 8,
    ops: int = 5,
    num_cycles: int = 25,
    num_clients: int = 2,
) -> ModelParameters:
    """An even smaller, higher-contention world for oracle replays: the
    recovery oracle's (:func:`repro.oracle.contention_params`), shortened
    to 25 cycles and 2 clients by default, with the contention knobs the
    serializability and fault oracle tests vary."""
    return (
        contention_params(seed, num_cycles=num_cycles, num_clients=num_clients)
        .with_server(offset=offset, updates_per_cycle=updates)
        .with_client(ops_per_query=ops)
    )


def make_faulty_sim(
    scheme_factory: Callable[[], Scheme],
    seed: int = 7,
    params: Optional[ModelParameters] = None,
    keep_history: bool = True,
    **fault_kwargs,
) -> Simulation:
    """One small simulation with fault injection switched on.

    ``fault_kwargs`` go straight into :class:`repro.config.FaultParameters`
    (e.g. ``slot_loss=0.1, control_loss=0.05``); with none, the run is
    fault-free -- the differential baseline.  ``params`` defaults to
    :func:`make_oracle_params` at ``seed``, and history is kept so the
    correctness oracle can replay every commit.
    """
    base = params if params is not None else make_oracle_params(seed=seed)
    return Simulation(
        base.with_sim(seed=seed).with_faults(**fault_kwargs),
        scheme_factory=scheme_factory,
        keep_history=keep_history,
    )


def committed_transactions(clients: Iterable) -> List[ReadOnlyTransaction]:
    """All committed attempts across clients, completion order."""
    result: List[ReadOnlyTransaction] = []
    for client in clients:
        result.extend(
            txn
            for txn in client.completed
            if txn.status is TransactionStatus.COMMITTED
        )
    return result


def aborted_transactions(clients: Iterable) -> List[ReadOnlyTransaction]:
    result: List[ReadOnlyTransaction] = []
    for client in clients:
        result.extend(
            txn
            for txn in client.completed
            if txn.status is TransactionStatus.ABORTED
        )
    return result


def assert_programs_equal(a, b) -> None:
    """Two broadcast programs are identical, field by field."""
    assert a.cycle == b.cycle
    assert a.control == b.control
    assert a.control_slots == b.control_slots
    assert a.index_slots == b.index_slots
    assert a.total_slots == b.total_slots
    assert a.organization == b.organization
    assert list(a.data_buckets) == list(b.data_buckets)
    assert list(a.overflow_buckets) == list(b.overflow_buckets)
