"""Retention-depth limits of the columnar store (latent-bug regression).

``ColumnarVersionStore`` keeps the has-old pointer column as a
``bytearray`` of retained-version counts, so it physically cannot track
more than 255 retained versions per item.  Before this fix a retention
deeper than 255 was accepted at construction and only blew up cycles
later, mid-run, when some hot item's 256th supersedure overflowed the
column.  Now the constructor rejects it with a pointed error that names
the escape hatch (the dict-backed store), and the sharded runtime
rejects deep ``shard_retention`` entries the same way.
"""

import pytest

from repro.experiments.schemes import scheme_factory
from repro.oracle import oracle_params
from repro.server.database import Database, Version
from repro.server.columnar import ColumnarVersionStore
from repro.server.versions import VersionStore
from repro.shard.runtime import ShardedSimulation


def test_columnar_rejects_retention_beyond_the_byte_column():
    database = Database(10)
    with pytest.raises(ValueError, match="255-version has-old column"):
        ColumnarVersionStore(database, retention=256)
    # The message points at the escape hatch.
    with pytest.raises(ValueError, match="columnar=False"):
        ColumnarVersionStore(database, retention=1000)


def test_columnar_accepts_the_255_boundary():
    database = Database(10)
    store = ColumnarVersionStore(database, retention=255)
    assert store.retention == 255


def test_dict_backed_store_still_accepts_deep_retention():
    database = Database(10)
    store = VersionStore(database, retention=1000)
    assert store.retention == 1000


def test_runtime_overflow_guard_survives_for_per_item_depth():
    """The mid-run guard stays: 255 *versions of one item* can pile up
    even under a legal retention when one item is superseded repeatedly
    within the window."""
    database = Database(4)
    store = ColumnarVersionStore(database, retention=255)
    for n in range(255):
        store.record_supersedure(
            Version(item=1, value=n, cycle=n + 1, writer=None), superseded_at=n + 1
        )
    with pytest.raises(ValueError, match="more than 255 retained versions"):
        store.record_supersedure(
            Version(item=1, value=255, cycle=256, writer=None), superseded_at=256
        )


def test_sharded_runtime_rejects_deep_shard_retention():
    params = oracle_params(2, seed=5, faults=False, num_cycles=10)
    factory = scheme_factory("multiversion+cache")
    with pytest.raises(ValueError, match=r"shard_retention entries \[300\]"):
        ShardedSimulation(
            params,
            factory,
            num_shards=2,
            shard_retention=[8, 300],
        )
    # The dict-backed store has no such ceiling.
    sim = ShardedSimulation(
        params,
        factory,
        num_shards=2,
        shard_retention=[8, 300],
        columnar=False,
    )
    assert sim is not None
