"""Sharded multi-channel broadcast push (see DESIGN §13).

The item space is partitioned over K broadcast channels, each a full
server substrate (cycle, control information, version store, retention
tuning); clients tune to exactly the shards their readset can touch.
Cross-shard read consistency comes in two modes -- shard-local
guarantees with a global cycle-epoch stamp, or the epoch-aligned
currency discipline -- and the ``shard`` suite of :mod:`repro.oracle`
differentially verifies both, plus bit-identity of K=1 with the
single-channel server.
"""

from repro.shard.client import CrossShardQueryShaper, ShardedClient
from repro.shard.partition import (
    PARTITIONERS,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    make_partitioner,
)
from repro.shard.runtime import (
    ShardedBroadcastBackend,
    ShardedSimulation,
    ShardSchedule,
    ShardState,
    apportion,
)
from repro.shard.scheme import CONSISTENCY_MODES, MultiShardScheme
from repro.shard.verify import sharded_violations

__all__ = [
    "CONSISTENCY_MODES",
    "CrossShardQueryShaper",
    "HashPartitioner",
    "MultiShardScheme",
    "PARTITIONERS",
    "Partitioner",
    "RangePartitioner",
    "ShardSchedule",
    "ShardState",
    "ShardedBroadcastBackend",
    "ShardedClient",
    "ShardedSimulation",
    "apportion",
    "make_partitioner",
    "sharded_violations",
]
