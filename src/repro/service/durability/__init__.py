"""Durable subscription state: journaling stores, snapshots, replay.

See :mod:`repro.service.durability.store` for the protocol and
``docs/durability.md`` for the recovery guarantees.
"""

from repro.service.durability.codec import (
    decode_predicate,
    decode_profile,
    decode_record_line,
    encode_predicate,
    encode_profile,
    encode_record_line,
)
from repro.service.durability.store import (
    STORE_OPS,
    DurabilityStats,
    InMemorySubscriptionStore,
    RecoveredState,
    StoreRecord,
    SubscriptionEntry,
    SubscriptionStore,
    materialize,
)
from repro.service.durability.wal import JsonlWalStore

__all__ = [
    "STORE_OPS",
    "DurabilityStats",
    "InMemorySubscriptionStore",
    "JsonlWalStore",
    "RecoveredState",
    "StoreRecord",
    "SubscriptionEntry",
    "SubscriptionStore",
    "decode_predicate",
    "decode_profile",
    "decode_record_line",
    "encode_predicate",
    "encode_profile",
    "encode_record_line",
    "materialize",
]
