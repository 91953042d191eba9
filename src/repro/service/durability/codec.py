"""JSON codec for the durable subscription store.

Everything a broker must remember across a restart — profiles (with
their full predicate algebra), subscription metadata and journal records
— round-trips through plain JSON here, the one wire format and
integrity check of the store.

Sinks are Python callables and therefore *not* durable, with one
deliberate exception: a :class:`~repro.service.delivery.webhook.WebhookSink`
is just an endpoint URL, so its endpoint is journaled and the sink is
reconstructed on replay.  All other sinks must be re-attached after
recovery via ``handle.deliver_to(...)``.

Integrity: every journal line carries a CRC-32 of its canonical JSON
encoding.  A record that fails the check at the *tail* of a log is a
torn write (crash mid-append) and is repaired by truncation; a failure
in the interior is :class:`~repro.core.errors.StoreCorruptionError`.
"""

from __future__ import annotations

import json
import zlib
from typing import Mapping

from repro.core.errors import StoreCorruptionError
from repro.core.intervals import Interval
from repro.core.predicates import (
    DONT_CARE,
    Equals,
    NotEquals,
    OneOf,
    Predicate,
    RangePredicate,
)
from repro.core.profiles import Profile

__all__ = [
    "decode_predicate",
    "decode_profile",
    "decode_record_line",
    "encode_predicate",
    "encode_profile",
    "encode_record_line",
]


# -- predicates ---------------------------------------------------------------
def encode_predicate(predicate: Predicate) -> dict:
    """Return a JSON-safe dict uniquely describing ``predicate``."""
    if predicate.is_dont_care:
        return {"kind": "dont_care"}
    if isinstance(predicate, Equals):
        return {"kind": "equals", "value": predicate.value}
    if isinstance(predicate, NotEquals):
        return {"kind": "not_equals", "value": predicate.value}
    if isinstance(predicate, OneOf):
        return {"kind": "one_of", "values": list(predicate.values)}
    if isinstance(predicate, RangePredicate):
        interval = predicate.interval
        return {
            "kind": "range",
            # JSON has no infinity literal; encode unbounded sides as null.
            "low": None if interval.low == float("-inf") else interval.low,
            "high": None if interval.high == float("inf") else interval.high,
            "low_closed": interval.low_closed,
            "high_closed": interval.high_closed,
        }
    raise StoreCorruptionError(
        f"predicate type {type(predicate).__name__} has no durable encoding; "
        "register a codec before persisting it"
    )


def decode_predicate(payload: Mapping) -> Predicate:
    """Rebuild a predicate from :func:`encode_predicate` output."""
    kind = payload.get("kind")
    if kind == "dont_care":
        return DONT_CARE
    if kind == "equals":
        return Equals(payload["value"])
    if kind == "not_equals":
        return NotEquals(payload["value"])
    if kind == "one_of":
        return OneOf(payload["values"])
    if kind == "range":
        low = payload["low"] if payload["low"] is not None else float("-inf")
        high = payload["high"] if payload["high"] is not None else float("inf")
        return RangePredicate(
            Interval(low, high, payload["low_closed"], payload["high_closed"])
        )
    raise StoreCorruptionError(f"unknown predicate kind {kind!r} in the store")


# -- profiles -----------------------------------------------------------------
def encode_profile(profile: Profile) -> dict:
    """Return a JSON-safe dict round-tripping ``profile`` exactly."""
    return {
        "profile_id": profile.profile_id,
        "predicates": {
            name: encode_predicate(predicate)
            for name, predicate in profile.predicates.items()
        },
        "subscriber": profile.subscriber,
        "priority": profile.priority,
    }


def decode_profile(payload: Mapping) -> Profile:
    """Rebuild a profile from :func:`encode_profile` output."""
    return Profile(
        payload["profile_id"],
        {
            name: decode_predicate(predicate)
            for name, predicate in payload["predicates"].items()
        },
        subscriber=payload.get("subscriber"),
        priority=payload.get("priority", 0),
    )


# -- journal framing ----------------------------------------------------------
def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_record_line(payload: dict) -> str:
    """Frame one journal record: canonical JSON + CRC-32, one line."""
    body = _canonical(payload)
    crc = zlib.crc32(body.encode("utf-8"))
    return _canonical({"crc": crc, "record": payload}) + "\n"


def decode_record_line(line: str) -> dict | None:
    """Parse one journal line; ``None`` signals a torn (unverifiable) line.

    The caller decides whether ``None`` is a repairable torn tail (last
    line of the file) or interior corruption.
    """
    line = line.strip()
    if not line:
        return None
    try:
        framed = json.loads(line)
    except ValueError:
        return None
    if not isinstance(framed, dict) or "record" not in framed or "crc" not in framed:
        return None
    body = _canonical(framed["record"])
    if zlib.crc32(body.encode("utf-8")) != framed["crc"]:
        return None
    return framed["record"]
