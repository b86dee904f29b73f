"""Consistent-hash ring for the fleet's worker routing.

The fleet routes every call by its request's content-addressed plan key
(:func:`repro.core.plancache.plan_key`), so *identical templates always
land on the same worker process* — a key's compile and its later runs
meet the plan in that worker's memory tier.

A modulo hash (``hash(key) % n``) would remap nearly every key when the
fleet grows from N to N+1 shards, invalidating every shard's warm cache
at once.  The classic consistent-hashing construction avoids that: each
shard owns ``replicas`` pseudo-random points on a 2^64 ring, a key is
routed to the first shard point at or after the key's own point, and
adding one shard therefore steals only ~1/(N+1) of the keyspace — the
**minimal-disruption property** the property tests pin down.

Hashing is SHA-256-based, never Python's randomized ``hash()``, so
routing is stable across processes, runs, and machines — the router in
the parent process and any future external balancer agree byte-for-byte.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

DEFAULT_REPLICAS = 1024

_SPACE_BITS = 64
_SPACE = 1 << _SPACE_BITS


def _point(data: str) -> int:
    """Deterministic position of ``data`` on the 2^64 ring."""
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring mapping string keys onto named shards.

    ``replicas`` virtual points per shard smooth the keyspace split;
    1024 keeps every shard's share within ~20% of uniform for fleet
    sizes up to 16 (the property tests assert exactly that).  Building
    a 16-shard ring is ~16k hashes — milliseconds against a process
    spawn — and routing stays one bisect regardless.
    """

    def __init__(
        self,
        shards: Iterable[str] = (),
        *,
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: list[int] = []  # sorted ring positions
        self._owners: list[str] = []  # shard owning self._points[i]
        self._shards: set[str] = set()
        for shard in shards:
            self.add(shard)

    # -- membership ------------------------------------------------------
    @property
    def shards(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

    def add(self, shard: str) -> None:
        """Insert one shard (``replicas`` ring points).  Idempotent-safe:
        re-adding an existing shard is an error, not silent duplication."""
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.add(shard)
        for replica in range(self.replicas):
            point = _point(f"{shard}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard)

    def remove(self, shard: str) -> None:
        if shard not in self._shards:
            raise KeyError(shard)
        self._shards.discard(shard)
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != shard
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- routing ---------------------------------------------------------
    def route(self, key: str) -> str:
        """The shard owning ``key``: first ring point at/after the key's.

        Deterministic across processes (SHA-256).  Raises on an empty
        ring — routing with no shards is a configuration error, not a
        default.
        """
        if not self._points:
            raise LookupError("cannot route on an empty ring")
        point = _point(key)
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):  # wrap around
            index = 0
        return self._owners[index]

    def distribution(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each shard owns (all shards present)."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.route(key)] += 1
        return counts


__all__ = ["DEFAULT_REPLICAS", "HashRing"]
