"""Content-addressed execution-plan cache.

Compiling the same template for the same device with the same options is
deterministic, so the result can be reused outright: the cache key is a
stable structural hash of (graph, device parameters, CompileOptions) and
the value is everything :meth:`repro.core.Framework.compile` would have
recomputed — split graph, plan, operator order, split report.  The
graph's part of the key is a fingerprint memoised on the graph, the
device/options parts are memoised per value, and the key itself is
memoised on the graph per (device, options), so a repeat compile (the
common case for a deployed template served against steady traffic) is
two dictionary lookups and shares the entry's immutable op order.

Two tiers:

* an in-memory LRU (always on) holding live objects — hits share the
  graph/plan with earlier compiles, which is safe because the runtime
  executors only read them;
* an optional on-disk tier of JSON entries surviving process restarts.
  Enable it by passing ``disk_dir`` or via the ``REPRO_PLAN_CACHE``
  environment variable: ``1``/``on`` selects ``~/.cache/repro-plans``,
  any other non-empty value is used as the directory itself, and
  ``0``/``off``/unset disables it.  Corrupted entries are deleted and
  treated as misses, never propagated.

Keys are content-addressed, so *any* structural change — a different
graph, device parameter, or compile option — lands on a different key;
stale entries are never returned, only evicted by LRU order (memory) or
left unreferenced (disk).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.live.events import publish
from .filelock import FileLock
from .graph import GraphError, OperatorGraph
from .plan import ExecutionPlan
from .serialize import graph_from_dict, graph_to_dict, plan_from_dict, plan_to_dict
from .splitting import SplitReport

#: bump when the entry payload or key layout changes; old disk entries
#: are then treated as corrupt and rewritten
#: (2: plan dicts carry schema_version; 3: keys compose memoised parts;
#: 4: device-group plans honour ``eviction_policy="cost"``)
CACHE_VERSION = 4


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
def _canonical(obj: Any) -> Any:
    """``json`` fallback for key material it cannot encode itself (a
    nested dataclass becomes its canonical JSON *string*)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical_json(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return str(obj)


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_canonical
)


def _canonical_json(obj: Any) -> str:
    """Canonical JSON (sorted keys, no whitespace) of one key part."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        try:
            return _frozen_json(obj)
        except TypeError:  # unhashable (a mutable dataclass): no memo
            obj = dataclasses.asdict(obj)
    return _ENCODER.encode(obj)


@functools.lru_cache(maxsize=256)
def _frozen_json(value: Any) -> str:
    # Devices, hosts, groups and options are frozen dataclasses: one
    # canonical string per distinct value instead of an ``asdict`` deep
    # copy per key.  Values that compare equal share the string (and so
    # the key) — they compile identically.
    return _ENCODER.encode(dataclasses.asdict(value))


def graph_fingerprint(graph: OperatorGraph) -> str:
    """Structural hash of a graph: sha256 of its canonical
    :func:`graph_to_dict` JSON — the one definition, shared by
    :func:`plan_key`, the fragment keys and the split-candidate dedupe.

    Memoised on the graph.  Every mutator drops it, a same-named
    ``copy()`` and ``pickle`` carry it, so a template is serialized once
    however many keys, processes and requests it passes through (see
    the freeze rule on :class:`OperatorGraph`)."""
    fp = graph._fingerprint
    if fp is None:
        blob = _canonical_json(graph_to_dict(graph))
        fp = graph._fingerprint = hashlib.sha256(
            blob.encode("utf-8")
        ).hexdigest()
    return fp


def plan_key(
    graph: OperatorGraph,
    device: Any,
    options: Any,
    *,
    kind: str = "single",
    extra: Any = None,
) -> str:
    """Stable content hash of one compilation's full input.

    ``device`` and ``options`` may be any (possibly nested) dataclasses;
    ``extra`` carries additional key material (e.g. the transfer mode and
    host system of a multi-GPU compile).  The key is the sha256 of
    ``CACHE_VERSION`` · ``kind`` · :func:`graph_fingerprint` · canonical
    device · canonical options · canonical ``extra``; every part is
    canonical JSON (sorted keys) or a hash of it, so the key is stable
    across processes and platforms.

    Without ``extra``, the key is memoised on the graph per
    ``(kind, device, options)`` value, so a repeat call is one dict
    lookup; every graph mutator drops the memo with the fingerprint, and
    neither ``copy()`` nor ``pickle`` carries it.  Unhashable parts (a
    mutable dataclass) are keyed afresh on every call.
    """
    memo_key: tuple | None = None
    if extra is None:
        memo_key = (kind, device, options)
        try:
            key = (graph._plan_keys or {}).get(memo_key)
        except TypeError:
            memo_key = key = None
        if key is not None:
            return key
    # Newline-joined: canonical JSON and hex digests never contain one.
    blob = "\n".join((
        str(CACHE_VERSION),
        kind,
        graph_fingerprint(graph),
        _canonical_json(device),
        _canonical_json(options),
        _canonical_json(extra),
    ))
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    if memo_key is not None:
        memo = graph._plan_keys
        if memo is None:
            memo = graph._plan_keys = {}
        memo[memo_key] = key
    return key


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------
@dataclass
class CachedPlan:
    """Everything a compile would recompute, ready for reuse."""

    graph: OperatorGraph
    plan: ExecutionPlan
    #: the compile's one op-order tuple, handed out by every hit
    op_order: tuple[str, ...]
    split_report: SplitReport
    peak_device_floats: int = 0
    #: compile-metrics snapshot at fill time (reused on hits so a warm
    #: compile does not re-walk a 100k-step plan to rebuild gauges)
    metrics: dict[str, Any] = field(default_factory=dict)
    #: JSON-able side payload (e.g. the multi-GPU partition)
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": CACHE_VERSION,
            "graph": graph_to_dict(self.graph),
            "plan": plan_to_dict(self.plan),
            "op_order": list(self.op_order),
            "split_report": {
                "rounds": self.split_report.rounds,
                "split_ops": dict(self.split_report.split_ops),
                "partitioned_roots": dict(self.split_report.partitioned_roots),
            },
            "peak_device_floats": self.peak_device_floats,
            "metrics": self.metrics,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "CachedPlan":
        if raw.get("version") != CACHE_VERSION:
            raise ValueError(
                f"plan-cache entry version {raw.get('version')!r} != "
                f"{CACHE_VERSION}"
            )
        sr = raw.get("split_report", {})
        return cls(
            graph=graph_from_dict(raw["graph"]),
            plan=plan_from_dict(raw["plan"]),
            op_order=tuple(raw["op_order"]),
            split_report=SplitReport(
                rounds=int(sr.get("rounds", 0)),
                split_ops=dict(sr.get("split_ops", {})),
                partitioned_roots=dict(sr.get("partitioned_roots", {})),
            ),
            peak_device_floats=int(raw.get("peak_device_floats", 0)),
            metrics=dict(raw.get("metrics", {})),
            extra=dict(raw.get("extra", {})),
        )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------
class PlanCache:
    """In-memory LRU + optional on-disk tier of compiled plans."""

    def __init__(
        self, max_entries: int = 32, disk_dir: str | None = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk_dir = disk_dir
        self._mem: OrderedDict[str, CachedPlan] = OrderedDict()
        self.hits = 0  # memory-tier hits
        self.disk_hits = 0
        self.misses = 0
        self.disk_writes = 0
        self.corrupt_entries = 0

    # -- lookup ----------------------------------------------------------
    def get(self, key: str) -> CachedPlan | None:
        entry = self._mem.get(key)
        if entry is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            publish("plancache.hit", tier="memory", key=key[:12])
            return entry
        entry = self._disk_get(key)
        if entry is not None:
            self.disk_hits += 1
            self._mem_put(key, entry)
            publish("plancache.hit", tier="disk", key=key[:12])
            return entry
        self.misses += 1
        publish("plancache.miss", key=key[:12])
        return None

    def load(self, key: str) -> bool:
        """Whether ``key`` is resident, reading it from the disk tier
        into the memory tier if need be — a probe: no hit/miss count,
        no event, no LRU touch, no leadership election, so it never
        makes its caller compile.  A resident key is one dict membership
        test, which needs no lock in any subclass.  A corrupt disk entry
        is counted and dropped, as by :meth:`get`."""
        if key in self._mem:
            return True
        entry = self._disk_get(key)
        if entry is None:
            return False
        self._mem_put(key, entry)
        return True

    def put(self, key: str, entry: CachedPlan) -> None:
        self._mem_put(key, entry)
        self._disk_put(key, entry)
        publish("plancache.store", key=key[:12], entries=len(self._mem))

    def clear(self) -> None:
        self._mem.clear()

    def abandon(self, key: str) -> None:
        """Give up on a pending fill for ``key`` (compile failed).

        A plain cache has nothing to clean up; the shared cross-process
        tier overrides this to release the key's leadership lock so
        followers stop waiting on a compile that will never land.
        """

    def __len__(self) -> int:
        return len(self._mem)  # one C call: no subclass needs a lock here

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "entries": len(self._mem),
            "disk_writes": self.disk_writes,
            "corrupt_entries": self.corrupt_entries,
        }

    # -- memory tier -----------------------------------------------------
    def _mem_put(self, key: str, entry: CachedPlan) -> None:
        # Hits share the entry's graph with every caller: it must be a
        # value none of them can edit.
        if not entry.graph.frozen:
            raise GraphError(f"plan-cache entry graph {entry.graph.name!r} "
                             "is not frozen")
        self._mem[key] = entry
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    # -- disk tier -------------------------------------------------------
    def _path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, f"{key}.json")

    def _disk_get(self, key: str) -> CachedPlan | None:
        if self.disk_dir is None:
            return None
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return CachedPlan.from_dict(json.load(fh))
        except Exception:
            # Truncated write, stale version, hand-edited junk: drop the
            # entry and recompile rather than surface a broken plan.
            self.corrupt_entries += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _disk_put(self, key: str, entry: CachedPlan) -> None:
        if self.disk_dir is None:
            return
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.disk_dir, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry.to_dict(), fh)
            os.replace(tmp, self._path(key))  # atomic: readers never see partials
            self.disk_writes += 1
        except OSError:
            pass  # a read-only or full disk degrades to memory-only


# ---------------------------------------------------------------------------
# Shared cross-process tier
# ---------------------------------------------------------------------------
class SharedPlanCache(PlanCache):
    """A :class:`PlanCache` whose disk tier is shared across processes,
    with stampede protection.

    Many independent processes (shard workers, CLI invocations, test
    runners) cold-starting against the same template would all compile
    it concurrently — N× the work for one cache entry.  This tier adds
    per-key **leader election** over advisory lock files
    (:class:`repro.core.filelock.FileLock`):

    * the first process to miss on a key acquires ``<key>.lock`` and
      becomes the *leader*; its ``get()`` returns ``None`` and its
      eventual ``put()`` stores the entry (atomic ``os.replace``) and
      releases the lock;
    * every other process missing on the same key becomes a *follower*:
      its ``get()`` blocks, polling for the stored entry, and returns
      the leader's bytes — exactly one compile happens machine-wide;
    * a leader that dies mid-compile (or mid-write) leaves a lock whose
      pid is dead: followers detect the **stale lock**, break it, and
      contend to become the new leader.  Partial entry files are never
      visible (atomic replace); orphaned ``.tmp-*`` spill files are
      swept when a stale lock is broken.
    * a follower that waits longer than ``lock_timeout`` gives up on
      dedupe and compiles locally — availability beats deduplication.

    The class is also thread-safe (the in-memory tier and counters are
    lock-protected), so one instance can serve a whole worker pool
    without the service-side locking wrapper.
    """

    def __init__(
        self,
        disk_dir: str,
        max_entries: int = 32,
        *,
        lock_timeout: float = 60.0,
        stale_after: float = 10.0,
        poll_interval: float = 0.005,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not disk_dir:
            raise ValueError("SharedPlanCache requires a disk_dir")
        if lock_timeout <= 0 or poll_interval <= 0:
            raise ValueError("lock_timeout and poll_interval must be > 0")
        super().__init__(max_entries=max_entries, disk_dir=disk_dir)
        self.lock_timeout = lock_timeout
        self.stale_after = stale_after
        self.poll_interval = poll_interval
        self._clock = clock
        self._sleep = sleep
        self._tlock = threading.RLock()
        self._held: dict[str, FileLock] = {}
        self.lock_waits = 0  # gets that entered the follower wait
        self.follower_hits = 0  # waits resolved by the leader's entry
        self.lock_breaks = 0  # stale locks broken
        self.lock_timeouts = 0  # waits abandoned -> local compile

    # -- lock plumbing ---------------------------------------------------
    def _lock_path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, f"{key}.lock")

    def _make_lock(self, key: str) -> FileLock:
        os.makedirs(self.disk_dir, exist_ok=True)  # type: ignore[arg-type]
        return FileLock(self._lock_path(key), stale_after=self.stale_after)

    def _sweep_tmp(self) -> None:
        """Remove orphaned atomic-write spill files left by dead writers."""
        try:
            with os.scandir(self.disk_dir) as it:  # type: ignore[arg-type]
                now = time.time()
                for entry in it:
                    if not entry.name.startswith(".tmp-"):
                        continue
                    try:
                        if now - entry.stat().st_mtime > self.stale_after:
                            os.remove(entry.path)
                    except OSError:
                        continue
        except OSError:
            pass

    # -- hits ------------------------------------------------------------
    def _mem_put(self, key: str, entry: CachedPlan) -> None:
        with self._tlock:
            super()._mem_put(key, entry)

    def _mem_hit(self, key: str) -> CachedPlan | None:
        with self._tlock:
            entry = self._mem.get(key)
            if entry is None:
                return None
            self._mem.move_to_end(key)
            self.hits += 1
        publish("plancache.hit", tier="memory", key=key[:12])
        return entry

    def _disk_hit(self, key: str, *, follower: bool = False) -> CachedPlan | None:
        entry = self._disk_get(key)
        if entry is None:
            return None
        with self._tlock:
            self.disk_hits += 1
            if follower:
                self.follower_hits += 1
            self._mem_put(key, entry)
        publish(
            "plancache.hit",
            tier="disk",
            key=key[:12],
            follower=follower,
        )
        return entry

    # -- the shared protocol ---------------------------------------------
    def get(self, key: str) -> CachedPlan | None:  # type: ignore[override]
        entry = self._mem_hit(key)
        if entry is not None:
            return entry
        entry = self._disk_hit(key)
        if entry is not None:
            return entry
        # Cold machine-wide (or leader in flight): contend for leadership.
        lock = self._make_lock(key)
        deadline = self._clock() + self.lock_timeout
        waited = False
        while True:
            if lock.acquire():
                # Double-check: the previous leader may have stored the
                # entry between our probe and its release.
                entry = self._disk_hit(key, follower=waited)
                if entry is not None:
                    lock.release()
                    return entry
                with self._tlock:
                    self._held[key] = lock
                    self.misses += 1
                publish("plancache.miss", key=key[:12], leader=True)
                return None  # we are the leader; caller compiles + put()s
            if not waited:
                waited = True
                with self._tlock:
                    self.lock_waits += 1
                publish("plancache.lock_wait", key=key[:12])
            if lock.is_stale():
                if lock.break_stale():
                    with self._tlock:
                        self.lock_breaks += 1
                    self._sweep_tmp()
                    publish("plancache.lock_break", key=key[:12])
                continue  # recontend immediately
            if self._clock() >= deadline:
                with self._tlock:
                    self.lock_timeouts += 1
                    self.misses += 1
                publish("plancache.lock_timeout", key=key[:12])
                return None  # give up on dedupe; compile locally
            self._sleep(self.poll_interval)
            entry = self._disk_hit(key, follower=True)
            if entry is not None:
                return entry

    def put(self, key: str, entry: CachedPlan) -> None:  # type: ignore[override]
        super().put(key, entry)
        self.abandon(key)  # release leadership, if we held it

    def abandon(self, key: str) -> None:
        """Release ``key``'s leadership lock without storing an entry."""
        with self._tlock:
            lock = self._held.pop(key, None)
        if lock is not None:
            lock.release()

    def clear(self) -> None:
        with self._tlock:
            super().clear()
            held, self._held = dict(self._held), {}
        for lock in held.values():
            lock.release()

    def stats(self) -> dict[str, int]:
        with self._tlock:
            out = super().stats()
            out.update({
                "lock_waits": self.lock_waits,
                "follower_hits": self.follower_hits,
                "lock_breaks": self.lock_breaks,
                "lock_timeouts": self.lock_timeouts,
            })
            return out


# ---------------------------------------------------------------------------
# Process-default cache
# ---------------------------------------------------------------------------
_DEFAULT: PlanCache | None = None


def _disk_dir_from_env() -> str | None:
    raw = os.environ.get("REPRO_PLAN_CACHE", "").strip()
    if raw.lower() in ("", "0", "off", "none", "false"):
        return None
    if raw.lower() in ("1", "on", "true", "default"):
        return os.path.join(os.path.expanduser("~"), ".cache", "repro-plans")
    return raw


def default_cache() -> PlanCache:
    """The process-wide cache used by :class:`repro.core.Framework`."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PlanCache(disk_dir=_disk_dir_from_env())
    return _DEFAULT


def reset_default_cache() -> None:
    """Forget the process-default cache (tests, env-var changes)."""
    global _DEFAULT
    _DEFAULT = None
