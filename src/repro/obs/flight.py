"""Crash-safe flight recorder: a segmented on-disk journal of telemetry.

The live event bus (:class:`repro.obs.live.EventLog`) is an in-memory
ring — perfect while its process is alive, gone the instant the process
is not.  A serving fleet needs the opposite guarantee: when a shard is
SIGKILLed mid-request, the events that explain *why* must survive the
process.  :class:`FlightRecorder` is that black box.  It tees every
published event into an append-only, segmented journal on disk:

* every record is one **frame** — the same fixed binary header
  discipline as :mod:`repro.service.ipc` (magic, version, flags,
  CRC-32, payload length) — followed by a JSON-encoded event dict.
  JSON, not pickle: a post-mortem must be readable even by tooling
  that cannot import this codebase, and a journal written by a crashed
  build must never be able to execute code in the reader;
* records append to numbered segment files (``segment-00000000.flight``,
  ...).  A segment that would exceed ``segment_bytes`` is closed and
  the next one opened — rotation is a plain create-new-file, so a
  reader never observes a half-renamed journal;
* total journal size is bounded: once the directory exceeds
  ``max_bytes`` the oldest closed segments are evicted, newest data
  always wins (the last seconds before a crash are the valuable ones);
* each record is flushed to the OS page cache as one buffered write.
  Page cache survives process death (SIGKILL included) — only a
  machine crash can lose it, and ``fsync=True`` closes that window for
  callers who want it at the cost of one fsync per record.

The reader side (:func:`read_journal`) is deliberately forgiving: a
truncated or corrupt tail — the expected signature of a crash mid-write
— terminates that segment's decode with a *warning*, never an
exception.  :func:`build_postmortem` then folds the recovered records
into the crash report the supervisor attaches to
:class:`~repro.service.ShardDiedError`: final event timeline, in-flight
request ids, reconstructed latency/outcome stats, active alerts, exit
code.

Like the rest of :mod:`repro.obs`, this module sits at the bottom of
the import graph: no ``repro.core`` / ``repro.gpusim`` / ``repro.service``
imports.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.live.events import EventLog, TelemetryEvent

MAGIC = b"RFLT"
JOURNAL_VERSION = 1

#: ``!`` network order: magic, version, flags, crc32, payload length —
#: deliberately the same shape as the shard IPC header (ipc._HEADER).
_HEADER = struct.Struct("!4sBBII")
HEADER_SIZE = _HEADER.size

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".flight"
DEFAULT_SEGMENT_BYTES = 1 << 20  # 1 MiB per segment
DEFAULT_MAX_BYTES = 16 << 20     # 16 MiB journal bound
POSTMORTEM_BASENAME = "postmortem.json"

#: event kinds that terminate a request's in-flight status (a fleet
#: worker journals each call it answers as ``worker.done``)
_TERMINAL_KINDS = frozenset({"service.done", "worker.done"})
#: the worker's clean-shutdown marker (a journal ending without one of
#: these, from a dead process, is a crash)
_SHUTDOWN_KINDS = frozenset({"service.close", "worker.stop"})


class JournalError(RuntimeError):
    """A journal record failed validation (magic/version/CRC/length)."""


def segment_name(index: int) -> str:
    """Filename of segment ``index`` (zero-padded so names sort)."""
    return f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def _segment_index(name: str) -> int | None:
    """Inverse of :func:`segment_name`; ``None`` for foreign files."""
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    stem = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        return None


def list_segments(directory: str) -> list[str]:
    """Absolute paths of the journal's segments, oldest first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    indexed = sorted(
        (idx, name)
        for name in names
        if (idx := _segment_index(name)) is not None
    )
    return [os.path.join(directory, name) for _, name in indexed]


def journal_dir(flight_dir: str, shard_label: str) -> str:
    """The per-shard journal directory under a fleet ``flight_dir``.

    Shard labels use ``/`` as a namespace separator (``proc/0``) which
    cannot appear in a single path component; it maps to ``-``.
    """
    safe = shard_label.replace("/", "-").replace(os.sep, "-") or "shard"
    return os.path.join(flight_dir, safe)


def journal_dirs(root: str) -> list[str]:
    """Journal directories under ``root``: itself if it holds segments,
    else any immediate sub-directory that does (a fleet ``flight_dir``
    root with one journal per shard)."""
    if list_segments(root):
        return [root]
    if not os.path.isdir(root):
        return []
    found = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isdir(path) and (
            list_segments(path)
            or os.path.exists(os.path.join(path, POSTMORTEM_BASENAME))
        ):
            found.append(path)
    return found


def encode_record(payload: dict[str, Any]) -> bytes:
    """Frame one event dict into a CRC-protected journal record."""
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    header = _HEADER.pack(
        MAGIC,
        JOURNAL_VERSION,
        0,  # flags, reserved
        zlib.crc32(body) & 0xFFFFFFFF,
        len(body),
    )
    return header + body


def decode_records(data: bytes) -> tuple[list[dict[str, Any]], str | None]:
    """Decode a segment's bytes into (records, tail_warning).

    Decoding is sequential and stops at the first invalid frame: in a
    crash-written journal only the *tail* can be damaged (truncated
    write, torn page), so everything before the first bad frame is
    trusted and returned, and the damage is reported as a warning
    string instead of an exception.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < HEADER_SIZE:
            return records, (
                f"truncated header at byte {offset} "
                f"({total - offset} trailing bytes)"
            )
        magic, version, _flags, crc, length = _HEADER.unpack_from(data, offset)
        if magic != MAGIC:
            return records, f"bad magic {magic!r} at byte {offset}"
        if version != JOURNAL_VERSION:
            return records, f"unknown journal version {version} at byte {offset}"
        start = offset + HEADER_SIZE
        end = start + length
        if end > total:
            return records, (
                f"truncated record at byte {offset}: header claims "
                f"{length} payload bytes, {total - start} present"
            )
        body = data[start:end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            return records, f"CRC mismatch at byte {offset}"
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return records, f"undecodable payload at byte {offset}: {exc}"
        if not isinstance(payload, dict):
            return records, f"non-object payload at byte {offset}"
        records.append(payload)
        offset = end
    return records, None


class FlightRecorder:
    """Single-writer, crash-safe event journal for one shard process.

    Attach it to an :class:`EventLog` via
    ``log.add_sink(recorder.record)`` (or :meth:`attach`) and every
    published event is framed and appended before ``emit`` returns, so
    the on-disk journal is never behind the in-memory ring by more than
    the one record being written when the process dies.
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        fsync: bool = False,
    ) -> None:
        if segment_bytes < HEADER_SIZE + 2:
            raise ValueError("segment_bytes too small to hold one record")
        if max_bytes < segment_bytes:
            raise ValueError("max_bytes must be >= segment_bytes")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.max_bytes = max_bytes
        self.fsync = fsync
        self._lock = threading.Lock()
        self._file = None
        self._file_size = 0
        self._closed = False
        self.appended = 0
        self.rotated = 0
        self.evicted = 0
        self.errors = 0
        os.makedirs(directory, exist_ok=True)
        # restarting over an existing journal continues its numbering
        existing = list_segments(directory)
        self._next_index = (
            (_segment_index(os.path.basename(existing[-1])) or 0) + 1
            if existing else 0
        )
        self._open_segment()

    # -- writer ----------------------------------------------------------
    def _open_segment(self) -> None:
        while True:
            path = os.path.join(self.directory, segment_name(self._next_index))
            self._next_index += 1
            try:
                self._file = open(path, "xb")
            except FileExistsError:
                continue  # another lifetime of this shard got there first
            self._file_size = 0
            return

    def _rotate(self) -> None:
        self._file.close()
        self.rotated += 1
        self._open_segment()
        self._evict()

    def _evict(self) -> None:
        """Drop oldest closed segments while the journal exceeds its bound."""
        segments = list_segments(self.directory)
        current = self._file.name if self._file else None
        sizes = []
        for path in segments:
            try:
                sizes.append((path, os.path.getsize(path)))
            except OSError:
                continue
        total = sum(size for _, size in sizes)
        for path, size in sizes:
            if total <= self.max_bytes:
                break
            if path == current:
                break  # never evict the segment being written
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.evicted += 1

    def record(self, event: TelemetryEvent) -> None:
        """Append one event (EventLog sink signature).  Never raises —
        a broken disk must not take down the serving path."""
        try:
            frame = encode_record(event.to_dict())
        except Exception:
            self.errors += 1
            return
        with self._lock:
            if self._closed or self._file is None:
                return
            try:
                if (self._file_size
                        and self._file_size + len(frame) > self.segment_bytes):
                    self._rotate()
                self._file.write(frame)
                # one flush per record: the OS page cache survives
                # process death, which is the crash mode shards have
                self._file.flush()
                if self.fsync:
                    os.fsync(self._file.fileno())
                self._file_size += len(frame)
                self.appended += 1
            except Exception:
                self.errors += 1

    def attach(self, log: EventLog) -> None:
        """Tee ``log``'s events into this journal."""
        log.add_sink(self.record)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "appended": self.appended,
                "rotated": self.rotated,
                "evicted": self.evicted,
                "errors": self.errors,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._file is not None:
                try:
                    self._file.flush()
                    self._file.close()
                except Exception:
                    pass
                self._file = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------
@dataclass
class JournalReadResult:
    """Everything recovered from one shard's on-disk journal."""

    directory: str
    records: list[dict[str, Any]] = field(default_factory=list)
    segments: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.warnings


def read_journal(directory: str) -> JournalReadResult:
    """Recover every decodable record from a journal directory.

    Records are returned in ``seq`` order.  Damage (truncated tail,
    CRC mismatch, missing segment) is reported in ``warnings`` — a
    crashed writer is the *normal* producer of this data, so no state
    of the directory raises.
    """
    result = JournalReadResult(directory=directory)
    if not os.path.isdir(directory):
        result.warnings.append(f"no journal directory at {directory}")
        return result
    for path in list_segments(directory):
        result.segments.append(path)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            result.warnings.append(f"{os.path.basename(path)}: unreadable ({exc})")
            continue
        records, tail = decode_records(data)
        result.records.extend(records)
        if tail is not None:
            result.warnings.append(f"{os.path.basename(path)}: {tail}")
    result.records.sort(key=lambda r: (r.get("seq", 0), r.get("ts", 0.0)))
    return result


def iter_journal_events(directory: str) -> Iterator[dict[str, Any]]:
    """Convenience iterator over :func:`read_journal` records."""
    yield from read_journal(directory).records


# ---------------------------------------------------------------------------
# Post-mortem synthesis
# ---------------------------------------------------------------------------
def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def describe_exit(exit_code: int | None) -> str:
    """Human phrasing of a process exit code (signal-aware)."""
    if exit_code is None:
        return "exit status unknown"
    if exit_code < 0:
        try:
            name = signal.Signals(-exit_code).name
        except ValueError:
            name = f"signal {-exit_code}"
        return f"killed by {name} ({exit_code})"
    return f"exit code {exit_code}"


def build_postmortem(
    records: list[dict[str, Any]],
    *,
    shard: str = "",
    exit_code: int | None = None,
    window_seconds: float = 60.0,
    timeline_limit: int = 50,
    warnings: list[str] | None = None,
) -> dict[str, Any]:
    """Fold recovered journal records into one crash report.

    The report answers the questions an operator asks first:

    * what were the final moments? — ``timeline`` (last
      ``window_seconds`` of events, newest ``timeline_limit``);
    * what was the shard working on? — ``in_flight`` (request ids
      admitted or started but never finished);
    * how was it performing? — ``window`` (count / ok / failed /
      latency percentiles reconstructed from ``service.done`` events);
    * was anything already on fire? — ``alerts_active`` (``alert.firing``
      without a matching ``alert.resolved``);
    * how did it die? — ``exit_code`` / ``exit_detail`` /
      ``clean_shutdown``.
    """
    last_ts = max((r.get("ts", 0.0) for r in records), default=0.0)
    horizon = last_ts - window_seconds

    in_flight: dict[int, str] = {}
    done_latencies: list[float] = []
    done_ok = 0
    done_failed = 0
    alerts: dict[str, dict[str, Any]] = {}
    clean_shutdown = False
    first_seq = records[0].get("seq") if records else None
    last_seq = records[-1].get("seq") if records else None

    for rec in records:
        kind = rec.get("kind", "")
        rid = rec.get("request_id")
        fields = rec.get("fields") or {}
        if rid is not None:
            if kind in _TERMINAL_KINDS:
                in_flight.pop(rid, None)
                status = str(fields.get("status", ""))
                if status == "ok":
                    done_ok += 1
                else:
                    done_failed += 1
                seconds = fields.get("seconds")
                if isinstance(seconds, (int, float)):
                    done_latencies.append(float(seconds))
            else:
                in_flight[rid] = kind  # latest known stage
        if kind == "alert.firing":
            name = str(fields.get("rule", fields.get("name", "alert")))
            alerts[name] = {"rule": name, "since_ts": rec.get("ts"), **fields}
        elif kind == "alert.resolved":
            alerts.pop(str(fields.get("rule", fields.get("name", "alert"))),
                       None)
        if kind in _SHUTDOWN_KINDS:
            clean_shutdown = True

    timeline = [r for r in records if r.get("ts", 0.0) >= horizon]
    if timeline_limit is not None and len(timeline) > timeline_limit:
        timeline = timeline[-timeline_limit:]

    done_latencies.sort()
    window = {
        "window_seconds": window_seconds,
        "count": done_ok + done_failed,
        "ok": done_ok,
        "failed": done_failed,
        "p50": _percentile(done_latencies, 0.50),
        "p95": _percentile(done_latencies, 0.95),
        "p99": _percentile(done_latencies, 0.99),
    }

    return {
        "shard": shard,
        "exit_code": exit_code,
        "exit_detail": describe_exit(exit_code),
        "clean_shutdown": clean_shutdown,
        "records": len(records),
        "first_seq": first_seq,
        "last_seq": last_seq,
        "last_ts": last_ts,
        "in_flight": [
            {"request_id": rid, "last_kind": kind}
            for rid, kind in sorted(in_flight.items())
        ],
        "window": window,
        "alerts_active": sorted(alerts.values(),
                                key=lambda a: str(a.get("rule", ""))),
        "timeline": timeline,
        "warnings": list(warnings or ()),
    }


def harvest_postmortem(
    directory: str,
    *,
    shard: str = "",
    exit_code: int | None = None,
    window_seconds: float = 60.0,
    timeline_limit: int = 50,
    write_artifact: bool = True,
) -> dict[str, Any]:
    """Read a dead shard's journal and synthesize (and persist) its
    post-mortem.

    When ``write_artifact`` is true the report is also written next to
    the segments as ``postmortem.json`` (atomic ``os.replace``), so the
    artifact survives for CI upload / later ``repro postmortem`` runs
    even after the supervisor process exits.
    """
    recovered = read_journal(directory)
    pm = build_postmortem(
        recovered.records,
        shard=shard,
        exit_code=exit_code,
        window_seconds=window_seconds,
        timeline_limit=timeline_limit,
        warnings=recovered.warnings,
    )
    pm["journal_dir"] = directory
    pm["segments"] = [os.path.basename(p) for p in recovered.segments]
    if write_artifact and os.path.isdir(directory):
        target = os.path.join(directory, POSTMORTEM_BASENAME)
        tmp = target + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(pm, fh, indent=2, sort_keys=True, default=str)
                fh.write("\n")
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return pm


__all__ = [
    "DEFAULT_MAX_BYTES",
    "DEFAULT_SEGMENT_BYTES",
    "FlightRecorder",
    "HEADER_SIZE",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalReadResult",
    "MAGIC",
    "POSTMORTEM_BASENAME",
    "build_postmortem",
    "decode_records",
    "describe_exit",
    "encode_record",
    "harvest_postmortem",
    "iter_journal_events",
    "journal_dir",
    "journal_dirs",
    "list_segments",
    "read_journal",
    "segment_name",
]
