"""Request/response framing for the shard IPC channel.

The sharded serving tier talks to its worker processes over duplex
pipes.  A pipe is a byte stream with message boundaries but no
*semantics*; this module defines the wire contract both sides speak:

* every message is one **frame**: a fixed binary header (magic,
  protocol version, flags, CRC-32, payload length) followed by a
  pickled payload dict;
* the header is validated on receipt — wrong magic, unknown version, a
  CRC mismatch, or a truncated payload raise :class:`FrameError`
  instead of handing corrupt bytes to ``pickle``;
* every payload dict carries a ``kind`` (message type) and, for
  request/response pairs, an ``id`` correlating them.  Kinds are the
  router's dispatch key, so unknown kinds fail loudly on both sides.

Message kinds (parent → worker):

=============  =============================================
``submit``     one :class:`~repro.service.ServiceRequest`; its template
               pickles as the graph's tables plus the structural
               fingerprint the router already computed for the route
               key (:meth:`OperatorGraph.__getstate__`), so the shard
               keys the request without re-serializing the graph
``snapshot``   request the shard's ``live_snapshot()`` + window samples
``events``     request recent telemetry events (optionally one request's)
``prom``       request the shard's Prometheus text
``close``      drain and exit (worker replies ``closed`` and returns)
=============  =============================================

Worker → parent: ``accepted`` (submit acknowledged, carries the
shard-local request id), ``response`` (terminal
:class:`~repro.service.ServiceResponse` + result value),
``snapshot_result`` / ``events_result`` / ``prom_result``, ``closed``,
and ``error`` (the worker-side exception for one correlated message).

Pickle is acceptable here because both endpoints are the same trusted
codebase on the same machine, spawned by the same parent — this is an
*internal* bus, not a network protocol; the CRC protects against pipe
corruption and truncation, not adversaries.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any

MAGIC = b"RSRV"
PROTOCOL_VERSION = 1

#: ``!`` network order: magic, version, flags, crc32, payload length
_HEADER = struct.Struct("!4sBBII")
HEADER_SIZE = _HEADER.size

#: parent -> worker message kinds
REQUEST_KINDS = frozenset({"submit", "snapshot", "events", "prom", "close"})
#: worker -> parent message kinds
RESPONSE_KINDS = frozenset({
    "accepted", "response", "snapshot_result", "events_result",
    "prom_result", "closed", "error",
})
KNOWN_KINDS = REQUEST_KINDS | RESPONSE_KINDS


class FrameError(RuntimeError):
    """A frame failed validation (magic/version/CRC/length/kind)."""


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize one message dict into a validated wire frame."""
    kind = message.get("kind")
    if kind not in KNOWN_KINDS:
        raise FrameError(f"unknown message kind {kind!r}")
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        MAGIC,
        PROTOCOL_VERSION,
        0,  # flags, reserved
        zlib.crc32(payload) & 0xFFFFFFFF,
        len(payload),
    )
    return header + payload


def decode_frame(data: bytes) -> dict[str, Any]:
    """Validate and deserialize one wire frame back into its message."""
    if len(data) < HEADER_SIZE:
        raise FrameError(
            f"frame shorter than its {HEADER_SIZE}-byte header "
            f"({len(data)} bytes)"
        )
    magic, version, _flags, crc, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise FrameError(
            f"protocol version {version} unsupported "
            f"(this build speaks {PROTOCOL_VERSION})"
        )
    payload = data[HEADER_SIZE:]
    if len(payload) != length:
        raise FrameError(
            f"truncated frame: header claims {length} payload bytes, "
            f"got {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameError("payload CRC mismatch (corrupt frame)")
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"payload does not unpickle: {exc}") from exc
    if not isinstance(message, dict) or message.get("kind") not in KNOWN_KINDS:
        raise FrameError(f"decoded payload is not a known message: {message!r}")
    return message


def send_message(conn: Any, message: dict[str, Any]) -> None:
    """Frame and send one message over a ``Connection``-like endpoint."""
    conn.send_bytes(encode_frame(message))


def recv_message(conn: Any) -> dict[str, Any]:
    """Receive and validate one framed message (blocking)."""
    return decode_frame(conn.recv_bytes())


__all__ = [
    "FrameError",
    "HEADER_SIZE",
    "KNOWN_KINDS",
    "MAGIC",
    "PROTOCOL_VERSION",
    "REQUEST_KINDS",
    "RESPONSE_KINDS",
    "decode_frame",
    "encode_frame",
    "recv_message",
    "send_message",
]
