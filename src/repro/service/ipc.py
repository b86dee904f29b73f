"""Call/reply framing for the fleet's worker pipes.

The fleet (:class:`~repro.service.ShardedExecutionService`) talks to its
worker processes over duplex pipes.  A pipe is a byte stream with
message boundaries but no *semantics*; this module defines the wire
contract both sides speak:

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
``submit``     one call — a :class:`~repro.service.ServiceRequest`, its
               resolved compile options and fault injector — under the
               fleet-global request ``id``
``close``      finish the calls under way and exit
=============  =============================================

Worker → parent: ``response``, the one reply to a call under its ``id``
(see :mod:`repro.service.worker`).  That is the whole protocol: the
router's service owns every request's state and telemetry, so nothing
else crosses.

Either way: ``define`` — the **interning channel**.  A
:class:`Channel` ships a heavy immutable object once, in a ``define``
frame that binds it to a token, and every later frame carries the token
instead (a request's template is ~1.2 KB of its 1.4 KB frame, a served
plan ~2 KB of its 3.5 KB response).  The *sender* alone owns the table:
a bounded LRU; the ``define`` that needs a slot names the token it
evicts; a ``define`` is written to the FIFO pipe before the first frame
that uses its token; the table dies with the pipe.  The receiver
therefore never misses, and there is no resend protocol — a token it
does not know is a corrupt stream and raises :class:`FrameError`.

What is interned is decided per direction by exact type
(:data:`ROUTER_INTERNS`, :data:`SHARD_INTERNS`), through the pickler's
C-level ``dispatch_table`` — no Python runs for any other object:

* templates by **structural fingerprint** (the digest ``plan_key``
  already memoised): equal templates share a token and a mutated one —
  its mutator dropped the digest — is defined afresh;
* devices, hosts and compile options by **value** (frozen dataclasses);
* the worker's cached split graphs and plans by **identity**: the plan
  cache hands the same read-only objects to every hit, and hashing a
  plan would cost more than shipping it.  An identity key is only
  unique while its object is alive, so the table holds a strong
  reference to every object it has a token for.

Pickle is acceptable here because both endpoints are the same trusted
codebase on the same machine, spawned by the same parent — this is an
*internal* bus, not a network protocol; the CRC protects against pipe
corruption and truncation, not adversaries.
"""

from __future__ import annotations

import functools
import io
import pickle
import struct
import threading
import zlib
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

from repro.core.framework import CompileOptions
from repro.core.graph import OperatorGraph
from repro.core.plan import ExecutionPlan
from repro.core.plancache import graph_fingerprint
from repro.gpusim import GpuDevice, HostSystem

MAGIC = b"RSRV"
#: 2: ``accepted`` gone, ``define`` and interned tokens added;
#: 3: a ``submit`` is a call, the telemetry kinds are gone
PROTOCOL_VERSION = 3

#: ``!`` network order: magic, version, flags, crc32, payload length
_HEADER = struct.Struct("!4sBBII")
HEADER_SIZE = _HEADER.size

#: ``submit`` / ``close`` go to a worker, ``response`` comes back,
#: ``define`` goes either way
KNOWN_KINDS = frozenset({"submit", "close", "response", "define"})


class FrameError(RuntimeError):
    """A frame failed validation (magic/version/CRC/length/kind/token)."""


def _interned(token: int) -> Any:
    """What an interned object pickles as: a call of this name, which
    the receiving :class:`Channel` resolves against its own table."""
    raise FrameError(f"interned token {token!r} decoded outside a channel")


class _Decoder(pickle.Unpickler):
    """An unpickler that resolves :func:`_interned` calls in ``table``."""

    def __init__(self, payload: bytes, table: Mapping[int, Any]) -> None:
        super().__init__(io.BytesIO(payload))
        self._table = table

    def find_class(self, module: str, name: str) -> Any:
        if name == "_interned" and module == __name__:
            return self._resolve
        return super().find_class(module, name)

    def _resolve(self, token: int) -> Any:
        try:
            return self._table[token]
        except KeyError:
            raise FrameError(f"unknown interned token {token!r}") from None


def encode_frame(
    message: dict[str, Any],
    dispatch_table: Mapping[type, Callable[[Any], Any]] | None = None,
) -> bytes:
    """Serialize one message dict into a validated wire frame.

    ``dispatch_table`` is a :class:`Channel`'s: the reducers that turn
    interned objects into tokens while the payload pickles.
    """
    kind = message.get("kind")
    if kind not in KNOWN_KINDS:
        raise FrameError(f"unknown message kind {kind!r}")
    if dispatch_table is None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = dispatch_table
        pickler.dump(message)
        payload = buffer.getvalue()
    header = _HEADER.pack(
        MAGIC,
        PROTOCOL_VERSION,
        0,  # flags, reserved
        zlib.crc32(payload) & 0xFFFFFFFF,
        len(payload),
    )
    return header + payload


def decode_frame(
    data: bytes, table: Mapping[int, Any] | None = None
) -> dict[str, Any]:
    """Validate and deserialize one wire frame back into its message.

    ``table`` is the receiving :class:`Channel`'s token table; without
    one, a frame that carries a token is rejected.
    """
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
        message = _Decoder(payload, table or {}).load()
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError(f"payload does not unpickle: {exc}") from exc
    if not isinstance(message, dict) or message.get("kind") not in KNOWN_KINDS:
        raise FrameError(f"decoded payload is not a known message: {message!r}")
    return message


# ---------------------------------------------------------------------------
# The interning channel
# ---------------------------------------------------------------------------
def _by_value(obj: Hashable) -> Hashable:
    return obj


#: router -> worker: what a :class:`~repro.service.ServiceRequest` holds
ROUTER_INTERNS: Mapping[type, Callable[[Any], Hashable]] = {
    OperatorGraph: graph_fingerprint,
    GpuDevice: _by_value,
    HostSystem: _by_value,
    CompileOptions: _by_value,
}
#: worker -> router: what a served ``CompiledTemplate`` holds
SHARD_INTERNS: Mapping[type, Callable[[Any], Hashable]] = {
    OperatorGraph: id,
    ExecutionPlan: id,
    GpuDevice: _by_value,
    HostSystem: _by_value,
    CompileOptions: _by_value,
}
#: most interned objects one cached plan accounts for in one direction
INTERNS_PER_PLAN = len(SHARD_INTERNS)


class Channel:
    """One end of a worker pipe: framed messages with interning.

    ``interns`` maps each exact type this end interns to the function
    giving an object's table key; ``capacity`` bounds the table of
    objects this end has sent (the peer's table follows it through
    ``define`` frames, so the two ends need not agree on either).
    ``send`` is safe to call from many threads; ``recv`` belongs to one.
    """

    def __init__(
        self,
        conn: Any,
        capacity: int,
        interns: Mapping[type, Callable[[Any], Hashable]],
    ) -> None:
        self.conn = conn
        self.capacity = capacity
        self._send_lock = threading.Lock()
        #: key -> [token, the object (pinned), serial of its last frame]
        self._sent: OrderedDict[Hashable, list[Any]] = OrderedDict()
        self._next_token = 0
        self._serial = 0
        #: encoded ``define`` frames owed to the pipe before the next frame
        self._defines: list[bytes] = []
        self._dispatch_table = {
            cls: functools.partial(self._reduce, key_of)
            for cls, key_of in interns.items()
        }
        #: token -> object, as the peer's ``define`` frames dictate
        self._received: dict[int, Any] = {}

    def _reduce(self, key_of: Callable[[Any], Hashable], obj: Any) -> Any:
        """``dispatch_table`` reducer: pickle ``obj`` as its token,
        defining it first if the peer has not seen it."""
        try:
            key = key_of(obj)
            entry = self._sent.get(key)
        except TypeError:  # an unhashable value travels inline
            return obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        if entry is not None:
            self._sent.move_to_end(key)
            entry[2] = self._serial
            return _interned, (entry[0],)
        evict = oldest = None
        if len(self._sent) >= self.capacity:
            oldest, (evict, _, last_used) = next(iter(self._sent.items()))
            if last_used == self._serial:
                # Defines reach the pipe before the frame being encoded,
                # so evicting a token that frame already uses would
                # unbind it: the table is full of this frame's objects.
                return obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        token = self._next_token
        # Encoded before the table changes: an object that does not
        # pickle fails the frame that holds it and leaves no token behind.
        self._defines.append(encode_frame({
            "kind": "define", "token": token, "value": obj, "evict": evict,
        }))
        if evict is not None:
            del self._sent[oldest]
        self._next_token += 1
        self._sent[key] = [token, obj, self._serial]
        return _interned, (token,)

    def send(self, message: dict[str, Any]) -> None:
        """Frame and send one message, after the defines it relies on.

        A message that does not pickle raises before anything of it is
        written; defines it had already queued go out with the next one.
        """
        with self._send_lock:
            self._serial += 1
            frame = encode_frame(message, self._dispatch_table)
            defines, self._defines = self._defines, []
            for define in defines:
                self.conn.send_bytes(define)
            self.conn.send_bytes(frame)

    def recv(self) -> dict[str, Any]:
        """Receive and validate the next message (blocking), applying
        the ``define`` frames that precede it."""
        while True:
            message = decode_frame(self.conn.recv_bytes(), self._received)
            if message["kind"] != "define":
                return message
            self._received.pop(message["evict"], None)
            self._received[message["token"]] = message["value"]


__all__ = [
    "Channel",
    "FrameError",
    "HEADER_SIZE",
    "INTERNS_PER_PLAN",
    "KNOWN_KINDS",
    "MAGIC",
    "PROTOCOL_VERSION",
    "ROUTER_INTERNS",
    "SHARD_INTERNS",
    "decode_frame",
    "encode_frame",
]
