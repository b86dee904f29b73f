"""The shard pipe's frame layer and interning channel (repro.service.ipc).

*Validation*: every way a frame can be wrong — magic, version, CRC,
length, kind, an interned token nobody defined — is a ``FrameError``,
never a ``KeyError`` or a raw unpickling error.  *Interning*: whatever
sequence of repeated, fresh and mutated templates crosses a small table,
the shard decodes each request to a template with the sender's key (the
``conftest.memo_free`` oracle) and never re-serialises a graph to get
it.  *One encode*: a reply's value is pickled once, and one that does
not pickle still delivers the call's outcome.
"""

import multiprocessing
import pickle
import struct
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from .conftest import memo_free
from repro.core import CompileOptions, plan_key, plancache
from repro.gpusim import TESLA_C870, XEON_WORKSTATION
from repro.service import (
    ServiceConfig,
    ServiceRequest,
    ShardedExecutionService,
    worker,
)
from repro.service.ipc import (
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    ROUTER_INTERNS,
    SHARD_INTERNS,
    Channel,
    FrameError,
    decode_frame,
    encode_frame,
)
from repro.service.worker import _send_reply
from repro.templates import find_edges_graph

OPTIONS = CompileOptions()
HEADER = struct.Struct("!4sBBII")


def request_for(template, **kwargs):
    return ServiceRequest(
        template=template, device=TESLA_C870, host=XEON_WORKSTATION, **kwargs
    )


@pytest.fixture
def pipe():
    """(router end, shard end) channels over a real in-process pipe."""
    a, b = multiprocessing.Pipe(duplex=True)
    yield (lambda capacity=64: (Channel(a, capacity, ROUTER_INTERNS),
                                Channel(b, capacity, SHARD_INTERNS)))
    a.close()
    b.close()


class TestFrameValidation:
    FRAME = encode_frame({"kind": "close", "id": 7})

    def reheadered(self, **fields):
        """The valid frame with some header fields overwritten."""
        names = ("magic", "version", "flags", "crc", "length")
        header = dict(zip(names, HEADER.unpack_from(self.FRAME)), **fields)
        return HEADER.pack(*header.values()) + self.FRAME[HEADER_SIZE:]

    def test_round_trip(self):
        assert decode_frame(self.FRAME) == {"kind": "close", "id": 7}
        assert self.FRAME[:4] == MAGIC and PROTOCOL_VERSION == 3

    def test_bad_magic(self):
        with pytest.raises(FrameError, match="bad magic"):
            decode_frame(self.reheadered(magic=b"NOPE"))

    def test_unknown_version(self):
        with pytest.raises(FrameError, match="protocol version 1"):
            decode_frame(self.reheadered(version=1))

    def test_flipped_payload_bit_fails_the_crc(self):
        corrupt = bytearray(self.FRAME)
        corrupt[-3] ^= 0x10
        with pytest.raises(FrameError, match="CRC"):
            decode_frame(bytes(corrupt))

    def test_truncated_payload(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(self.FRAME[:-5])
        with pytest.raises(FrameError, match="shorter than"):
            decode_frame(self.FRAME[: HEADER_SIZE - 1])

    def test_unknown_kind(self):
        with pytest.raises(FrameError, match="unknown message kind"):
            encode_frame({"kind": "accepted", "id": 1})
        payload = pickle.dumps({"kind": "accepted", "id": 1})
        frame = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, 0, zlib.crc32(payload), len(payload)
        ) + payload
        with pytest.raises(FrameError, match="not a known message"):
            decode_frame(frame)

    def test_unknown_interned_token(self, pipe):
        """A token outside the receiver's table is a corrupt stream —
        here, a frame decoded by a channel that never saw its define,
        and one decoded with no channel at all."""
        router, shard = pipe()
        frames = []
        router.conn = type("Wire", (), {"send_bytes": frames.append})()
        router.send({"kind": "submit", "id": 1,
                     "request": request_for(find_edges_graph(32, 32, 3, 2))})
        submit = frames[-1]
        with pytest.raises(FrameError, match="unknown interned token"):
            decode_frame(submit, shard._received)
        with pytest.raises(FrameError, match="unknown interned token"):
            decode_frame(submit)
        for define in frames[:-1]:  # the same frame after its defines
            message = decode_frame(define, shard._received)
            shard._received[message["token"]] = message["value"]
        assert decode_frame(submit, shard._received)["id"] == 1


class TestInterning:
    def test_second_submit_of_a_template_is_one_small_frame(self, pipe):
        router, shard = pipe()
        template = find_edges_graph(64, 64, 8, 2)
        request = request_for(template, label="edge")
        router.send({"kind": "submit", "id": 1, "request": request})
        first = shard.recv()["request"]
        router.send({"kind": "submit", "id": 2, "request": request})
        # exactly one frame is waiting: no define precedes the second use
        second = decode_frame(shard.conn.recv_bytes(), shard._received)
        assert not shard.conn.poll()
        assert second["request"].template is first.template
        assert second["request"].device is first.device
        assert first.template is not template
        assert plan_key(first.template, TESLA_C870, OPTIONS) == plan_key(
            template, TESLA_C870, OPTIONS
        )

    def test_table_smaller_than_one_frame_still_decodes(self, pipe):
        """Capacity 2 against four interned objects per submit: the
        frame's own tokens are never evicted under it — what does not
        fit travels inline."""
        router, shard = pipe(2)
        for i, side in enumerate((32, 40, 32)):
            template = find_edges_graph(side, side, 3, 2)
            router.send({"kind": "submit", "id": i,
                         "request": request_for(template)})
            got = shard.recv()["request"]
            assert got.host == XEON_WORKSTATION and got.options is None
            assert plan_key(got.template, got.device, OPTIONS) == plan_key(
                memo_free(template), TESLA_C870, OPTIONS
            )
            assert len(router._sent) <= 2 and len(shard._received) <= 2

    def test_response_shares_the_cached_graph_and_plan(self, pipe):
        from repro import Framework

        router, shard = pipe()
        compiled = Framework(TESLA_C870).compile(find_edges_graph(32, 32, 3, 2))
        values = []
        for gid in (1, 2):
            shard.send({"kind": "response", "id": gid, "value": compiled})
            values.append(router.recv()["value"])
        assert values[0] is not compiled
        assert values[0].graph is values[1].graph
        assert values[0].plan is values[1].plan
        assert values[0].plan.steps == compiled.plan.steps
        # identity keys are only unique while the object lives: pinned
        assert any(e[1] is compiled.plan for e in shard._sent.values())


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(
    st.tuples(st.sampled_from(["repeat", "twin", "fresh", "mutate"]),
              st.integers(0, 7)),
    min_size=1, max_size=12,
))
def test_any_submit_sequence_decodes_to_the_senders_keys(steps):
    """Capacity 4 is one frame's worth, so every new template evicts:
    repeated, structurally equal (``twin``), never-seen and
    mutated-between-submits templates all decode to the sender's key,
    and a graph is serialised only where the *sender* first hashes it."""
    a, b = multiprocessing.Pipe(duplex=True)
    router = Channel(a, 4, ROUTER_INTERNS)
    shard = Channel(b, 4, SHARD_INTERNS)
    calls = []
    real = plancache.graph_to_dict
    plancache.graph_to_dict = lambda g: calls.append(g) or real(g)
    try:
        pool = [find_edges_graph(32, 32, 3, 2)]
        serial = 0
        for gid, (step, pick) in enumerate(steps):
            template = pool[pick % len(pool)]
            hashed_before = template._fingerprint is not None
            if step == "twin":
                template = find_edges_graph(32, 32, 3, 2)
            elif step == "fresh":
                serial += 1
                side = 32 + 8 * serial
                template = find_edges_graph(side, side, 3, 2)
            elif step == "mutate":
                serial += 1
                if template.frozen:  # a factory's graph: edit a copy
                    template = template.copy()
                template.add_data(f"extra{serial}", (4, 4), is_input=True)
            if step != "repeat":
                hashed_before = False
                pool.append(template)
            del calls[:]
            key = plan_key(template, TESLA_C870, OPTIONS)  # the route key
            router.send({"kind": "submit", "id": gid,
                         "request": request_for(template)})
            decoded = shard.recv()["request"]
            assert plan_key(decoded.template, decoded.device, OPTIONS) == key
            assert len(calls) == (0 if hashed_before else 1)
            assert key == plan_key(memo_free(template), TESLA_C870, OPTIONS)
            assert len(router._sent) <= 4 and len(shard._received) <= 4
    finally:
        plancache.graph_to_dict = real
        a.close()
        b.close()


class TestOneEncodePerResponse:
    class Value:
        reduced = 0

        def __reduce__(self):
            type(self).reduced += 1
            return (type(self), ())

    class Unpicklable(Value):
        def __reduce__(self):
            super().__reduce__()
            raise TypeError("holds an open device handle")

    def finished(self, value):
        return {"kind": "response", "id": 41, "compiled": "plan",
                "value": value, "error": None,
                "events": [("compile.done", {"cached": True})]}

    def test_value_is_encoded_exactly_once(self, pipe):
        router, shard = pipe()
        self.Value.reduced = 0
        _send_reply(shard, self.finished(self.Value()))
        message = router.recv()
        assert self.Value.reduced == 1
        assert message["kind"] == "response" and message["id"] == 41
        assert isinstance(message["value"], self.Value)
        assert message["error"] is None

    def test_unpicklable_value_travels_as_none_with_a_note(
        self, pipe, monkeypatch
    ):
        router, shard = pipe()
        _send_reply(shard, self.finished(self.Unpicklable()))
        reply = router.recv()
        assert reply["id"] == 41 and reply["value"] is None
        assert reply["error"] is None and reply["compiled"] == "plan"
        assert reply["note"].startswith("result value not transferable: "
                                        "TypeError")
        # Through a fleet, the request the value answered is still OK.
        monkeypatch.setattr(worker, "run_request",
                            lambda *args: self.Unpicklable())
        with ShardedExecutionService(
            ServiceConfig(workers=1), shards=1,
            mp_context=multiprocessing.get_context("fork"),  # keeps the patch
        ) as svc:
            response = svc.submit(request_for(
                find_edges_graph(32, 32, 3, 2), label="r", mode="simulate"
            )).result(timeout=60)
        assert response.value is None
        assert response.ok and response.planner_used == "heuristic"
        assert response.error.startswith("result value not transferable: "
                                         "TypeError")
        assert "open device handle" in response.error
