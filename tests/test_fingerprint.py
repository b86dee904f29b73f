"""The memoised graph fingerprint under ``plan_key``.

Three things are pinned here.  *Freshness*: after any sequence of graph
mutators the key equals the key of a memo-less round trip of the graph
(a hypothesis state machine; ``conftest._fresh_keys`` applies the same
oracle to every key the plancache / framework / service suites compute),
and so does every memoised launch cost, which is dropped wherever the
fingerprint is.
*Work*: a template is serialized once, however many keys, requests and
processes it passes through — counted, not timed.  *Transport*: the
fingerprint rides in the pickle and the derived indexes do not.
"""

import dataclasses
import json
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    CompileOptions,
    Framework,
    GraphError,
    PlanCache,
    graph_from_dict,
    graph_to_dict,
    plan_key,
    plan_to_dict,
)
from repro.core import plancache
from repro.core.plancache import graph_fingerprint
from repro.core.splitting import InfeasibleTemplateError, make_feasible
from repro.gpusim import TESLA_C870, XEON_WORKSTATION, GpuDevice
from repro.ops import launch_cost
from repro.service import ExecutionService, ServiceConfig, ServiceRequest
from repro.service.ipc import (
    ROUTER_INTERNS,
    Channel,
    decode_frame,
    encode_frame,
)
from repro.templates import find_edges_graph

DEVICE = GpuDevice(name="fp-dev", memory_bytes=64 * 1024)
OPTIONS = CompileOptions(split_headroom=1.0)
SIDE = 48


# ---------------------------------------------------------------------------
# Freshness
# ---------------------------------------------------------------------------
class GraphMachine(RuleBasedStateMachine):
    """Random mutator sequences; both memos are warm before every step
    (the invariant keys the graph and costs every operator), so a
    mutator that forgot to drop one shows as a key or a cost that
    differs from the memo-less graph's, or as launch costs outliving
    the fingerprint they were derived beside."""

    def __init__(self):
        super().__init__()
        self.g = find_edges_graph(SIDE, SIDE, 3, 2)
        self.serial = 0

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    def planes(self, *, inputs_only: bool = False) -> list[str]:
        """Whole (unsplit) image-sized data an added operator may read."""
        return [
            d
            for d, ds in self.g.data.items()
            if ds.shape == (SIDE, SIDE)
            and ds.parent is None
            and not ds.virtual
            and (ds.is_input or not inputs_only)
        ]

    def added_leaves(self) -> list[str]:
        """Operators this machine added that nothing consumes and that
        splitting has not rewritten."""
        return [
            o
            for o, op in self.g.ops.items()
            if o.startswith("t")
            and op.outputs[0] in self.planes()
            and not self.g.consumers[op.outputs[0]]
        ]

    def spare_inputs(self) -> list[str]:
        return [
            d
            for d in self.planes(inputs_only=True)
            if d.startswith("x") and not self.g.consumers[d]
        ]

    @rule()
    def add_data(self):
        self.g.add_data(self.fresh("x"), (SIDE, SIDE), is_input=True)

    @precondition(lambda self: self.planes())
    @rule(data=st.data())
    def add_operator(self, data):
        src = data.draw(st.sampled_from(self.planes()))
        out = self.fresh("y")
        self.g.add_data(out, (SIDE, SIDE), is_output=True)
        self.g.add_operator(self.fresh("t"), "tanh", [src], [out])

    @precondition(lambda self: self.added_leaves())
    @rule(data=st.data())
    def set_op_io(self, data):
        op = self.g.ops[data.draw(st.sampled_from(self.added_leaves()))]
        # one or two reads: a rewire that changes the operator's cost
        srcs = data.draw(
            st.lists(
                st.sampled_from(self.planes(inputs_only=True)),
                min_size=1, max_size=2, unique=True,
            )
        )
        self.g.set_op_io(op.name, srcs, op.outputs)

    @precondition(lambda self: self.added_leaves())
    @rule(data=st.data())
    def remove_operator_and_its_output(self, data):
        op = self.g.remove_operator(
            data.draw(st.sampled_from(self.added_leaves()))
        )
        self.g.remove_data(op.outputs[0])

    @precondition(lambda self: self.spare_inputs())
    @rule()
    def remove_data_bulk(self):
        self.g.remove_data_bulk(self.spare_inputs())

    @precondition(lambda self: self.added_leaves())
    @rule(data=st.data(), flag=st.booleans())
    def mark_output(self, data, flag):
        op = self.g.ops[data.draw(st.sampled_from(self.added_leaves()))]
        self.g.mark_output(op.outputs[0], flag)

    @rule()
    def rename(self):
        self.g.name = self.fresh("edges")

    @rule(rename=st.booleans())
    def copy(self, rename):
        before = plan_key(self.g, DEVICE, OPTIONS)
        clone = self.g.copy(self.fresh("copy") if rename else None)
        assert (plan_key(clone, DEVICE, OPTIONS) == before) is not rename
        self.g = clone

    @rule(capacity=st.sampled_from([1 << 11, 1 << 12, 1 << 13, 1 << 20]))
    def make_feasible(self, capacity):
        try:
            make_feasible(self.g, capacity)
        except (InfeasibleTemplateError, GraphError):
            pass  # a half-split graph must still key freshly

    @invariant()
    def memos_are_fresh(self):
        # one invariant, so nothing re-warms the fingerprint first
        if self.g._launch_costs is not None:
            assert self.g._fingerprint is not None
        fresh = graph_from_dict(graph_to_dict(self.g))  # memo-free
        assert plan_key(self.g, DEVICE, OPTIONS) == plan_key(fresh, DEVICE, OPTIONS)
        for name, op in self.g.ops.items():
            assert launch_cost(op, self.g) == launch_cost(fresh.ops[name], fresh)


GraphMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestGraphMachine = GraphMachine.TestCase


class TestMemo:
    def test_memo_is_reused_until_a_mutator_drops_it(self):
        g = find_edges_graph(SIDE, SIDE, 3, 2)
        assert g._fingerprint is None
        fp = graph_fingerprint(g)
        assert g._fingerprint == fp == graph_fingerprint(g)
        g.invalidate_caches()
        assert g._fingerprint is None

    def test_same_named_copy_carries_the_memo_and_a_renamed_one_does_not(self):
        g = find_edges_graph(SIDE, SIDE, 3, 2)
        fp = graph_fingerprint(g)
        assert g.copy()._fingerprint == fp
        assert g.copy(g.name)._fingerprint == fp
        assert g.copy("other")._fingerprint is None

    def test_equal_frozen_values_share_one_canonical_string(self):
        assert plancache._canonical_json(
            CompileOptions()
        ) is plancache._canonical_json(CompileOptions())
        assert json.loads(plancache._canonical_json(TESLA_C870)) == (
            dataclasses.asdict(TESLA_C870)
        )

    def test_mutable_key_material_is_never_memoised(self):
        @dataclasses.dataclass
        class Knobs:  # eq without frozen: unhashable
            level: int = 1

        g = find_edges_graph(SIDE, SIDE, 3, 2)
        knobs = Knobs()
        before = plan_key(g, DEVICE, knobs, extra={"also": knobs})
        knobs.level = 2
        assert plan_key(g, DEVICE, knobs, extra={"also": knobs}) != before
        assert plan_key(g, DEVICE, Knobs(1), extra={"also": Knobs(2)}) not in (
            before, plan_key(g, DEVICE, knobs, extra={"also": knobs})
        )


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------
@pytest.fixture
def counts(monkeypatch):
    """Calls of the two serializers a key used to pay for on every hop."""
    seen = {"graph_to_dict": 0, "asdict": 0}
    real_to_dict, real_asdict = plancache.graph_to_dict, dataclasses.asdict

    def counting_to_dict(graph):
        seen["graph_to_dict"] += 1
        return real_to_dict(graph)

    def counting_asdict(obj, **kwargs):
        seen["asdict"] += 1
        return real_asdict(obj, **kwargs)

    monkeypatch.setattr(plancache, "graph_to_dict", counting_to_dict)
    monkeypatch.setattr(dataclasses, "asdict", counting_asdict)
    return seen


def serve(svc, template, **kwargs):
    response = svc.submit(
        ServiceRequest(
            template=template, device=DEVICE, host=XEON_WORKSTATION, **kwargs
        )
    ).result(timeout=60)
    assert response.ok
    return response


@pytest.mark.timeout(120)
class TestWorkCounts:
    def test_second_request_for_a_template_serializes_nothing(self, counts):
        template = find_edges_graph(SIDE, SIDE, 3, 2)
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            serve(svc, template)
            counts.update(graph_to_dict=0, asdict=0)
            assert serve(svc, template).deduped
        assert counts == {"graph_to_dict": 0, "asdict": 0}

    def test_never_seen_template_is_serialized_once_across_all_keys(
        self, counts
    ):
        # batching on: the batch and single-flight keys derive from the
        # admission key, and the Framework keys the template again
        template = find_edges_graph(SIDE + 8, SIDE + 8, 3, 2)
        config = ServiceConfig(workers=1, batch_window=0.01)
        with ExecutionService(config) as svc:
            assert not serve(svc, template).deduped
        assert counts["graph_to_dict"] == 1

    @pytest.mark.parametrize("batch_window", [0.0, 0.01])
    def test_repeat_request_makes_one_key_per_hop(
        self, counts, monkeypatch, batch_window
    ):
        # one key at admission, one in Framework.compile's own lookup:
        # single-flight, batch and PB-memo keys all derive from the first
        keys = []
        for module in ("repro.service.service", "repro.core.framework"):
            def counting(*args, _real=plan_key, **kwargs):
                keys.append(args[0].name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(f"{module}.plan_key", counting)
        template = find_edges_graph(SIDE, SIDE, 3, 2)
        config = ServiceConfig(workers=1, batch_window=batch_window)
        with ExecutionService(config) as svc:
            serve(svc, template)
            keys.clear()
            counts.update(graph_to_dict=0)
            assert serve(svc, template).deduped
        assert len(keys) == 2 and counts["graph_to_dict"] == 0

    def test_fingerprint_crosses_the_shard_pipe(self, counts):
        template = find_edges_graph(SIDE, SIDE, 3, 2)
        request = ServiceRequest(
            template=template, device=DEVICE, host=XEON_WORKSTATION
        )
        routed = plan_key(template, DEVICE, OPTIONS)  # the router's hash
        frame = encode_frame({"kind": "submit", "id": 1, "request": request})
        decoded = decode_frame(frame)["request"].template
        assert decoded is not template
        counts.update(graph_to_dict=0)
        assert plan_key(decoded, DEVICE, OPTIONS) == routed
        assert counts["graph_to_dict"] == 0


# ---------------------------------------------------------------------------
# Served templates
# ---------------------------------------------------------------------------
@pytest.mark.timeout(120)
@pytest.mark.parametrize(
    "mutate",
    [
        lambda g: g.add_operator(
            "extra", "tanh", ["E2"], [g.add_data("extra_out", (SIDE, SIDE),
                                                 is_output=True).name]
        ),
        lambda g: g.set_op_io("R1", ["Img"], ["E2"]),
        lambda g: g.mark_output("E2"),
    ],
    ids=["add_operator", "set_op_io", "mark_output"],
)
def test_mutating_a_served_template_compiles_afresh(mutate):
    template = find_edges_graph(SIDE, SIDE, 3, 2)
    with ExecutionService(ServiceConfig(workers=1)) as svc:
        first = serve(svc, template)
        before = plan_key(template, DEVICE, CompileOptions())
        mutate(template)
        assert plan_key(template, DEVICE, CompileOptions()) != before
        second = serve(svc, template)
        compiles = svc.metrics_snapshot()["counters"]["service.compiles"]
    assert not second.deduped and compiles == 2
    assert second.value.graph.ops.keys() == template.ops.keys()
    assert plan_to_dict(second.value.plan) != plan_to_dict(first.value.plan)


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------
class TestPickle:
    def test_state_is_the_tables_and_the_fingerprint(self):
        g = find_edges_graph(SIDE, SIDE, 3, 2)
        g.topological_order()  # warm the derived indexes
        fp = graph_fingerprint(g)
        assert set(g.__getstate__()) == {
            "name", "data", "ops", "producer", "consumers", "children",
            "fingerprint",
        }
        clone = pickle.loads(pickle.dumps(g))
        assert clone._fingerprint == fp
        assert clone._preds is None and clone._sorted_chunks == {}
        assert graph_to_dict(clone) == graph_to_dict(g)

    def test_round_tripped_graph_compiles_to_the_identical_plan(self):
        g = find_edges_graph(512, 512, 5, 4)  # splits on the 64 KB device
        plan_key(g, DEVICE, OPTIONS)

        def plan_bytes(graph):
            compiled = Framework(
                DEVICE, options=OPTIONS, plan_cache=PlanCache()
            ).compile(graph)
            return json.dumps(plan_to_dict(compiled.plan), sort_keys=True)

        assert plan_bytes(pickle.loads(pickle.dumps(g))) == plan_bytes(g)

    def test_submit_frame_does_not_grow(self):
        # 1392 B is this frame before the fingerprint rode in it: the
        # digest takes the room the derived indexes gave up.  That is
        # now only what a template's *first* submit ships (its define
        # frames and the frame itself); the second is tokens and scalars.
        template = find_edges_graph(64, 64, 8, 2)
        request = ServiceRequest(
            template=template, device=TESLA_C870, host=XEON_WORKSTATION,
            label="edge",
        )
        plan_key(template, TESLA_C870, CompileOptions())
        frame = encode_frame({"kind": "submit", "id": 1, "request": request})
        assert len(frame) <= 1392
        sent: list[bytes] = []
        wire = type("Wire", (), {"send_bytes": sent.append})()
        channel = Channel(wire, 64, ROUTER_INTERNS)
        channel.send({"kind": "submit", "id": 1, "request": request})
        first = len(sent)
        channel.send({"kind": "submit", "id": 2, "request": request})
        assert first == 4 and len(sent) == first + 1  # 3 defines, once
        assert len(sent[-1]) <= 400
