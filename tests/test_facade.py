"""Public API facade (repro.api) and the one submit surface.

The keyword-only facade is the stable surface: it produces the plans
``Framework`` produces (checked through the canonical ``plan_to_dict``
JSON serialization), and positional host/options call shapes are
rejected.
"""

import json
import warnings

import numpy as np
import pytest

import repro
from repro.core import CompileOptions, Framework
from repro.core.serialize import plan_to_dict
from repro.gpusim import (
    TESLA_C870,
    XEON_WORKSTATION,
    GpuDevice,
    homogeneous_group,
)
from repro.multigpu import MultiCompiledTemplate
from repro.runtime import reference_execute
from repro.templates import find_edges_graph, find_edges_inputs

DEV = GpuDevice(name="facade-dev", memory_bytes=8 * 1024 * 1024)


def graph():
    return find_edges_graph(64, 64, 8, 2)


def plan_bytes(compiled) -> bytes:
    return json.dumps(plan_to_dict(compiled.plan), sort_keys=True).encode()


class TestFacadeDispatch:
    def test_compile_single_device(self):
        compiled = repro.compile(graph(), device=DEV)
        assert compiled.device is DEV
        assert compiled.plan.launches()

    def test_compile_group(self):
        compiled = repro.compile(graph(), group=homogeneous_group(DEV, 2))
        assert isinstance(compiled, MultiCompiledTemplate)

    def test_device_and_group_rejected(self):
        with pytest.raises(TypeError, match="exactly one"):
            repro.compile(graph(), device=DEV, group=homogeneous_group(DEV, 2))

    def test_neither_device_nor_group_rejected(self):
        with pytest.raises(TypeError, match="exactly one"):
            repro.compile(graph())

    def test_execute_dispatches_on_artifact_type(self):
        g = graph()
        inputs = find_edges_inputs(64, 64, 8, 2)
        reference = reference_execute(g, inputs)
        single = repro.execute(repro.compile(g, device=DEV), inputs)
        multi = repro.execute(
            repro.compile(g, group=homogeneous_group(DEV, 2)), inputs
        )
        for name, arr in reference.items():
            np.testing.assert_allclose(single.outputs[name], arr, atol=1e-4)
            np.testing.assert_allclose(multi.outputs[name], arr, atol=1e-4)

    def test_simulate_dispatches_on_artifact_type(self):
        g = graph()
        assert repro.simulate(repro.compile(g, device=DEV)).total_time > 0
        assert (
            repro.simulate(
                repro.compile(g, group=homogeneous_group(DEV, 2))
            ).total_time
            > 0
        )

    def test_compile_matches_framework_byte_for_byte(self):
        via_facade = repro.compile(
            graph(), device=DEV, host=XEON_WORKSTATION, plan_cache=False
        )
        via_framework = Framework(
            DEV, host=XEON_WORKSTATION, plan_cache=False
        ).compile(graph())
        assert plan_bytes(via_facade) == plan_bytes(via_framework)

    def test_top_level_exports(self):
        for name in (
            "compile", "compile_multi", "execute", "simulate",
            "CompileOptions", "ServiceConfig", "ExecutionService",
            "ServiceRequest",
        ):
            assert hasattr(repro, name), name


class TestCompileOptionsSurface:
    def test_keyword_construction_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = CompileOptions(scheduler="bfs", eviction_policy="lru")
        assert opts.scheduler == "bfs"

    def test_frozen(self):
        opts = CompileOptions()
        with pytest.raises(Exception):
            opts.scheduler = "bfs"

    def test_duplicate_argument_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            CompileOptions("bfs", scheduler="dfs")

    def test_too_many_positionals_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            CompileOptions(*["x"] * 20)


class TestLegacyShims:
    """The shims are gone: ``host``/``options`` are keyword-only."""

    def test_framework_keyword_form_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Framework(DEV, host=XEON_WORKSTATION, options=CompileOptions())

    def test_framework_duplicate_host_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            Framework(DEV, XEON_WORKSTATION, host=XEON_WORKSTATION)

    def test_facade_quickstart_on_real_preset(self):
        compiled = repro.compile(graph(), device=TESLA_C870)
        result = repro.execute(compiled, find_edges_inputs(64, 64, 8, 2))
        assert "Edg" in result.outputs


class TestSubmitterContract:
    """One submit surface across the serving tier (repro.service).

    Every front end satisfies the :class:`repro.service.Submitter`
    protocol: ``submit`` takes exactly one ``ServiceRequest``.
    """

    def test_every_service_satisfies_the_protocol(self):
        from repro.service import (
            AsyncExecutionService,
            ExecutionService,
            ServiceConfig,
            ShardedExecutionService,
            Submitter,
        )

        cfg = ServiceConfig(workers=1)
        services = [
            ExecutionService(cfg),
            AsyncExecutionService(cfg),
            ShardedExecutionService(cfg, shards=1),
        ]
        try:
            for svc in services:
                assert isinstance(svc, Submitter), type(svc).__name__
        finally:
            for svc in services:
                svc.close()

    def test_canonical_shape_is_silent(self):
        from repro.service import ExecutionService, ServiceConfig, ServiceRequest

        with ExecutionService(ServiceConfig(workers=1)) as svc:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                resp = svc.submit(ServiceRequest(
                    template=graph(), device=DEV, host=XEON_WORKSTATION
                )).result(timeout=60)
        assert resp.ok

    def test_request_plus_fields_rejected(self):
        from repro.service import ExecutionService, ServiceConfig, ServiceRequest

        req = ServiceRequest(template=graph(), device=DEV)
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            with pytest.raises(TypeError, match="mode"):
                svc.submit(req, mode="simulate")

    def test_batch_through_submit_rejected(self):
        from repro.service import ExecutionService, ServiceConfig, ServiceRequest

        reqs = [ServiceRequest(template=graph(), device=DEV)]
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            with pytest.raises(TypeError, match="submit_all"):
                svc.submit(reqs)

    def test_empty_submit_rejected(self):
        from repro.service import ExecutionService, ServiceConfig

        with ExecutionService(ServiceConfig(workers=1)) as svc:
            with pytest.raises(TypeError, match="missing a ServiceRequest"):
                svc.submit()
