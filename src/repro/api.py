"""The stable public facade.

One flat, keyword-only surface over the layered internals, so callers
never need to know which package a capability lives in:

    import repro

    compiled = repro.compile(template, device=repro.TESLA_C870)
    result = repro.execute(compiled, inputs)
    timing = repro.simulate(compiled)

``compile``/``execute``/``simulate`` accept both single-device and
multi-device artifacts — ``execute`` and ``simulate`` dispatch on the
compiled template's type, so re-targeting from one GPU to a device
group changes only the ``compile`` call.
"""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

from repro.core.framework import (
    CompiledTemplate,
    CompileOptions,
    Framework,
)
from repro.core.plancache import PlanCache
from repro.gpusim import DeviceGroup, GpuDevice, HostSystem
from repro.multigpu.framework import (
    MultiCompiledTemplate,
    compile_multi as _compile_multi,
    execute_multi as _execute_multi,
    simulate_multi as _simulate_multi,
)
from repro.runtime.executor import ExecutionResult, SimulatedRun

AnyCompiled = Union[CompiledTemplate, MultiCompiledTemplate]


def compile(
    template,
    *,
    device: GpuDevice | None = None,
    group: DeviceGroup | None = None,
    host: HostSystem | None = None,
    options: CompileOptions | None = None,
    transfer_mode: str = "peer",
    plan_cache: PlanCache | bool | None = True,
) -> AnyCompiled:
    """Compile a template for one device or a device group.

    Exactly one of ``device`` / ``group`` must be given.  The result is
    a :class:`~repro.core.CompiledTemplate` (single device) or
    :class:`~repro.multigpu.MultiCompiledTemplate` (group); both are
    accepted by :func:`execute` and :func:`simulate`.
    """
    if (device is None) == (group is None):
        raise TypeError(
            "repro.compile() needs exactly one of device=... or group=..."
        )
    if group is not None:
        return _compile_multi(
            template,
            group,
            host=host,
            options=options,
            transfer_mode=transfer_mode,
            plan_cache=plan_cache,
        )
    fw = Framework(device, host=host, options=options, plan_cache=plan_cache)
    return fw.compile(template)


def compile_multi(
    template,
    group: DeviceGroup,
    *,
    host: HostSystem | None = None,
    options: CompileOptions | None = None,
    transfer_mode: str = "peer",
    plan_cache: PlanCache | bool | None = True,
) -> MultiCompiledTemplate:
    """Compile a template for a device group (explicit multi-GPU form)."""
    return _compile_multi(
        template,
        group,
        host=host,
        options=options,
        transfer_mode=transfer_mode,
        plan_cache=plan_cache,
    )


def execute(
    compiled: AnyCompiled,
    template_inputs: Mapping[str, np.ndarray],
):
    """Numerically run a compiled template on its simulated target(s).

    Returns :class:`~repro.runtime.ExecutionResult` for single-device
    artifacts, :class:`~repro.multigpu.MultiExecutionResult` for groups.
    """
    if isinstance(compiled, MultiCompiledTemplate):
        return _execute_multi(compiled, template_inputs)
    fw = Framework(compiled.device, host=compiled.host)
    return fw.execute(compiled, template_inputs)


def simulate(compiled: AnyCompiled):
    """Analytically time a compiled template (paper-scale workloads).

    Returns :class:`~repro.runtime.SimulatedRun` for single-device
    artifacts, :class:`~repro.multigpu.MultiSimulatedRun` for groups.
    """
    if isinstance(compiled, MultiCompiledTemplate):
        return _simulate_multi(compiled)
    fw = Framework(compiled.device, host=compiled.host)
    return fw.simulate(compiled)


__all__ = [
    "AnyCompiled",
    "CompileOptions",
    "CompiledTemplate",
    "ExecutionResult",
    "MultiCompiledTemplate",
    "SimulatedRun",
    "compile",
    "compile_multi",
    "execute",
    "simulate",
]
