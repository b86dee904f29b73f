"""Template inputs are checked against the shapes the template declares.

Every executor reads template inputs through
``repro.runtime.assemble.input_chunk_array``; an array whose shape
disagrees with its declared data structure is rejected there, naming the
input, instead of running on the wrong data and misreporting transfers.
"""

import pytest

from repro.core import Framework
from repro.gpusim import XEON_WORKSTATION, GpuDevice, SimRuntime
from repro.runtime import (
    dynamic_execute,
    execute_plan,
    execute_plan_events,
    reference_execute,
)
from repro.service import ExecutionService, RequestStatus, ServiceConfig, ServiceRequest
from repro.templates import (
    LARGE_CNN,
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    dog_pyramid_graph,
    dog_pyramid_inputs,
    edge_filter,
    edge_forest_graph,
    edge_forest_inputs,
    find_edges_graph,
    find_edges_inputs,
    video_edge_graph,
    video_edge_inputs,
)

DEV = GpuDevice(name="inputs-dev", memory_bytes=64 * 1024)
MISMATCH = r"'K1'.*declared shape \(5, 5\), given \(3, 3\)"


@pytest.fixture(scope="module")
def case():
    template = find_edges_graph(48, 40, 5, 4)
    inputs = find_edges_inputs(48, 40, 5, 4, seed=5)
    inputs["K1"] = edge_filter(3)  # the template declares K1 as 5x5
    return template, Framework(DEV).compile(template), inputs


TEMPLATES = {
    "edge": (find_edges_graph, find_edges_inputs, (48, 40, 5, 4)),
    "small-cnn": (cnn_graph, cnn_inputs, (SMALL_CNN, 48, 48)),
    "large-cnn": (cnn_graph, cnn_inputs, (LARGE_CNN, 64, 64)),
    "dog": (dog_pyramid_graph, dog_pyramid_inputs, (64, 64)),
    "video": (video_edge_graph, video_edge_inputs, (3, 32, 32, 5, 2)),
    "forest": (edge_forest_graph, edge_forest_inputs, (2, 32, 32, 5, 2)),
}


@pytest.mark.parametrize("template", list(TEMPLATES))
def test_every_template_input_maker_matches_its_graph(template):
    make_graph, make_inputs, args = TEMPLATES[template]
    graph, inputs = make_graph(*args), make_inputs(*args)
    assert set(inputs) == {d for d, ds in graph.data.items() if ds.is_input}
    for name, array in inputs.items():
        assert array.shape == graph.data[name].shape, name


EXECUTORS = {
    "execute_plan": lambda t, c, i: execute_plan(c.plan, c.graph, SimRuntime(DEV), i),
    "execute_plan_events": lambda t, c, i: execute_plan_events(c.plan, c.graph, DEV, i),
    "reference_execute": lambda t, c, i: reference_execute(t, i),
    "dynamic_execute": lambda t, c, i: dynamic_execute(
        c.graph, SimRuntime(DEV), i, c.op_order
    ),
}


@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_a_misshapen_input_is_rejected(case, executor):
    with pytest.raises(ValueError, match=MISMATCH):
        EXECUTORS[executor](*case)


@pytest.mark.timeout(60)
def test_a_service_execute_request_fails_without_retry(case):
    template, _, inputs = case
    request = ServiceRequest(
        template=template, device=DEV, host=XEON_WORKSTATION,
        mode="execute", inputs=inputs,
    )
    with ExecutionService(ServiceConfig(workers=1), sleep=lambda s: None) as svc:
        response = svc.submit(request).result(timeout=30)
        retries = svc.metrics.counter("service.retries").value
    assert response.status is RequestStatus.FAILED
    assert "'K1'" in response.error
    assert response.retries == 0 and retries == 0
