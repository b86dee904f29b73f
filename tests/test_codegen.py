"""Tests for the code generators (Python + CUDA C)."""

import numpy as np

from repro.codegen import generate_cuda, generate_python
from repro.core import (
    CopyToCPU,
    CopyToGPU,
    Framework,
    Free,
    Launch,
    dfs_schedule,
    make_feasible,
    schedule_transfers,
)
from repro.gpusim import GpuDevice, TESLA_C870
from repro.runtime import reference_execute
from repro.templates import (
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    find_edges_graph,
    find_edges_inputs,
)

DEV = GpuDevice(name="codegen-dev", memory_bytes=256 * 1024)


def compile_edge(cap_frac=0.5):
    g = find_edges_graph(48, 40, 5, 4).copy()
    cap = int(g.max_footprint() * cap_frac)
    make_feasible(g, cap)
    plan = schedule_transfers(g, dfs_schedule(g), cap)
    return g, plan


def run_generated(src, inputs):
    ns: dict = {}
    exec(compile(src, "<generated>", "exec"), ns)
    return ns["run"](inputs)


class TestPythonCodegen:
    def test_generated_program_matches_reference(self):
        inputs = find_edges_inputs(48, 40, 5, 4, seed=11)
        ref = reference_execute(find_edges_graph(48, 40, 5, 4), inputs)["Edg"]
        g, plan = compile_edge()
        src = generate_python(plan, g, DEV)
        out = run_generated(src, inputs)
        np.testing.assert_allclose(out["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_unsplit_program(self):
        g = find_edges_graph(32, 24, 3, 2)
        inputs = find_edges_inputs(32, 24, 3, 2, seed=3)
        ref = reference_execute(g, inputs)["Edg"]
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        src = generate_python(plan, g, GpuDevice(name="big", memory_bytes=1 << 24))
        out = run_generated(src, inputs)
        np.testing.assert_allclose(out["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_profile_exposed(self):
        g, plan = compile_edge()
        src = generate_python(plan, g, DEV)
        out = run_generated(src, find_edges_inputs(48, 40, 5, 4))
        assert out["__elapsed__"] > 0
        assert out["__profile__"].transfer_time > 0

    def test_device_override(self):
        g, plan = compile_edge()
        src = generate_python(plan, g, DEV)
        ns: dict = {}
        exec(compile(src, "<generated>", "exec"), ns)
        big = GpuDevice(name="big", memory_bytes=1 << 26)
        out = ns["run"](find_edges_inputs(48, 40, 5, 4), device=big)
        assert "Edg" in out

    def test_cnn_program(self):
        g = cnn_graph(SMALL_CNN, 48, 48)
        inputs = cnn_inputs(SMALL_CNN, 48, 48, seed=4)
        ref = reference_execute(cnn_graph(SMALL_CNN, 48, 48), inputs)
        dev = GpuDevice(name="t", memory_bytes=64 * 1024)
        fw = Framework(dev)
        compiled = fw.compile(g)
        src = generate_python(compiled.plan, compiled.graph, dev)
        out = run_generated(src, inputs)
        for k in ref:
            np.testing.assert_allclose(out[k], ref[k], rtol=1e-4, atol=1e-5)

    def test_header_documents_plan(self):
        g, plan = compile_edge()
        src = generate_python(plan, g, DEV)
        assert "Generated hybrid CPU/GPU program" in src
        assert str(plan.transfer_floats(g)) in src


class TestCudaCodegen:
    def test_structure(self):
        g, plan = compile_edge()
        src = generate_cuda(plan, g, TESLA_C870)
        assert "#include <cuda_runtime.h>" in src
        assert "__global__ void k_conv2d" in src
        assert "__global__ void k_remap" in src
        assert "int run_template(" in src

    def test_malloc_free_balanced(self):
        g, plan = compile_edge()
        src = generate_cuda(plan, g, TESLA_C870)
        n_h2d = sum(1 for s in plan.steps if isinstance(s, CopyToGPU))
        n_launch_outs = sum(
            len(dict.fromkeys(g.ops[s.op].outputs))
            for s in plan.steps
            if isinstance(s, Launch)
        )
        n_free = sum(1 for s in plan.steps if isinstance(s, Free))
        assert src.count("cudaMalloc(") == n_h2d + n_launch_outs
        assert src.count("cudaFree(") == n_free

    def test_memcpy_directions(self):
        g, plan = compile_edge()
        src = generate_cuda(plan, g, TESLA_C870)
        n_h2d = sum(1 for s in plan.steps if isinstance(s, CopyToGPU))
        n_d2h = sum(1 for s in plan.steps if isinstance(s, CopyToCPU))
        assert src.count("cudaMemcpyHostToDevice") == n_h2d
        assert src.count("cudaMemcpyDeviceToHost") == n_d2h

    def test_one_sync_per_launch(self):
        g, plan = compile_edge()
        src = generate_cuda(plan, g, TESLA_C870)
        n_launch = len(plan.launches())
        assert src.count("cudaDeviceSynchronize()") == n_launch

    def test_kernels_only_for_used_kinds(self):
        g = find_edges_graph(32, 24, 3, 2)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        src = generate_cuda(plan, g, TESLA_C870)
        assert "k_conv2d" in src
        assert "k_matmul" not in src

    def test_byte_sizes_match_graph(self):
        g = find_edges_graph(32, 24, 3, 2)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        src = generate_cuda(plan, g, TESLA_C870)
        assert str(32 * 24 * 4) in src  # image bytes appear in mallocs
