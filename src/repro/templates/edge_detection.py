"""Edge detection template (Sections 2.1, 4.1.1).

The template the paper obtains from a cancer-detection application that
grades nuclear pleomorphism in histological micrographs: convolve the
image with rotated versions of an edge filter at several orientations,
then combine the responses with a reduction (max / add / max-absolute).

The paper's general form::

    edge_map = find_edges(Image, Kernel, num_orientations, Combine_op)

:func:`find_edges_graph` builds the parallel operator graph of Figure
1(b).  Following the paper's experiments (Section 4.1.1), orientations
alternate between convolutions with a rotated kernel and cheaper
``remap`` operators applied to an existing response ("some convolutions
are replaced by 'remap' (R) operators"): with 4 orientations that gives
2 convolutions + 2 remaps; with 8 it gives the C1-C4 / R1-R4 structure
of Figure 1(b).

Kernels are template inputs (and are never split); convolutions use
``same`` boundary mode so the edge map matches the image size, which is
what makes Table 1's float counts add up (1000x1000 image + 2 16x16
kernels + 1000x1000 edge map = 2,000,512 floats of pure I/O).
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import OperatorGraph

_COMBINE_KINDS = {"max": "max", "add": "sum_combine", "absmax": "absmax"}


def rotated_kernel(base: np.ndarray, orientation: int) -> np.ndarray:
    """The edge filter rotated by ``orientation`` quarter turns."""
    return np.ascontiguousarray(np.rot90(base, k=orientation % 4)).astype(
        np.float32
    )


def edge_filter(size: int = 16) -> np.ndarray:
    """A simple oriented edge (gradient) filter of the given size.

    Rows transition from -1 to +1 — a coarse horizontal-edge detector;
    rotations give the other orientations.  (The actual coefficients do
    not matter to the framework: only the kernel's size enters the
    memory model.)
    """
    k = np.ones((size, size), dtype=np.float32)
    k[: size // 2, :] = -1.0
    return k / (size * size)


def find_edges_graph(
    height: int,
    width: int,
    kernel_size: int = 16,
    num_orientations: int = 4,
    combine_op: str = "max",
) -> OperatorGraph:
    """Build the edge-detection operator graph (Figure 1(b)).

    Data structures: ``Img`` (input), ``K{i}`` (kernel inputs, one per
    convolution), ``E{i}`` (responses), ``Edg`` (output).  Operators:
    ``C{i}`` convolutions and ``R{i}`` remaps, alternating per
    orientation, then one combine operator.
    """
    if num_orientations < 1:
        raise ValueError("need at least one orientation")
    if combine_op not in _COMBINE_KINDS:
        raise ValueError(
            f"combine_op must be one of {sorted(_COMBINE_KINDS)}"
        )
    g = OperatorGraph(f"edge_detection_{height}x{width}")
    g.add_data("Img", (height, width), is_input=True)
    responses: list[str] = []
    conv_idx = remap_idx = 0
    n_conv = (num_orientations + 1) // 2
    for i in range(num_orientations):
        e = f"E{i + 1}"
        g.add_data(e, (height, width))
        if i < n_conv:
            conv_idx += 1
            kname = f"K{conv_idx}"
            g.add_data(kname, (kernel_size, kernel_size), is_input=True)
            g.add_operator(
                f"C{conv_idx}", "conv2d", ["Img", kname], [e], mode="same"
            )
        else:
            remap_idx += 1
            src = responses[i - n_conv]
            g.add_operator(f"R{remap_idx}", "remap", [src], [e])
        responses.append(e)
    if num_orientations == 1:
        # Degenerate form: single orientation, identity combine via remap.
        g.add_data("Edg", (height, width), is_output=True)
        g.add_operator("Combine", "remap", responses, ["Edg"], gain=1.0)
    else:
        g.add_data("Edg", (height, width), is_output=True)
        g.add_operator(
            "Combine", _COMBINE_KINDS[combine_op], responses, ["Edg"]
        )
    g.validate()
    return g.freeze()


def edge_forest_graph(
    n_branches: int,
    height: int,
    width: int,
    kernel_size: int = 16,
    num_orientations: int = 4,
    combine_op: str = "max",
    branch_combine: dict[int, str] | None = None,
) -> OperatorGraph:
    """A forest of independent edge-detection branches in one template.

    Each branch ``j`` is a full :func:`find_edges_graph` pipeline over
    its *own* image and kernel inputs (names prefixed ``T{j}_``) — the
    batch-of-micrographs workload, where branches share nothing and the
    planner's fragment machinery (:mod:`repro.core.incremental`) can
    replan them independently.

    ``branch_combine`` overrides the combine operator of individual
    branches (``{j: "add"}``); the benchmark uses it to express a
    one-branch edit of a large template.
    """
    if n_branches < 1:
        raise ValueError("need at least one branch")
    overrides = branch_combine or {}
    for j, op in overrides.items():
        if not 0 <= j < n_branches:
            raise ValueError(f"branch_combine index {j} out of range")
        if op not in _COMBINE_KINDS:
            raise ValueError(f"combine_op must be one of {sorted(_COMBINE_KINDS)}")
    if combine_op not in _COMBINE_KINDS:
        raise ValueError(f"combine_op must be one of {sorted(_COMBINE_KINDS)}")
    if num_orientations < 2:
        raise ValueError("need at least two orientations")
    g = OperatorGraph(f"edge_forest_{n_branches}x{height}x{width}")
    n_conv = (num_orientations + 1) // 2
    for j in range(n_branches):
        p = f"T{j}_"
        g.add_data(f"{p}Img", (height, width), is_input=True)
        responses: list[str] = []
        for i in range(num_orientations):
            e = f"{p}E{i + 1}"
            g.add_data(e, (height, width))
            if i < n_conv:
                kname = f"{p}K{i + 1}"
                g.add_data(kname, (kernel_size, kernel_size), is_input=True)
                g.add_operator(
                    f"{p}C{i + 1}", "conv2d", [f"{p}Img", kname], [e],
                    mode="same",
                )
            else:
                g.add_operator(
                    f"{p}R{i - n_conv + 1}", "remap", [responses[i - n_conv]], [e]
                )
            responses.append(e)
        g.add_data(f"{p}Edg", (height, width), is_output=True)
        g.add_operator(
            f"{p}Cmb",
            _COMBINE_KINDS[overrides.get(j, combine_op)],
            responses,
            [f"{p}Edg"],
        )
    g.validate()
    return g.freeze()


def edge_forest_inputs(
    n_branches: int,
    height: int,
    width: int,
    kernel_size: int = 16,
    num_orientations: int = 4,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Synthetic per-branch micrographs + rotated kernels for the forest."""
    rng = np.random.default_rng(seed)
    base = edge_filter(kernel_size)
    n_conv = (num_orientations + 1) // 2
    inputs: dict[str, np.ndarray] = {}
    for j in range(n_branches):
        p = f"T{j}_"
        inputs[f"{p}Img"] = rng.random((height, width), dtype=np.float32)
        for i in range(n_conv):
            inputs[f"{p}K{i + 1}"] = rotated_kernel(base, i)
    return inputs


def find_edges_inputs(
    height: int,
    width: int,
    kernel_size: int = 16,
    num_orientations: int = 4,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Synthetic micrograph + rotated kernels for the template.

    Stands in for the proprietary histological micrographs of [7]; the
    framework's behaviour depends only on the dimensions.
    """
    rng = np.random.default_rng(seed)
    base = edge_filter(kernel_size)
    inputs: dict[str, np.ndarray] = {
        "Img": rng.random((height, width), dtype=np.float32)
    }
    n_conv = (num_orientations + 1) // 2
    for i in range(n_conv):
        inputs[f"K{i + 1}"] = rotated_kernel(base, i)
    return inputs
