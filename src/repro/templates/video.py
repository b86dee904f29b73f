"""Video edge-detection template.

The paper motivates its templates with "image and video analysis"
(Section 1) and streams of micrographs.  This template runs the
Figure-1(b) edge pipeline over a *batch of frames*: each frame is an
independent sub-pipeline sharing the kernel inputs, so the whole batch's
footprint scales with the clip length while every single operator stays
small.

That makes it the pure-scheduling counterpart of the big-image case: no
operator ever needs splitting, but the template as a whole can exceed
device memory by orders of magnitude — the transfer scheduler must
stream frame bands through the device, and with Belady + eager freeing
it reaches the I/O bound (tested).
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import OperatorGraph

from .edge_detection import edge_filter, rotated_kernel


def video_edge_graph(
    n_frames: int,
    height: int,
    width: int,
    kernel_size: int = 16,
    num_orientations: int = 4,
) -> OperatorGraph:
    """Edge detection over ``n_frames`` frames sharing the filter bank.

    Inputs: ``F{t}`` per frame plus ``K{i}`` kernels; outputs ``E{t}``
    per frame.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if num_orientations < 2:
        raise ValueError("need at least two orientations")
    g = OperatorGraph(f"video_edge_{n_frames}x{height}x{width}")
    n_conv = (num_orientations + 1) // 2
    for i in range(n_conv):
        g.add_data(f"K{i + 1}", (kernel_size, kernel_size), is_input=True)
    for t in range(n_frames):
        frame = f"F{t}"
        g.add_data(frame, (height, width), is_input=True)
        responses = []
        for i in range(num_orientations):
            r = f"R{t}_{i}"
            g.add_data(r, (height, width))
            if i < n_conv:
                g.add_operator(
                    f"C{t}_{i}", "conv2d", [frame, f"K{i + 1}"], [r], mode="same"
                )
            else:
                g.add_operator(f"M{t}_{i}", "remap", [responses[i - n_conv]], [r])
            responses.append(r)
        out = f"E{t}"
        g.add_data(out, (height, width), is_output=True)
        g.add_operator(f"Cmb{t}", "max", responses, [out])
    g.validate()
    return g.freeze()


def video_edge_inputs(
    n_frames: int,
    height: int,
    width: int,
    kernel_size: int = 16,
    num_orientations: int = 4,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Synthetic clip: smoothly drifting noise frames + rotated kernels."""
    rng = np.random.default_rng(seed)
    base = rng.random((height, width), dtype=np.float32)
    inputs: dict[str, np.ndarray] = {}
    n_conv = (num_orientations + 1) // 2
    k = edge_filter(kernel_size)
    for i in range(n_conv):
        inputs[f"K{i + 1}"] = rotated_kernel(k, i)
    frame = base
    for t in range(n_frames):
        inputs[f"F{t}"] = frame
        drift = rng.random((height, width), dtype=np.float32)
        frame = (0.9 * frame + 0.1 * drift).astype(np.float32)
    return inputs
