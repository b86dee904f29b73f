"""Convolutional neural network templates (Section 4.1.2).

The paper's CNN comes from a face/pose detection application built on
torch5 primitives: 11 layers — 4 convolutional, 2 sub-sampling and 5
tanh layers — restricted to "simple non-separable 2D convolutions, data
parallel additions and tanh operations".

Figure 7 shows the transformation of one convolutional layer with I
input planes and O output planes into primitive parallel operators:

* one ``conv2d`` per (input plane, output plane) pair:  I*O operators
  producing temporaries ``L{i}{j}``;
* a chain of ``add`` operators accumulating the L's into partial sums
  ``S`` and finally adding the bias ``B{j}``:  I*O more operators.

Sub-sampling layers apply one ``subsample`` per plane, tanh layers one
``tanh`` per plane.  Plane counts for :func:`small_cnn`/:func:`large_cnn`
are chosen so the graphs match the paper's reported scale (small: 1600
operators / 2434 data structures; large: 7500 / 11334 — ours land within
a few percent; exact counts are asserted in the test suite and recorded
in EXPERIMENTS.md).

Weights and biases are template inputs (trained parameters); the kernel
matrices must never be split, which the ``conv2d`` splitting rule
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import OperatorGraph


@dataclass(frozen=True)
class ConvLayerSpec:
    in_planes: int
    out_planes: int
    kernel: int = 5


@dataclass(frozen=True)
class CNNArch:
    """An 11-layer architecture in the paper's style."""

    name: str
    conv1: ConvLayerSpec
    conv2: ConvLayerSpec
    conv3: ConvLayerSpec
    conv4: ConvLayerSpec
    subsample_factor: int = 2

    @property
    def layers(self) -> list[str]:
        # 4 conv + 2 subsample + 5 tanh = 11 layers, as in the paper.
        return [
            "conv1", "tanh1", "sub1",
            "conv2", "tanh2", "sub2",
            "conv3", "tanh3",
            "conv4", "tanh4",
            "tanh5",
        ]


#: ~1600 operators / ~2400 data structures at any input size.
SMALL_CNN = CNNArch(
    name="small_cnn",
    conv1=ConvLayerSpec(1, 8),
    conv2=ConvLayerSpec(8, 20),
    conv3=ConvLayerSpec(20, 20),
    conv4=ConvLayerSpec(20, 10),
)

#: ~7500 operators / ~11000 data structures.
LARGE_CNN = CNNArch(
    name="large_cnn",
    conv1=ConvLayerSpec(1, 16),
    conv2=ConvLayerSpec(16, 48),
    conv3=ConvLayerSpec(48, 44),
    conv4=ConvLayerSpec(44, 16),
)


def _conv_layer(
    g: OperatorGraph,
    tag: str,
    spec: ConvLayerSpec,
    in_names: list[str],
    shape: tuple[int, int],
) -> tuple[list[str], tuple[int, int]]:
    """Emit the Figure-7 expansion of one convolutional layer."""
    h, w = shape
    oh, ow = h - spec.kernel + 1, w - spec.kernel + 1
    outs: list[str] = []
    for j in range(spec.out_planes):
        g.add_data(f"{tag}.B{j}", (1,), is_input=True)
    for i in range(spec.in_planes):
        for j in range(spec.out_planes):
            g.add_data(
                f"{tag}.W{i}_{j}", (spec.kernel, spec.kernel), is_input=True
            )
    for j in range(spec.out_planes):
        partial: str | None = None
        for i in range(spec.in_planes):
            conv_out = f"{tag}.L{i}_{j}"
            g.add_data(conv_out, (oh, ow))
            g.add_operator(
                f"{tag}.C{i}_{j}",
                "conv2d",
                [in_names[i], f"{tag}.W{i}_{j}"],
                [conv_out],
                mode="valid",
            )
            if partial is None:
                partial = conv_out
            else:
                s = f"{tag}.S{i}_{j}"
                g.add_data(s, (oh, ow))
                g.add_operator(
                    f"{tag}.A{i}_{j}", "add", [partial, conv_out], [s]
                )
                partial = s
        out = f"{tag}.O{j}"
        g.add_data(out, (oh, ow))
        g.add_operator(
            f"{tag}.Abias_{j}", "bias_add", [partial, f"{tag}.B{j}"], [out]
        )
        outs.append(out)
    return outs, (oh, ow)


def _plane_layer(
    g: OperatorGraph,
    tag: str,
    kind: str,
    in_names: list[str],
    shape: tuple[int, int],
    **params,
) -> tuple[list[str], tuple[int, int]]:
    h, w = shape
    if kind == "subsample":
        f = params.get("factor", 2)
        # Crop odd rows/cols first would complicate shapes; the
        # architecture keeps them divisible by construction checks below.
        oshape = (h // f, w // f)
    else:
        oshape = (h, w)
    outs = []
    for i, src in enumerate(in_names):
        out = f"{tag}.O{i}"
        g.add_data(out, oshape)
        g.add_operator(f"{tag}.{kind[:3]}{i}", kind, [src], [out], **params)
        outs.append(out)
    return outs, oshape


def cnn_graph(
    arch: CNNArch,
    height: int,
    width: int,
) -> OperatorGraph:
    """Build the full operator graph of an 11-layer CNN on one image.

    The final tanh layer's planes are the template outputs (the detection
    feature maps consumed by the application's classifier stage).
    """
    g = OperatorGraph(f"{arch.name}_{height}x{width}")
    g.add_data("In0", (height, width), is_input=True)
    names = ["In0"]
    shape = (height, width)
    specs = {
        "conv1": arch.conv1,
        "conv2": arch.conv2,
        "conv3": arch.conv3,
        "conv4": arch.conv4,
    }
    for layer in arch.layers:
        if layer.startswith("conv"):
            spec = specs[layer]
            if len(names) != spec.in_planes:
                raise ValueError(
                    f"{arch.name}: layer {layer} expects {spec.in_planes} "
                    f"planes, got {len(names)}"
                )
            names, shape = _conv_layer(g, layer, spec, names, shape)
        elif layer.startswith("sub"):
            f = arch.subsample_factor
            h, w = shape
            if h % f or w % f:
                # Crop to divisibility with a remap-free approach: torch5
                # subsampling floors; we require divisible shapes instead.
                raise ValueError(
                    f"{arch.name}: shape {shape} not divisible by {f} at "
                    f"{layer}; choose input dimensions accordingly"
                )
            names, shape = _plane_layer(
                g, layer, "subsample", names, shape, factor=f
            )
        else:  # tanh
            names, shape = _plane_layer(g, layer, "tanh", names, shape)
    for n in names:
        g.mark_output(n)
    g.validate()
    return g


def cnn_inputs(
    arch: CNNArch, height: int, width: int, seed: int = 0
) -> dict[str, np.ndarray]:
    """Random trained-parameter values + input image for a CNN graph.

    Stands in for the vehicular face/pose application's trained network;
    only shapes matter to the framework.
    """
    rng = np.random.default_rng(seed)
    g = cnn_graph(arch, height, width)
    out: dict[str, np.ndarray] = {}
    for d, ds in g.data.items():
        if ds.is_input and ds.parent is None:
            out[d] = (rng.random(ds.shape, dtype=np.float32) - 0.5) * 0.5
    return out


def valid_cnn_shape(arch: CNNArch, height: int, width: int) -> bool:
    """Whether the input dimensions survive the layer shape constraints."""
    try:
        cnn_graph(arch, height, width)
    except ValueError:
        return False
    return True
