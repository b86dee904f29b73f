"""Difference-of-Gaussians pyramid template.

A third recognition-domain template (beyond the paper's two) exercising
the framework's generality: the classic multi-scale feature-extraction
front end used by interest-point detectors.  Per octave:

* blur the image with two Gaussian kernels of increasing sigma (two
  ``conv2d`` operators sharing the input — a reuse pattern distinct from
  both evaluation templates);
* subtract the blurs to form the DoG band (``sub``);
* rectify the band (``relu``) as the detector's positive response map;
* subsample the wider blur by 2 to seed the next octave.

All response maps are template outputs, so intermediate octave images
must be kept transferable — a good stress test for the transfer
scheduler, since octave footprints shrink geometrically while early
outputs stay live.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import OperatorGraph


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """A normalised 2-D Gaussian kernel."""
    if size < 1:
        raise ValueError("kernel size must be positive")
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    k = np.outer(g, g)
    return (k / k.sum()).astype(np.float32)


def dog_pyramid_graph(
    height: int,
    width: int,
    octaves: int = 3,
    kernel_size: int = 5,
) -> OperatorGraph:
    """Build the DoG pyramid operator graph.

    Outputs: ``DoG{o}`` (rectified band per octave).  Inputs: ``Img``
    plus the two shared Gaussian kernels ``Gnarrow``/``Gwide``.
    """
    if octaves < 1:
        raise ValueError("need at least one octave")
    h, w = height, width
    min_side = kernel_size * (2 ** (octaves - 1)) * 2
    if min(h, w) < min_side:
        raise ValueError(
            f"{h}x{w} too small for {octaves} octaves with "
            f"kernel {kernel_size} (need >= {min_side})"
        )
    g = OperatorGraph(f"dog_pyramid_{height}x{width}_o{octaves}")
    g.add_data("Img", (h, w), is_input=True)
    g.add_data("Gnarrow", (kernel_size, kernel_size), is_input=True)
    g.add_data("Gwide", (kernel_size, kernel_size), is_input=True)
    src = "Img"
    for o in range(octaves):
        blur_a = f"L{o}a"
        blur_b = f"L{o}b"
        band = f"Band{o}"
        dog = f"DoG{o}"
        g.add_data(blur_a, (h, w))
        g.add_data(blur_b, (h, w))
        g.add_data(band, (h, w))
        g.add_data(dog, (h, w), is_output=True)
        g.add_operator(f"Ba{o}", "conv2d", [src, "Gnarrow"], [blur_a], mode="same")
        g.add_operator(f"Bb{o}", "conv2d", [src, "Gwide"], [blur_b], mode="same")
        g.add_operator(f"D{o}", "sub", [blur_b, blur_a], [band])
        g.add_operator(f"R{o}", "relu", [band], [dog])
        if o + 1 < octaves:
            if h % 2 or w % 2:
                raise ValueError(
                    f"octave {o} shape ({h},{w}) not divisible by 2"
                )
            h, w = h // 2, w // 2
            nxt = f"I{o + 1}"
            g.add_data(nxt, (h, w))
            g.add_operator(f"S{o}", "subsample", [blur_b], [nxt], factor=2)
            src = nxt
    g.validate()
    return g.freeze()


def dog_pyramid_inputs(
    height: int,
    width: int,
    kernel_size: int = 5,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Synthetic image + the two Gaussian kernels."""
    rng = np.random.default_rng(seed)
    return {
        "Img": rng.random((height, width), dtype=np.float32),
        "Gnarrow": gaussian_kernel(kernel_size, sigma=kernel_size / 4.0),
        "Gwide": gaussian_kernel(kernel_size, sigma=kernel_size / 2.0),
    }


def dog_pyramid_reference(
    inputs: dict[str, np.ndarray], octaves: int = 3
) -> dict[str, np.ndarray]:
    """Pure-numpy/scipy-free reference of the pyramid (for tests)."""
    from repro.ops.convolution import same_padding

    def conv_same(img: np.ndarray, k: np.ndarray) -> np.ndarray:
        kh, kw = k.shape
        (pt, pb), (pl, pr) = same_padding(kh), same_padding(kw)
        padded = np.pad(img, ((pt, pb), (pl, pr)))
        from repro.ops import conv2d_valid

        return conv2d_valid(padded, k)

    img = inputs["Img"]
    out: dict[str, np.ndarray] = {}
    for o in range(octaves):
        a = conv_same(img, inputs["Gnarrow"])
        b = conv_same(img, inputs["Gwide"])
        out[f"DoG{o}"] = np.maximum(b - a, 0.0)
        if o + 1 < octaves:
            h, w = b.shape
            img = b.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
    return out
