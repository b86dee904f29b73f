"""Operator library.

Numpy reference implementations, static memory/cost models and splitting
rules for every operator kind the evaluation templates use.  Importing
this package populates the registry (see :mod:`repro.ops.base`).
"""

from . import convolution, elementwise, matmul, reduction, subsample  # noqa: F401
from .base import OpImpl, get_impl, known_kinds, launch_cost, register
from .convolution import Conv2D, conv2d_valid, same_padding

__all__ = [
    "Conv2D",
    "OpImpl",
    "conv2d_valid",
    "get_impl",
    "known_kinds",
    "launch_cost",
    "register",
    "same_padding",
]
