"""Domain-specific templates from the recognition domain (Section 4.1).

Edge detection (cancer-diagnosis micrographs) and convolutional neural
networks (face/pose detection), expressed as parallel operator graphs.
Every factory returns a frozen graph: edit a ``copy()``.
"""

from .api import cnn_forward, find_edges
from .cnn import (
    LARGE_CNN,
    SMALL_CNN,
    CNNArch,
    ConvLayerSpec,
    cnn_graph,
    cnn_inputs,
    valid_cnn_shape,
)
from .video import video_edge_graph, video_edge_inputs
from .pyramid import (
    dog_pyramid_graph,
    dog_pyramid_inputs,
    dog_pyramid_reference,
    gaussian_kernel,
)
from .edge_detection import (
    edge_filter,
    edge_forest_graph,
    edge_forest_inputs,
    find_edges_graph,
    find_edges_inputs,
    rotated_kernel,
)

__all__ = [
    "CNNArch",
    "ConvLayerSpec",
    "LARGE_CNN",
    "SMALL_CNN",
    "cnn_forward",
    "cnn_graph",
    "cnn_inputs",
    "dog_pyramid_graph",
    "dog_pyramid_inputs",
    "dog_pyramid_reference",
    "find_edges",
    "gaussian_kernel",
    "edge_filter",
    "edge_forest_graph",
    "edge_forest_inputs",
    "find_edges_graph",
    "find_edges_inputs",
    "rotated_kernel",
    "valid_cnn_shape",
    "video_edge_graph",
    "video_edge_inputs",
]
