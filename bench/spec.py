"""``BENCHMARK.json`` is the one declaration of workloads, metric names,
units, directions and bounds; code reads it, never repeats it."""

from __future__ import annotations

import json
import os
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: value reported for a per-layer metric whose target function is gone
#: (every real per-layer value is >= 0); printed as ``absent``
ABSENT = -1.0


def load() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared(spec: dict[str, Any], trace: bool) -> dict[str, dict[str, Any]]:
    """name -> declaration of the metrics one run must print."""
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
