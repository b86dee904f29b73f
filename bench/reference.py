"""The reference kernels every host-time metric is expressed against.

On the box this benchmark was written on, the speed of *everything* —
a pure-CPU loop included — moves by +-25 % between runs and stays there
for a whole run (medians of ten 8-second runs: quartiles 25-30 % of the
median apart, for compile, serving and a bare float loop alike), far
more than any bound a regression gate could use.  A fixed kernel timed
right next to each measurement moves with it: the ratio of a cold
compile to the pure-Python kernel beside it has quartiles 3-4 % apart,
``repro.execute`` to the numpy kernel 4 %.

So every host-time metric is reported in **reference seconds**: the
measured time multiplied by ``NOMINAL / observed`` of the reference
kernel sampled just before and just after the slice the sample came
from.  ``NOMINAL`` is the kernel's time on this box in its quiet state,
so the numbers read as seconds of a quiet run.  The kernels share no
code with ``repro``; a change to ``src/`` cannot move them, so a ratio
between two commits is a ratio of the work they do.

* ``py`` — object churn in pure Python (dicts, tuples, a sort): tracks
  the planner, the plan interpreters' bookkeeping and the request path.
* ``np`` — a sliding-window einsum: tracks the ``ops`` kernels, which
  dominate ``repro.execute``.
"""

from __future__ import annotations

import time

import numpy as np

#: quiet-state seconds of each kernel on the box the benchmark was built
#: on (the lowest steady level seen over many runs)
NOMINAL = {"py": 0.010, "np": 0.004}

_IMAGE = np.random.default_rng(0).random((256, 256), dtype=np.float32)
_KERNEL = np.ones((8, 8), dtype=np.float32)


def py_kernel() -> int:
    rows = [{"k": i, "v": (i, str(i))} for i in range(12_000)]
    rows.sort(key=lambda r: -r["k"])
    return len({r["v"][1]: r for r in rows})


def np_kernel() -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(_IMAGE, (8, 8))
    return np.einsum("ijkl,kl->ij", windows, _KERNEL, optimize=True)


def sample() -> dict[str, float]:
    """Seconds of one run of each kernel, right now."""
    out = {}
    for kind, kernel in (("py", py_kernel), ("np", np_kernel)):
        t0 = time.perf_counter()
        kernel()
        out[kind] = time.perf_counter() - t0
    return out


def warm_up() -> None:
    """The first runs in a process are slow (lazy numpy set-up)."""
    for _ in range(3):
        sample()
