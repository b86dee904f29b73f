"""``python -m bench.compare A.json B.json`` — B against its base A.

A and B are result sets written by ``python -m bench`` (``--out``,
``--repeat K`` for K runs per workload).  For every (workload,
end-to-end metric) pair it prints B's median over A's — every ratio
with its base — against the bound in ``BENCHMARK.json``:

* ``regressed``  — worse than the base by more than the bound;
* ``unresolved`` — the run-to-run spread (distance between the
  quartiles over the median, the wider of the two sets) exceeds the
  bound, so "no change" cannot be told from a change — unless every run
  of B reads better than every run of A;
* ``improved`` / ``unchanged`` otherwise.

Per-layer metrics of traced sets are listed without a verdict (they
have no bound).  Exit status 1 on any regression or any rise in
``failed_share``; 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Any

from . import spec as specmod
from .stats import iqr_share, median


def load_runs(path: str) -> dict[tuple[str, int], list[dict[str, Any]]]:
    with open(path) as fh:
        data = json.load(fh)
    grouped: dict[tuple[str, int], list[dict[str, Any]]] = defaultdict(list)
    for run in data["runs"]:
        grouped[(run["workload"], run["trace"])].append(run)
    return grouped


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[str, float, float]:
    """(verdict, ratio new/base, spread) for one metric on one workload."""
    b, n = median(base), median(new)
    ratio = n / b if b else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (ratio - 1.0)
    spread = max(iqr_share(base), iqr_share(new))
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if worse_by > bound:
        return "regressed", ratio, spread
    if spread > bound and not all_better:
        return "unresolved", ratio, spread
    if -worse_by > bound:
        return "improved", ratio, spread
    return "unchanged", ratio, spread


def compare(path_a: str, path_b: str) -> int:
    spec = specmod.load()
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    status = 0
    print(f"base A = {path_a}\nnew  B = {path_b}")
    print(f"{'workload':<14s} {'metric':<40s} {'A median':>12s} "
          f"{'B median':>12s} {'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, trace = key
        declared = specmod.declared(spec, bool(trace))
        for name, meta in declared.items():
            base = [r["metrics"][name]["value"] for r in runs_a[key]]
            new = [r["metrics"][name]["value"] for r in runs_b[key]]
            if trace:
                b, n = median(base), median(new)
                ratio = n / b if b else float("nan")
                print(f"{workload:<14s} {name:<40s} {b:>12.6g} {n:>12.6g} "
                      f"{ratio:>7.3f} {'':>7s} {'':>6s}  (per-layer)")
                continue
            word, ratio, spread = verdict(base, new, meta["better"], meta["bound"])
            if word == "regressed":
                status = 1
            print(f"{workload:<14s} {name:<40s} {median(base):>12.6g} "
                  f"{median(new):>12.6g} {ratio:>7.3f} {spread:>7.3f} "
                  f"{meta['bound']:>6.2f}  {word}")
        failed_a = max(r["failed_share"] for r in runs_a[key])
        failed_b = max(r["failed_share"] for r in runs_b[key])
        rose = failed_b > failed_a
        if rose:
            status = 1
        print(f"{workload:<14s} {'failed_share':<40s} {failed_a:>12.6g} "
              f"{failed_b:>12.6g} {'':>7s} {'':>7s} {0:>6.2f}  "
              f"{'regressed' if rose else 'unchanged'}")
    only = set(runs_a) ^ set(runs_b)
    if only:
        print(f"not in both sets: {sorted(only)}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    return compare(*args)


if __name__ == "__main__":
    sys.exit(main())
