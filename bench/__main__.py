"""``python -m bench`` — run one workload, or all six.

One workload (the driver's form)::

    python3 -m bench --workload serve-warm --seed 7 --seconds 14 --trace 0

prints the metric table and, as the last line of standard output, one
JSON object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``).

All workloads::

    python -m bench --seed 20090525 [--trace] [--repeat K] [--out A.json]

runs each workload in a fresh subprocess, prints every metric by name
and unit, writes the result set for ``python -m bench.compare`` and
ends with a summary whose last key is ``"claim": null`` — this
benchmark measures; it claims no gain.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from . import spec as specmod


def environment() -> dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }


def run_one(args: argparse.Namespace, spec: dict) -> dict:
    """Run one workload in this process; returns the full record."""
    from .layers import collect, pb_conflicts, serve_instrumentation
    from .lifecycle import Lifecycle
    from .trace import Recorder
    from .workloads import WORKLOADS, smoke

    workload = WORKLOADS[args.workload](args.seed)
    if args.smoke:
        workload = smoke(workload)
    env = environment()
    rec = Recorder() if args.trace else None
    # A traced run spends part of its time in the probes of bench.layers.
    seconds = args.seconds * (0.6 if args.trace else 1.0)
    life = Lifecycle(workload, seconds, rec, quick=args.smoke)
    if rec is not None:
        life.instrument = {
            "pb": lambda: pb_conflicts(rec),
            "serve": lambda: serve_instrumentation(rec),
        }
    life.run()
    values = dict(life.metrics)
    if rec is not None:
        values = collect(life, rec)
    # The noise record: the reference kernels as timed before the first
    # set-up and after the last slice.  Only a flag for a noisy neighbour;
    # normalisation uses the samples that bracket each slice.
    before = sum(life.boundaries[0].values())
    after = sum(life.boundaries[-1].values())
    drift = abs(after / before - 1.0)
    if rec is not None:
        values["bench.calibration.drift"] = drift
    names = specmod.declared(spec, bool(args.trace))
    if set(values) != set(names):
        raise SystemExit(
            f"metrics emitted differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(bool(args.trace)),
        "correct": life.failed == 0,
        "attempted": life.attempted,
        "failed": life.failed,
        "failed_share": life.failed / max(life.attempted, 1),
        "metrics": {
            name: {"value": float(values[name]), "unit": names[name]["unit"]}
            for name in names
        },
        "samples": life.samples,
        "failures": life.failures,
        "measured_seconds": life.measured_seconds,
        "phase_seconds": life.phase_seconds,
        "env": env,
        "calibration": {"before_s": before, "after_s": after, "drift": drift},
        "reference_s": {
            kind: sorted(b[kind] for b in life.boundaries)[len(life.boundaries) // 2]
            for kind in ("py", "np")
        },
    }
    if rec is not None:
        os.makedirs(specmod.OUT_DIR, exist_ok=True)
        budget = getattr(life, "request_budget", None)
        rec.dump(
            os.path.join(specmod.OUT_DIR, f"trace-{args.workload}.json"),
            workload=args.workload, seed=args.seed, request_budget_us=budget,
        )
    return record


def print_table(record: dict, spec: dict) -> None:
    names = specmod.declared(spec, bool(record["trace"]))
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['trace'] else 'untraced'}  "
          f"{record['attempted']} ops, {record['failed']} failed, "
          f"{record['measured_seconds']:.1f} s measured, "
          f"calibration {record['calibration']['before_s'] * 1e3:.1f} -> "
          f"{record['calibration']['after_s'] * 1e3:.1f} ms, reference py "
          f"{record['reference_s']['py'] * 1e3:.2f} np "
          f"{record['reference_s']['np'] * 1e3:.2f} ms")
    for name, meta in names.items():
        value = record["metrics"][name]["value"]
        shown = "absent" if value == specmod.ABSENT else f"{value:.6g}"
        n = record["samples"].get(name)
        print(f"  {name:<42s} {shown:>14s} {meta['unit']:<8s}"
              f"{'' if n is None else f' n={n}'}")
    print("  phases: " + "  ".join(
        f"{name.removeprefix('phase_')} {seconds:.1f}"
        for name, seconds in record["phase_seconds"].items()))
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in a fresh subprocess; one result set on disk."""
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for repeat in range(args.repeat):
        for name in names:
            cmd = [sys.executable, "-m", "bench", "--workload", name,
                   "--seed", str(args.seed + repeat),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(bool(args.trace))), "--record"]
            if args.smoke:
                cmd.append("--smoke")
            done = subprocess.run(cmd, cwd=specmod.ROOT, capture_output=True,
                                  text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"workload {name} exited with {done.returncode}")
                return done.returncode or 1
            record = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(record)
            print_table(record, spec)
    out = args.out or os.path.join(
        specmod.OUT_DIR,
        f"result-{args.seed}{'-trace' if args.trace else ''}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    summary = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(bool(args.trace)),
        "workloads": len(names),
        "runs": len(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failed_share": {r["workload"]: r["failed_share"] for r in runs},
        "result_set": os.path.relpath(out, specmod.ROOT),
        "claim": None,
    }
    with open(out, "w") as fh:
        json.dump({**summary, "runs": runs}, fh, indent=1)
    print(json.dumps(summary))
    return 0 if summary["failed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    spec = specmod.load()
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=20090525)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="the separate traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="one block per phase on small inputs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workload mode: runs per workload (seed, seed+1, ...)")
    parser.add_argument("--out", help="all-workload mode: result-set path")
    parser.add_argument("--record", action="store_true",
                        help="print the full record instead of the driver line")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    # The checkout's own sources, never an installed copy.
    sys.path.insert(0, os.path.join(specmod.ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import repro from {specmod.ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    record = run_one(args, spec)
    if args.record:
        print(json.dumps(record))
        return 0
    print_table(record, spec)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
