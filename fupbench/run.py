"""The repository benchmark: one run of one workload.

Usage (from the root of a checkout)::

    python3 fupbench/run.py --workload append --seed 1 --seconds 20 --trace 0

Workloads: ``append``, ``churn`` (closed loop, in this process; see
``inproc.py``) and ``serve`` (open loop against a ``repro pipeline`` child;
see ``serving.py``).  The inputs are generated from ``--seed``; the program
is imported from ``src/`` of the checkout.

``--trace 0`` prints the end-to-end metrics, corrected for the host's speed
(``probe.py``; on ``serve`` only ``setup_s``, see ``serving.py``).
``--trace 1`` runs the same workload with the layer tracer (``tracing.py``)
and prints the per-layer metrics, the raw end-to-end values (``raw.*``), the
probe time and the tracing overhead.

Every run ends with the correctness gate (``model.py``).  Standard output
ends with a provenance line and then the result line::

    {"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}

The exit code is 0 when the gate passes, 1 when it does not and 2 when the
run could not be made at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: End-to-end metrics, printed by ``--trace 0``, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "batch_ms.p50": "ms",
    "batch_ms.p90": "ms",
    "freshness_ms.p50": "ms",
    "freshness_ms.p90": "ms",
    "query_ms.p50": "ms",
    "query_ms.p99": "ms",
    "peak_rss_mb": "MB",
}
#: Not a timing, so never host-corrected and without a ``raw.*`` twin.
_UNCORRECTED = ("peak_rss_mb",)

FSYNC_POLICY = "fsync on every journal and ledger append, checkpoint every 16 batches"


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics, printed by ``--trace 1``, with their units."""
    from tracing import LAYER_UNITS

    units = dict(LAYER_UNITS)
    units["gen.lag_ms.p99"] = "ms"
    units["host.probe_ms.p50"] = "ms"
    for name, unit in END_TO_END_UNITS.items():
        if name not in _UNCORRECTED:
            units[f"raw.{name}"] = unit
    return units


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding *path*, from the mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                if str(path).startswith(point) and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def _numpy_version() -> str | None:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["append", "churn", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from inproc import run_inprocess
    from probe import PROBE_REF_MS, HostProbe
    from serving import run_serve
    from workloads import Config

    from repro.kernels import resolve_kernel_name

    config = Config()
    probe = HostProbe()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    trace = bool(args.trace)
    try:
        if args.workload == "serve":
            outcome = run_serve(args.seed, args.seconds, trace, config, workdir, probe)
        else:
            outcome = run_inprocess(args.workload, args.seed, args.seconds, trace, config, workdir, probe)
    except Exception as error:  # noqa: BLE001 - any failure means there is no result to print
        print(f"error: the {args.workload} run failed: {error!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        units = per_layer_units()
        values = dict(outcome.layers)
        values["host.probe_ms.p50"] = probe.median_ms()
        values.update({f"raw.{name}": value for name, value in outcome.raw.items() if name not in _UNCORRECTED})
    else:
        units = END_TO_END_UNITS
        values = outcome.corrected
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": [Path(sys.executable).name, *sys.argv],
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "backend": "vertical",
        "kernel": resolve_kernel_name(None),
        "work_filesystem": _filesystem(workdir),
        "fsync": FSYNC_POLICY,
        "probe_ref_ms": PROBE_REF_MS,
        "probe_ms_p50": probe.median_ms(),
        "probe_samples": len(probe.samples_ms),
        "samples": outcome.samples,
        "raw": outcome.raw,
        "corrected": outcome.corrected,
        "problems": outcome.problems,
        "wall_s": time.monotonic() - began,
    }
    for problem in outcome.problems:
        print(f"correctness gate: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    correct = not outcome.problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
