"""Steadiness check: is each end-to-end metric repeatable within its bound?

Usage (from the root of a checkout)::

    python3 fupbench/steady.py --runs 10 [--workloads append churn serve]
                               [--sets 2] [--first-seed 1] [--out FILE]

Runs ``--runs`` plain runs (``--trace 0``) per workload, one seed each,
interleaving the workloads (and, with ``--sets 2``, two sets over the same
seeds) so that slow drift of the host hits every series alike.  For each
workload and end-to-end metric it prints the median, the quartiles and the
spread ``(q3 - q1) / median``, flagging a spread above the metric's bound in
``BENCHMARK.json`` and, with two sets, a second
median worse than the first by more than the bound.  ``--out`` also writes
every run's result as JSON.  Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    provenance = json.loads(lines[-2])["provenance"]
    values["wall_s"] = provenance["wall_s"]
    values["probe_ms_p50"] = provenance["probe_ms_p50"]
    values.update({f"raw.{name}": value for name, value in provenance["raw"].items()})
    return values


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for index in range(args.runs):
        seed = args.first_seed + index
        for series in range(args.sets):
            for workload in args.workloads:
                values = _run(workload, seed, args.seconds)
                results[workload][series].append(values)
                print(f"run {index + 1}/{args.runs} set {series + 1} {workload} seed {seed}: "
                      f"{values['wall_s']:.1f} s", file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))

    flagged = False
    for workload in args.workloads:
        print(f"\n{workload} ({args.runs} runs x {args.sets} set(s), {args.seconds} s each)")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for series in results[workload]:
                values = [run[name] for run in series]
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                spread = (q3 - q1) / median
                mark = ""
                if spread > bound:
                    mark, flagged = "  WIDER THAN BOUND", True
                elif spread > bound / 3:
                    mark = "  above bound/3"
                print(f"  {name:<18}{median:>12.4g}{q1:>12.4g}{q3:>12.4g}{spread:>9.3f}{bound:>8.2f}{mark}")
            if len(medians) == 2:
                drift = _worse_by(medians[0], medians[1], metric["better"])
                mark = ""
                if drift > bound:
                    mark, flagged = "  DRIFT BEYOND BOUND", True
                print(f"  {'':<18}second median worse by {drift:+.3f}{mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
