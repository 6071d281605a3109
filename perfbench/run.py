"""Layered benchmark of the served and embedded eCube stacks.

    python3 perfbench/run.py --workload served_scan --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's closed loop and reports the end-to-end
metrics; ``--trace 1`` replays the same inputs through every layer's public
entry point with spans and reports the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every answer
matched the oracle and every served host drained cleanly.

Run it from the repository root; it imports the package from ``src/``
and keeps its scratch files under ``.perfbench_tmp/`` and its result and
span files under ``.perfbench_out/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _print_table(workload, seed, trace, metrics, result, prov) -> None:
    print(f"# workload={workload} seed={seed} trace={trace}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:10s} n={samples}")
    print(
        f"{'failed_frac':32s} {result.failed / max(1, result.attempted):14.6g} "
        f"{'fraction':10s} n={result.attempted}"
    )
    for problem in result.problems:
        print(f"# FAILED: {problem}")


def run_one(workload: str, args, size) -> tuple:
    """One run: its table on stdout, its record under ``.perfbench_out``."""
    import common
    import workloads

    prov = common.provenance()
    tmp = ROOT / ".perfbench_tmp" / f"{workload}-{args.seed}-{os.getpid()}"
    tracer = common.Tracer() if args.trace else None
    try:
        if args.trace:
            import layers

            result = layers.run_layers(
                workload, args.seed, args.seconds, tmp, size, tracer
            )
        else:
            result = workloads.run_workload(
                workload, args.seed, args.seconds, tmp, size
            )
    finally:
        workloads.cleanup(tmp)
    prov["loadavg_1m_after"] = os.getloadavg()[0]

    metrics = dict(result.metrics)
    for name, (value, _, _) in metrics.items():
        if not math.isfinite(value):
            result.failed += 1
            result.problems.append(f"{name} was not measured")
    _print_table(workload, args.seed, args.trace, metrics, result, prov)

    out = ROOT / ".perfbench_out"
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.dump(out / f"spans-{stem}.json")
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "extra": result.extra,
        "problems": result.problems,
        "metrics": {
            n: {"value": v, "unit": u, "samples": k}
            for n, (v, u, k) in metrics.items()
        },
    }
    text = json.dumps(record, indent=1, default=str)
    (out / f"result-{stem}.json").write_text(text)
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the self-tests")
    args = parser.parse_args(argv)

    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: measured tree must be {ROOT / 'src'}, "
              f"found {repro.__file__}", file=sys.stderr)
        return 2

    import common
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        choices = ", ".join(workloads.WORKLOADS)
        parser.error(f"--workload must be 'all' or one of {choices}")
    size = common.FULL if args.size == "full" else common.SMOKE
    attempted = failed = 0
    summary = {}
    for name in names:
        try:
            result, metrics = run_one(name, args, size)
        except Exception:  # report the crash as a failed run, never as a result
            traceback.print_exc()
            return 1
        attempted += result.attempted
        failed += result.failed
        # a single workload reports bare names; 'all' prefixes each
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, (value, unit, _) in metrics.items():
            summary[prefix + metric] = {
                "value": value if math.isfinite(value) else None, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": int(attempted),
                      "failed": int(failed), "metrics": summary}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
