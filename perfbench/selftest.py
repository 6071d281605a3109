"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. span self-time arithmetic on a synthetic trace;
2. the oracle gate notices a wrong exact answer, a wrong top-k list and an
   interval that misses the exact answer;
3. a smoke-size pass of every workload, untraced and traced, printing the
   tracing overhead (traced minus untraced) of each end-to-end metric;
4. a smoke-size traced layer pass of every workload;
5. the command line: ``run.py --workload all`` at smoke size, traced and
   untraced, ends with the result line the benchmark contract names.

Exits non-zero on the first failed check or on any failed operation.
"""

from __future__ import annotations

import math
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

from common import SMOKE, Oracle, Span, Tracer, make_inputs, self_times  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_self_time_arithmetic() -> None:
    spans = [
        Span(0, "root", 0, 100, None, 7),
        Span(1, "a", 10, 30, 0, 7),  # overlaps b: the union counts once
        Span(2, "b", 20, 50, 0, 7),
        Span(3, "c", 90, 120, 0, 7),  # runs past its parent: clipped
        Span(4, "a.child", 12, 18, 1, 7),  # a grandchild is not root's child
    ]
    own = self_times(spans)
    check(own[0] == 100 - (40 + 10), f"root self time {own[0]} != 50")
    check(own[1] == 20 - 6, f"a self time {own[1]} != 14")
    check(own[2] == 30 and own[4] == 6, "leaf self time != duration")

    tracer = Tracer()
    with tracer.span("outer", request=3):
        with tracer.span("inner"):
            time.sleep(0.001)
    outer, inner = tracer.spans
    check(inner.parent == outer.span_id, "nested span lost its parent")
    check(inner.request == 3, "nested span lost its request id")
    own = self_times(tracer.spans)
    check(own[0] < outer.end_ns - outer.start_ns, "child time not subtracted")
    print("ok  span self-time arithmetic")


def test_oracle_gate() -> None:
    from workloads import Meter, Record, verify

    inputs = make_inputs("served_scan", 5, SMOKE)
    oracle = Oracle(inputs)
    rows = np.arange(20)
    lower, upper = inputs.scan.lower[rows], inputs.scan.upper[rows]
    k = 16
    exact = oracle.sums(lower, upper, np.full(rows.size, k))
    brute = oracle.dense_at(k)
    for i in range(rows.size):
        block = brute[tuple(slice(lo, up + 1) for lo, up in zip(lower[i], upper[i]))]
        check(int(block.sum()) == int(exact[i]), "prefix-sum oracle != dense slice sum")

    wrong = exact.copy()
    wrong[3] += 1
    window = inputs.windows[0]
    good_topk = oracle.topk(window, k)
    bad_topk = good_topk[:-1]
    cases = [
        (Record("sum", lower, upper, k, list(exact)), 0),
        (Record("sum", lower, upper, k, list(wrong)), 1),
        (Record("approx", lower, upper, k, [(v, v - 1, v + 1) for v in exact]), 0),
        (Record("approx", lower, upper, k, [(v, v + 1, v + 2) for v in exact]), 1),
        (Record("topk", None, None, k, good_topk, window), 0),
        (Record("topk", None, None, k, bad_topk, window), 1),
    ]
    for record, failures in cases:
        meter = Meter()
        meter.records.append(record)
        verify(meter, oracle)
        check(meter.failed == failures,
              f"{record.kind} record: {meter.failed} failures, want {failures}")
    print("ok  oracle gate")


def test_smoke_workloads(tmp: Path) -> None:
    from workloads import WORKLOADS, run_workload

    for workload in WORKLOADS:
        plain = run_workload(workload, 3, 1.0, tmp / workload / "plain", SMOKE)
        traced = run_workload(workload, 3, 1.0, tmp / workload / "traced", SMOKE,
                              tracer=Tracer())
        for result in (plain, traced):
            check(result.failed == 0, f"{workload}: {result.problems}")
            for name, (value, _, _) in result.metrics.items():
                check(math.isfinite(value) and value > 0,
                      f"{workload}: {name} = {value}")
        print(f"ok  {workload} smoke; tracing overhead (traced - untraced):")
        for name, (value, unit, _) in plain.metrics.items():
            delta = traced.metrics[name][0] - value
            print(f"      {name:24s} {delta:+12.4g} {unit}")


def test_smoke_layers(tmp: Path) -> None:
    from layers import run_layers
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        result = run_layers(workload, 3, 1.0, tmp / workload / "layers", SMOKE,
                            Tracer())
        check(result.failed == 0, f"{workload} layers: {result.problems}")
        missing = [n for n, (v, _, _) in result.metrics.items() if not math.isfinite(v)]
        check(not missing, f"{workload} layers: unmeasured {missing}")
        print(f"ok  {workload} layer pass ({len(result.metrics)} metrics)")


def test_command_line() -> None:
    import json
    import subprocess

    for trace in ("0", "1"):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size",
             "smoke", "--seconds", "1", "--trace", trace],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        check(out.returncode == 0, f"run.py --trace {trace} exited {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"result line keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"result line {result['correct']} {result['failed']}")
        check(all(set(m) == {"value", "unit"} for m in result["metrics"].values()),
              "a metric lacks its value or unit")
    print("ok  command line and result line")


def main() -> int:
    from repro.sharding import leaked_segments

    tmp = ROOT / ".perfbench_tmp" / "selftest"
    start = time.perf_counter()
    try:
        test_self_time_arithmetic()
        test_oracle_gate()
        test_smoke_workloads(tmp)
        test_smoke_layers(tmp)
        test_command_line()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check(not leaked_segments(), "shared-memory segments survived the self-tests")
    print(f"selftest passed in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
