"""The three end-to-end workloads: closed loops from one load generator.

A workload is a stack plus a plan: stages of interleaved phases, each phase
given a share of the measured window.  Every call is timed on its own; every answer
is kept and checked against the oracle after the window, so checking costs
no measured time.  A failed call is counted, never retried.
"""

from __future__ import annotations

import shutil
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import FULL, Inputs, Oracle, Size, make_inputs, median, quantile
from stacks import Embedded, Served

#: stages run in order; within a stage the phases interleave, each taking
#: its share of the measured window (see ``Driver.run_stage``).  Reads
#: other than the scan's own live edge run in a stage of their own, so each
#: meets a fixed state instead of a varying amount of lazy conversion.  The
#: embedded single-box reads (a fraction of a millisecond each) also keep
#: clear of its top-k calls, which run for a second each.
#: served_scan spends its time in the wire, router and reader gathers;
#: served_aged in tiles, rollups, estimation and ranking, with its only
#: writes in a last stage after every read; embedded_ingest in the WAL,
#: G_d, epoch publish and the snapshot read path.
PLANS = {
    "served_scan": [{"scan": 0.40},
                    {"point": 0.24, "approx": 0.08, "topk": 0.08},
                    {"ingest": 0.20}],
    "served_aged": [{"scan": 0.35, "approx": 0.25, "topk": 0.20, "point": 0.12},
                    {"ingest": 0.08}],
    "embedded_ingest": [{"stream": 0.60}, {"point": 0.40},
                        {"approx": 0.10, "topk": 0.35}],
}
WORKLOADS = tuple(PLANS)

#: embedded chunks between checkpoints; the chunks after the last one are
#: the WAL tail that recovery replays
CHECKPOINT_EVERY = 100
#: the embedded stream is fixed work: its stage ends when the stream does,
#: or after this many times its nominal share of the window
STREAM_CAP = 4
#: single-box queries per connection in one point burst
POINT_BURST = 10

FAILED = object()


@dataclass
class Record:
    """One answered call, checked against the oracle after the window."""

    kind: str  #: "sum", "approx" or "topk"
    lower: np.ndarray | None
    upper: np.ndarray | None
    k_live: int  #: live updates acknowledged before the call
    answer: object
    window: tuple | None = None


@dataclass
class Meter:
    """Per-op call times, work units, attempts, failures and answers."""

    tracer: object = None
    times: dict = field(default_factory=lambda: defaultdict(list))
    units: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    records: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def call(self, op: str, units: int, fn, *args, key=0, **kwargs):
        """Time one call; ``key`` names the request (pool entry) it replays."""
        span = self.tracer.span(f"e2e.{op}") if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception as exc:  # a failed op is counted, never retried
            self.fail(f"{op}: {type(exc).__name__}: {exc}")
            return FAILED
        elapsed = time.perf_counter() - start
        with self.lock:
            self.attempted += 1
            self.times[op].append(elapsed)
            self.units[op].append((key, units))
        return out

    def fail(self, why: str) -> None:
        with self.lock:
            self.attempted += 1
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(why)

    def rate(self, op: str) -> float:
        """Work units per second of one pass over the op's distinct requests.

        Each request's time is the median of its repeats, so a slow spell
        of the host moves the figure only if it hits most repeats.
        """
        per_key: dict = defaultdict(list)
        units: dict = {}
        for (key, n), t in zip(self.units[op], self.times[op]):
            per_key[key].append(t)
            units[key] = n
        spent = sum(median(ts) for ts in per_key.values())
        return sum(units.values()) / spent if spent else float("nan")

    def tail(self, op: str, q: float, groups: int = 8) -> float:
        """The median of the ``q``-quantiles of consecutive stretches, in ms."""
        samples = self.times[op]
        size = len(samples) // groups
        if size == 0:
            return float("nan")
        return 1e3 * median([quantile(samples[g * size : (g + 1) * size], q)
                             for g in range(groups)])


class Driver:
    """Feeds one stack from one ``Inputs`` and records what came back."""

    def __init__(self, inputs: Inputs, stack, meter: Meter) -> None:
        self.inputs = inputs
        self.stack = stack
        self.meter = meter
        self.embedded = isinstance(stack, Embedded)
        size = inputs.size
        convert = "boxes" if self.embedded else "pairs"
        self.scan = self._batches(inputs.scan, inputs.batch, convert)
        self.approx_batches = self._batches(inputs.approx, size.approx_batch, convert)
        self.points = [
            (np.asarray([i]), getattr(inputs.points, convert)([i]))
            for i in range(len(inputs.points))
        ]
        coords, values = inputs.live()
        step = size.embedded_chunk if self.embedded else size.chunk
        self.chunks = []
        for start in range(0, values.shape[0], step):
            c, v = coords[start : start + step], values[start : start + step]
            # the wire client takes plain lists; building them is not timed
            self.chunks.append((c, v) if self.embedded else (c.tolist(), v.tolist()))
        self.next_chunk = 0
        self.applied = 0
        self._counters: dict[str, int] = {}

    @staticmethod
    def _batches(pool, batch: int, convert: str) -> list:
        out = []
        for start in range(0, len(pool), batch):
            rows = np.arange(start, min(start + batch, len(pool)))
            out.append((rows, getattr(pool, convert)(rows)))
        return out

    # -- one call each ----------------------------------------------------------

    def read(self, op: str, pool, rows, payload, fn, **kwargs) -> None:
        k = self.applied
        out = self.meter.call(op, len(rows), fn, payload, key=int(rows[0]), **kwargs)
        if out is FAILED:
            return
        answer = [out] if op == "point" else out
        with self.meter.lock:
            self.meter.records.append(
                Record("sum", pool.lower[rows], pool.upper[rows], k, answer)
            )

    def ingest_one(self) -> bool:
        if self.next_chunk >= len(self.chunks):
            return False
        points, deltas = self.chunks[self.next_chunk]
        self.next_chunk += 1
        out = self.meter.call("ingest", len(deltas), self.stack.update_many,
                              points, deltas)
        if out is not FAILED:
            self.applied += len(deltas)
        return True

    def approx(self, i: int) -> None:
        rows, payload = self.approx_batches[i % len(self.approx_batches)]
        k = self.applied
        out = self.meter.call("approx", len(rows), self.stack.approx, payload,
                              key=i % len(self.approx_batches))
        if out is not FAILED:
            pool = self.inputs.approx
            self.meter.records.append(
                Record("approx", pool.lower[rows], pool.upper[rows], k, out)
            )

    def topk(self, i: int) -> None:
        window = self.inputs.windows[i % len(self.inputs.windows)]
        out = self.meter.call("topk", 1, self.stack.topk, window,
                              key=i % len(self.inputs.windows))
        if out is not FAILED:
            self.meter.records.append(
                Record("topk", None, None, self.applied, out, window)
            )

    # -- phases: one unit of work per call --------------------------------------

    def run_stage(self, shares: dict, seconds: float) -> None:
        """Interleave the stage's phases until its share of the window is used.

        Each step runs one unit of the phase furthest below its share of the
        time spent so far, so a slow spell of the host lands on every metric
        a little instead of on one phase entirely.  A phase with no work
        left (the live edge ran out) drops out; the stream stage runs until
        its stream is done.
        """
        budget = seconds * sum(shares.values())
        end = time.perf_counter() + budget * (STREAM_CAP if "stream" in shares else 1)
        spent = {name: 0.0 for name in shares}
        while spent and time.perf_counter() < end:
            name = min(spent, key=lambda n: spent[n] / shares[n])
            start = time.perf_counter()
            if getattr(self, f"_unit_{name}")() is False:
                del spent[name]
                continue
            spent[name] += time.perf_counter() - start

    def _unit_scan(self) -> None:
        rows, batch = self.scan[self.counter("scan") % len(self.scan)]
        self.read("query", self.inputs.scan, rows, batch, self.stack.query_many)
        # served_scan turns reader epochs over with one small live-edge
        # write per batch; served_aged stays read-only here
        if self.inputs.workload == "served_scan":
            self.ingest_one()

    def _unit_stream(self) -> bool:
        if not self.ingest_one():
            return False
        n = self.counter("stream")
        rows, batch = self.scan[n % len(self.scan)]
        self.read("query", self.inputs.scan, rows, batch, self.stack.query_many)
        if (n + 1) % CHECKPOINT_EVERY == 0:
            self.meter.call("checkpoint", 1, self.stack.checkpoint)
        return True

    def _unit_ingest(self) -> bool:
        return self.ingest_one()

    def _unit_point(self) -> None:
        if self.embedded:
            self.stack.pin()  # a fresh epoch: reads see every acked write
        first = self.counter("point") * POINT_BURST * self.stack.connections

        def burst(conn: int) -> None:
            for j in range(POINT_BURST):
                i = first + j * self.stack.connections + conn
                rows, payload = self.points[i % len(self.points)]
                self.read("point", self.inputs.points, rows, payload[0],
                          self.stack.point, conn=conn)

        threads = [threading.Thread(target=burst, args=(c,))
                   for c in range(1, self.stack.connections)]
        for t in threads:
            t.start()
        burst(0)
        for t in threads:
            t.join()

    def _unit_approx(self) -> None:
        self.approx(self.counter("approx"))

    def _unit_topk(self) -> None:
        if self.embedded:
            self.stack.pin()
        self.topk(self.counter("topk"))

    def counter(self, name: str) -> int:
        """How many units of ``name`` ran before this one."""
        n = self._counters.get(name, 0)
        self._counters[name] = n + 1
        return n

    def warm(self) -> None:
        """One untimed pass over every read the window repeats.

        The first kernel batch pays lazy PS conversion (several times a warm
        batch), which users pay once per slice and not on every query.
        """
        if not self.embedded:
            for rows, batch in self.scan:
                self.read("query", self.inputs.scan, rows, batch, self.stack.query_many)
        self.approx(0)
        for name in ("query", "approx"):
            self.meter.times[name].clear()
            self.meter.units[name].clear()


def verify(meter: Meter, oracle: Oracle) -> None:
    """Check every kept answer; count each wrong call as a failure."""
    sums = [r for r in meter.records if r.kind in ("sum", "approx")]
    if sums:
        lower = np.concatenate([r.lower for r in sums])
        upper = np.concatenate([r.upper for r in sums])
        ks = np.concatenate([np.full(len(r.lower), r.k_live) for r in sums])
        expected = oracle.sums(lower, upper, ks)
        at = 0
        for r in sums:
            want = expected[at : at + len(r.lower)]
            at += len(r.lower)
            if len(r.answer) != len(want):
                ok = False
            elif r.kind == "sum":
                ok = bool(np.array_equal(np.asarray(r.answer, dtype=np.int64), want))
            else:
                bounds = np.asarray([(e[1], e[2]) for e in r.answer], dtype=np.int64)
                ok = bool(np.all((bounds[:, 0] <= want) & (want <= bounds[:, 1])))
            if not ok:
                meter.failed += 1
                meter.problems.append(
                    f"wrong {r.kind} answer after {r.k_live} live updates"
                )
    for r in meter.records:
        if r.kind == "topk":
            got = [(tuple(int(c) for c in cell), int(v)) for cell, v in r.answer]
            if got != oracle.topk(r.window, r.k_live):
                meter.failed += 1
                meter.problems.append(f"wrong top-k for window {r.window}")
    meter.records.clear()


@dataclass
class Result:
    metrics: dict  #: name -> (value, unit, samples)
    attempted: int
    failed: int
    problems: list
    extra: dict


def _make_stack(inputs: Inputs, workdir: Path):
    if inputs.workload == "embedded_ingest":
        return Embedded(inputs, workdir)
    return Served(inputs, workdir, tiered=inputs.workload == "served_aged")


def run_workload(workload: str, seed: int, seconds: float, tmp: Path,
                 size: Size = FULL, tracer=None) -> Result:
    """Set up, run the plan for ``seconds``, tear down, recover, check."""
    meter = Meter(tracer)
    problems: list[str] = []
    setups = []
    stack = None
    try:
        for i in range(size.setups):
            if stack is not None:
                problems += stack.stop()
            start = time.perf_counter()
            inputs = make_inputs(workload, seed, size)
            stack = _make_stack(inputs, tmp / f"stack-{i}")
            stack.setup()
            setups.append(time.perf_counter() - start)
            disk_setup = stack.disk_bytes()
        clock = {"setup_s": sum(setups)}
        tick = time.perf_counter()
        oracle = Oracle(inputs)
        driver = Driver(inputs, stack, meter)
        driver.warm()
        start = time.perf_counter()
        clock["warm_s"] = start - tick
        for stage in PLANS[workload]:
            driver.run_stage(stage, seconds)
        tick = time.perf_counter()
        clock["window_s"] = tick - start
        rss_kb = stack.peak_rss_kb()
        disk = stack.disk_bytes()
        if driver.embedded:
            stack.unpin()
        problems += stack.stop()
        recovers = []
        rows, payload = driver.scan[0]
        if driver.embedded:
            rows = np.arange(len(inputs.scan))
            payload = inputs.scan.boxes(rows)
            probe = lambda s: s.recovered_query(payload)  # noqa: E731
        else:
            probe = lambda s: s.query_many(payload)  # noqa: E731
        began = time.perf_counter()
        attempts = 0
        while (attempts < size.recovers
               or time.perf_counter() - began < size.recover_seconds):
            attempts += 1
            out = meter.call("recover", 1, stack.recover, probe)
            problems += stack.stop()
            if out is FAILED:
                continue
            recovers.append(out[0])
            meter.records.append(
                Record("sum", inputs.scan.lower[rows], inputs.scan.upper[rows],
                       driver.applied, out[1])
            )
        stack = None
        clock["recover_s"] = time.perf_counter() - tick
        tick = time.perf_counter()
        verify(meter, oracle)
        clock["verify_s"] = time.perf_counter() - tick
    finally:
        if stack is not None:
            problems += stack.stop()
    # what set-up left on disk per loaded update, plus what the run added
    # per live update: neither depends on how far the live edge got
    disk_per_update = disk_setup / inputs.base_len if inputs.base_len else 0.0
    if driver.applied:
        disk_per_update += (disk - disk_setup) / driver.applied
    t = meter.times
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "query_boxes_per_s": (meter.rate("query"), "boxes/s", len(t["query"])),
        "point_query_ms_p50": (1e3 * quantile(t["point"], 0.5), "ms", len(t["point"])),
        "point_query_ms_p99": (meter.tail("point", 0.99), "ms", len(t["point"])),
        "ingest_updates_per_s": (meter.rate("ingest"), "updates/s", len(t["ingest"])),
        "ingest_chunk_ms_p99": (meter.tail("ingest", 0.99), "ms", len(t["ingest"])),
        "approx_boxes_per_s": (meter.rate("approx"), "boxes/s", len(t["approx"])),
        "topk_queries_per_s": (meter.rate("topk"), "queries/s", len(t["topk"])),
        "recover_s": (median(recovers), "s", len(recovers)),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
        "disk_bytes_per_update": (disk_per_update, "B/update", 1),
    }
    for message in problems:
        meter.fail(message)
    extra = {
        "clock": clock,
        "live_updates_applied": driver.applied,
        "live_updates_available": int(inputs.values.shape[0] - inputs.base_len),
        "failed_frac": meter.failed / max(1, meter.attempted),
    }
    return Result(metrics, meter.attempted, meter.failed, meter.problems, extra)


def cleanup(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
