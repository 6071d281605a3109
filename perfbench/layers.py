"""The traced run: one workload's inputs replayed through every layer.

Each layer is built in this process (the wire layer in a host child) from
the same set-up history, then asked the same requests: one exact batch,
the same live-edge chunks in the same order, the same top-k windows.  A
request keeps its id at every layer, so its spans line up across layers.

Two ways to get a layer's own cost:

* ``ranking`` and ``retention`` take a front object, so the front is
  wrapped and the calls they make into it become child spans; self time
  is the span minus its children.
* every other layer is replayed at the layer below it, and self time is
  the difference of the medians, with ``<layer>.vs_below`` their ratio.

Below-chains (reads):  ref <- ecube <- concurrent;  ecube <- sharding <- server.
Below-chains (writes): ecube <- durability <- concurrent <- sharding <- server.
The shard readers gather epochs with the kernel's evaluator rather than
through ``SnapshotCube``, so the kernel is the layer below sharded reads.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from common import (
    TIERS,
    Inputs,
    Oracle,
    Size,
    Tracer,
    demote_horizons,
    disk_bytes,
    make_inputs,
    median,
    self_times,
)
from stacks import Served
from workloads import Result

#: live-edge chunks replayed at every write layer
UPDATE_REPS = 20
#: single-box round trips per wire rep
POINTS_PER_REP = 50
MIN_REPS = 3
LOAD_CHUNK = 4096
LADDER_BATCH = 500


class TracedFront:
    """Forwards everything to ``front``; ``query_many`` becomes a child span."""

    def __init__(self, front, tracer: Tracer, name: str) -> None:
        self._front, self._tracer, self._name = front, tracer, name

    def __getattr__(self, attr):
        return getattr(self._front, attr)

    def query_many(self, boxes, mode: str = "fast"):
        with self._tracer.span(self._name):
            return self._front.query_many(boxes, mode=mode)


class CountingSocket:
    """Counts the bytes a client socket sends and receives."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.bytes = 0

    def sendall(self, data) -> None:
        self.bytes += len(data)
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self.bytes += len(data)
        return data

    def close(self) -> None:
        self._sock.close()


class Ladder:
    """Runs the layers in order and turns their spans into metrics."""

    def __init__(self, inputs: Inputs, seconds: float, tmp: Path,
                 tracer: Tracer) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.tmp = tmp
        self.oracle = Oracle(inputs)
        #: query reps per layer stop after this share of the run, or MIN_REPS
        self.budget = seconds / 10
        # 500 boxes of the workload's own pool: the tiered path decodes
        # tiles at several milliseconds a box, so 2,000 would dominate the run
        rows = np.arange(min(len(inputs.scan), LADDER_BATCH))
        self.lower, self.upper = inputs.scan.lower[rows], inputs.scan.upper[rows]
        self.boxes = inputs.scan.boxes(rows)
        self.pairs = inputs.scan.pairs(rows)
        coords, values = inputs.live()
        # 60-update chunks span several slices, so late arrivals reach G_d
        step = inputs.size.embedded_chunk
        self.chunks = [
            (coords[i : i + step], values[i : i + step])
            for i in range(0, min(values.shape[0], step * UPDATE_REPS), step)
        ]
        self.applied = 0
        self.attempted = 0
        self.failed: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = {}
        self.problems: list[str] = []

    # -- bookkeeping ------------------------------------------------------------

    def call(self, layer: str, op: str, request, fn, *args):
        self.attempted += 1
        try:
            with self.tracer.span(f"{layer}.{op}", request):
                return fn(*args)
        except Exception as exc:  # a failing layer is counted, the ladder goes on
            self.fail(layer, f"{layer}.{op}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, layer: str, why: str) -> None:
        self.failed[layer] += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def want(self) -> np.ndarray:
        ks = np.full(len(self.lower), self.applied)
        return self.oracle.sums(self.lower, self.upper, ks)

    def check_sums(self, layer: str, answers) -> None:
        if answers is None:
            return
        if not np.array_equal(np.asarray(answers, dtype=np.int64), self.want()):
            why = f"{layer}: wrong answers after {self.applied} live updates"
            self.fail(layer, why)

    def repeat(self, layer: str, op: str, fn, check=None) -> None:
        """Time ``fn()`` until the budget is spent; check every answer."""
        check = check or (lambda answers: self.check_sums(layer, answers))
        start = time.perf_counter()
        rep = 0
        while rep < MIN_REPS or (time.perf_counter() - start < self.budget
                                 and rep < 50):
            check(self.call(layer, op, rep, fn))
            rep += 1

    def apply_chunks(self, layer: str, fn) -> None:
        """Apply the live chunks in order (request id = chunk index)."""
        for i, (points, deltas) in enumerate(self.chunks):
            self.call(layer, "update", i, fn, points, deltas)
        self.applied = sum(len(v) for _, v in self.chunks)

    def durations(self, name: str) -> list[float]:
        spans = self.tracer.spans
        return [(s.end_ns - s.start_ns) / 1e6 for s in spans if s.name == name]

    def self_ms(self, name: str) -> list[float]:
        own = self_times(self.tracer.spans)
        return [own[s.span_id] / 1e6 for s in self.tracer.spans if s.name == name]

    def med(self, name: str) -> float:
        return median(self.durations(name))

    # -- layers -----------------------------------------------------------------

    def load(self, fn) -> None:
        """Load the set-up history into a fresh layer (untimed)."""
        self.applied = 0
        n = self.inputs.base_len
        for i in range(0, n, LOAD_CHUNK):
            stop = min(n, i + LOAD_CHUNK)
            fn(self.inputs.coords[i:stop], self.inputs.values[i:stop])

    def buffered_front(self):
        from repro import BufferedEvolvingDataCube

        return BufferedEvolvingDataCube(
            self.inputs.slice_shape, num_times=self.inputs.num_times
        )

    def durable_cube(self, name: str):
        from repro import DurableCube

        return DurableCube(self.inputs.slice_shape, self.tmp / name, buffered=True,
                           fsync="batch", num_times=self.inputs.num_times)

    def ref(self) -> None:
        self.repeat("ref", "query",
                    lambda: self.oracle.base_sums(self.lower, self.upper))

    def ecube_gd_ranking(self) -> None:
        from repro import TopKEngine

        front = self.buffered_front()
        self.load(front.update_many)
        front.query_many(self.boxes)  # lazy PS conversion is paid once, untimed
        self.repeat("ecube", "query", lambda: front.query_many(self.boxes))
        cube = front.cube
        self.counts["ecube.incomplete_slices"] = cube.incomplete_historic_instances()
        self.counts["ecube.resident_bytes"] = front.resident_slice_bytes()

        traced = TracedFront(front, self.tracer, "ranking.front")
        engine = TopKEngine(traced, nonnegative=True)
        materialized = cells = pruned = 0
        for i, window in enumerate(self.inputs.windows):
            got = self.call("ranking", "topk", i, engine.topk_many, [window])
            if got is None:
                continue
            stats = engine.last_stats[0]
            materialized += stats.materialized
            cells += stats.cells
            pruned += stats.pruned_cells
            ranked = [(tuple(int(c) for c in cell), int(v)) for cell, v in got[0]]
            if ranked != self.oracle.topk(window, 0):
                self.fail("ranking", f"ranking: wrong top-k for {window}")
        windows = max(1, len(self.inputs.windows))
        self.counts["ranking.materialized_cells"] = materialized / windows
        self.counts["ranking.pruned_frac"] = pruned / max(1, cells)

        self.apply_chunks("ecube", front.update_many)
        self.counts["gd.buffered_updates"] = front.buffered_updates
        self.call("gd", "drain", 0, front.drain, None)
        self.check_sums("gd", front.query_many(self.boxes))

    def durability(self) -> None:
        from repro import DurableCube

        cube = self.durable_cube("durable")
        self.load(cube.update_many)
        for rep in range(MIN_REPS):
            self.call("durability", "checkpoint", rep, cube.checkpoint)
        self.apply_chunks("durability", cube.update_many)
        cube.close()
        self.counts["durability.wal_bytes"] = disk_bytes(cube.directory / "wal")
        for rep in range(MIN_REPS):
            recovered = self.call("durability", "recover", rep,
                                  DurableCube.recover, cube.directory)
            if recovered is not None:
                self.check_sums("durability", recovered.query_many(self.boxes))
                recovered.close()

    def concurrent(self) -> None:
        from repro import SnapshotCube

        durable = self.durable_cube("snapshot")
        snap = SnapshotCube(durable)
        try:
            self.load(snap.update_many)
            snap.query_many(self.boxes)
            self.repeat("concurrent", "snapshot_query",
                        lambda: snap.query_many(self.boxes))
            with snap.snapshot() as view:
                self.repeat("concurrent", "view_query",
                            lambda: view.query_many(self.boxes))
            self.apply_chunks("concurrent", snap.update_many)
            self.check_sums("concurrent", snap.query_many(self.boxes))
        finally:
            snap.close()
            durable.close()

    def sharding(self) -> None:
        from repro.sharding import ShardedCube, leaked_segments

        cube = ShardedCube(self.inputs.slice_shape, shards=2, readers=2,
                           durable_dir=self.tmp / "sharded",
                           num_times=self.inputs.num_times)
        try:
            self.load(cube.update_many)
            cube.query_many(self.boxes)
            self.repeat("sharding", "query", lambda: cube.query_many(self.boxes))
            self.apply_chunks("sharding", cube.update_many)
            self.check_sums("sharding", cube.query_many(self.boxes))
        finally:
            cube.close()
        leaked = len(leaked_segments())
        self.counts["sharding.leaked_segments"] = leaked
        if leaked:
            self.fail("sharding", f"sharding: {leaked} shm segments survive close")

    def server(self) -> None:
        served = Served(self.inputs, self.tmp / "served", tiered=False)
        served.setup()  # loads the same history in the host
        self.applied = 0
        try:
            client = served.clients[0]
            counter = client._sock = CountingSocket(client._sock)
            client.query_many(self.pairs)
            before = counter.bytes
            self.repeat("server", "query", lambda: client.query_many(self.pairs))
            boxes = len(self.durations("server.query")) * len(self.pairs)
            self.counts["server.bytes_per_box"] = (counter.bytes - before) / boxes
            points = self.inputs.points
            for rep in range(MIN_REPS):
                for i in range(POINTS_PER_REP):
                    row = (rep * POINTS_PER_REP + i) % len(points)
                    got = self.call("server", "point", rep, client.query,
                                    points.pairs([row])[0])
                    want = self.oracle.base_sums(points.lower[[row]],
                                                 points.upper[[row]])
                    if got is None or got != int(want[0]):
                        self.fail("server", "server: wrong point answer")
            self.apply_chunks(
                "server", lambda p, d: client.update_many(p.tolist(), d.tolist())
            )
            self.check_sums("server", client.query_many(self.pairs))
        finally:
            for problem in served.stop():
                self.fail("server", f"server: {problem}")
                if "shm" in problem:
                    self.counts["sharding.leaked_segments"] += 1

    def retention(self) -> None:
        from repro import TieredCube

        traced = TracedFront(self.buffered_front(), self.tracer, "retention.front")
        tiered = TieredCube(traced, TIERS, self.tmp / "tiles")
        self.load(tiered.update_many)
        horizons = demote_horizons(self.inputs.coords, self.inputs.base_len)
        for i, horizon in enumerate(horizons):
            self.call("retention", "demote", i, tiered.demote_before, horizon)
        self.counts["retention.resident_bytes"] = tiered.resident_slice_bytes()
        self.counts["retention.tile_bytes"] = tiered.tiles.disk_bytes()
        self.repeat("retention", "query", lambda: tiered.query_many(self.boxes))
        want = self.want()

        def contains(got) -> None:
            if got is None:
                return
            bounds = np.asarray([(e.lo, e.hi) for e in got], dtype=np.int64)
            if not np.all((bounds[:, 0] <= want) & (want <= bounds[:, 1])):
                self.fail("retention", "retention: an estimate misses the answer")

        self.repeat("retention", "approx",
                    lambda: tiered.query_many_approx(self.boxes), contains)

    # -- metrics ----------------------------------------------------------------

    def metrics(self) -> dict:
        m = self.med
        ms, ratio = "ms", "ratio"

        def own(name: str) -> float:
            return median(self.self_ms(name))

        def below(name: str, base: str) -> tuple:
            return m(name) - m(base), ms

        out = {
            "ref.query_ms": (m("ref.query"), ms),
            "ecube.query_ms": (m("ecube.query"), ms),
            "ecube.update_ms": (m("ecube.update"), ms),
            "ecube.vs_ref": (m("ecube.query") / m("ref.query"), ratio),
            "gd.drain_ms": (m("gd.drain"), ms),
            "durability.update_ms": below("durability.update", "ecube.update"),
            "durability.checkpoint_ms": (m("durability.checkpoint"), ms),
            "durability.recover_ms": (m("durability.recover"), ms),
            "durability.vs_below": (m("durability.update") / m("ecube.update"), ratio),
            "concurrent.snapshot_query_ms": below("concurrent.snapshot_query",
                                                  "ecube.query"),
            "concurrent.view_query_ms": below("concurrent.view_query", "ecube.query"),
            "concurrent.update_ms": below("concurrent.update", "durability.update"),
            "concurrent.vs_below": (m("concurrent.snapshot_query")
                                    / m("ecube.query"), ratio),
            "sharding.query_ms": below("sharding.query", "ecube.query"),
            "sharding.update_ms": below("sharding.update", "concurrent.update"),
            "sharding.vs_below": (m("sharding.query") / m("ecube.query"), ratio),
            "server.query_ms": below("server.query", "sharding.query"),
            "server.point_rtt_ms": (m("server.point"), ms),
            "server.update_ms": below("server.update", "sharding.update"),
            "server.vs_below": (m("server.query") / m("sharding.query"), ratio),
            "retention.query_ms": (own("retention.query"), ms),
            "retention.approx_ms": (own("retention.approx"), ms),
            "retention.demote_ms": (sum(self.durations("retention.demote")), ms),
            "ranking.topk_ms": (own("ranking.topk"), ms),
        }
        units = {"resident_bytes": "bytes", "tile_bytes": "bytes",
                 "wal_bytes": "bytes", "bytes_per_box": "B/box",
                 "pruned_frac": "fraction"}
        for name, value in self.counts.items():
            out[name] = (float(value), units.get(name.split(".")[1], "count"))
        for layer in ("ref", "ecube", "gd", "durability", "concurrent", "sharding",
                      "server", "retention", "ranking"):
            out[f"{layer}.failed"] = (float(self.failed[layer]), "count")
        samples = defaultdict(int)
        for s in self.tracer.spans:
            samples[s.name.split(".")[0]] += 1
        return {
            n: (v, u, samples[n.split(".")[0]]) for n, (v, u) in sorted(out.items())
        }


def run_layers(workload: str, seed: int, seconds: float, tmp: Path, size: Size,
               tracer: Tracer) -> Result:
    """Replay one workload's inputs through every layer; per-layer metrics."""
    inputs = make_inputs(workload, seed, size)
    if inputs.base_len == 0:
        # the embedded stream starts empty; replay its tail as the live edge
        history = int(0.9 * inputs.values.shape[0])
        inputs = dataclasses.replace(inputs, base_len=history)
    tmp.mkdir(parents=True, exist_ok=True)
    ladder = Ladder(inputs, seconds, tmp, tracer)
    for step in (ladder.ref, ladder.ecube_gd_ranking, ladder.durability,
                 ladder.concurrent, ladder.sharding, ladder.server, ladder.retention):
        step()
    failed = sum(ladder.failed.values())
    return Result(ladder.metrics(), ladder.attempted, failed, ladder.problems,
                  {"spans": len(tracer.spans)})
