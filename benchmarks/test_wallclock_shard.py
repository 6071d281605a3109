"""Sharded process-parallel serving vs the single-process snapshot tier.

One batch of ~2000 range queries over the weather4 stream is answered
five ways: by a single-process :class:`SnapshotCube` (the PR-5 serving
tier, the ``snapshot-1proc`` baseline), by the bare kernel batch path
(``BufferedEvolvingDataCube.query_many``, the informational
``kernel-1proc`` row) and by a 2-shard :class:`ShardedCube` with 2, 4
and 8 reader processes attaching the workers' shared-memory epochs.
Every answer vector is asserted bit-identical to the baseline -- the
differential is part of the benchmark, not a separate test -- and rows
land in ``BENCH_shard.json`` with the host's core count, so the
trajectory records what hardware the numbers mean.  Each ``procs-N``
row carries its speedup over both single-process rows; only the
snapshot one is gated.

The 1.5x floor for ``procs-4`` is enforced here only on hosts with at
least 4 cores (CI's guard step re-checks the recorded row); on a
single-core box process parallelism cannot beat one process and the
floor would only measure the scheduler.
"""

from __future__ import annotations

import os
import time

import pytest

from _record import BENCH_SHARD_FILE, record
from repro.concurrent import SnapshotCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.sharding import ShardedCube, leaked_segments
from repro.workloads.queries import uni_queries

NUM_QUERIES = 2000
SHARDS = 2
READER_COUNTS = (2, 4, 8)
FLOOR = 1.5


@pytest.fixture(scope="module")
def workload(bench_weather4):
    boxes = list(uni_queries(bench_weather4.shape, NUM_QUERIES, seed=91))
    return bench_weather4, boxes


def _timed_query_many(cube, boxes) -> tuple[list[int], float]:
    cube.query_many(boxes[:50])  # warm the engines / block caches
    start = time.perf_counter()
    answers = cube.query_many(boxes)
    return list(answers), time.perf_counter() - start


def test_sharded_serving_throughput(workload):
    dataset, boxes = workload
    cores = os.cpu_count() or 1

    snap = SnapshotCube(BufferedEvolvingDataCube(dataset.slice_shape))
    snap.update_many(dataset.coords, dataset.values)
    baseline, baseline_wall = _timed_query_many(snap, boxes)
    snap.close()
    record(
        "weather4_sharded_serving", "snapshot-1proc", baseline_wall, 0,
        path=BENCH_SHARD_FILE, dataset=dataset.name, queries=NUM_QUERIES,
        cores=cores,
        queries_per_s=int(NUM_QUERIES / max(baseline_wall, 1e-9)),
    )

    kernel = BufferedEvolvingDataCube(dataset.slice_shape)
    kernel.update_many(dataset.coords, dataset.values)
    answers, kernel_wall = _timed_query_many(kernel, boxes)
    assert answers == baseline
    record(
        "weather4_sharded_serving", "kernel-1proc", kernel_wall, 0,
        path=BENCH_SHARD_FILE, dataset=dataset.name, queries=NUM_QUERIES,
        cores=cores,
        queries_per_s=int(NUM_QUERIES / max(kernel_wall, 1e-9)),
    )

    for readers in READER_COUNTS:
        cube = ShardedCube(
            dataset.slice_shape,
            shards=SHARDS,
            processes=True,
            readers=readers,
            timeout=300.0,
        )
        try:
            cube.update_many(dataset.coords, dataset.values)
            answers, wall = _timed_query_many(cube, boxes)
        finally:
            cube.close()
        # the differential IS the benchmark contract: sharded serving
        # must be bit-identical to the single-process snapshot tier
        assert answers == baseline
        assert not leaked_segments()
        speedup = baseline_wall / max(wall, 1e-9)
        record(
            "weather4_sharded_serving", f"procs-{readers}", wall, 0,
            path=BENCH_SHARD_FILE, dataset=dataset.name, queries=NUM_QUERIES,
            cores=cores, shards=SHARDS,
            queries_per_s=int(NUM_QUERIES / max(wall, 1e-9)),
            speedup_vs_snapshot=round(speedup, 2),
            speedup_vs_kernel=round(kernel_wall / max(wall, 1e-9), 2),
        )
        if readers == 4 and cores >= 4:
            assert speedup >= FLOOR, (
                f"procs-4 sharded serving only {speedup:.2f}x the "
                f"single-process snapshot baseline on {cores} cores"
            )
