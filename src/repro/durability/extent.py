"""``DurableExtentCube``: write-ahead logging for TT-extent objects.

The extent cube's queries are *pure* -- the logical clock only moves
through :meth:`~repro.ecube.extent.ExtentCube.insert`,
:meth:`~repro.ecube.extent.ExtentCube.insert_many` and
:meth:`~repro.ecube.extent.ExtentCube.advance` -- so its durable state
is a deterministic function of the mutation sequence alone.  This
adapter plugs the extent cube into the shared durable front
(:class:`~repro.durability.recovery.DurableFront`: manifest, WAL,
checkpoints, recovery and the replay loop) with three interval-specific
record types (:class:`~repro.durability.wal.IntervalInsertRecord`,
:class:`~repro.durability.wal.IntervalBatchRecord`,
:class:`~repro.durability.wal.AdvanceRecord`) plus the shared drain and
retire records; a checkpoint is one archive covering both families,
their ``G_d`` buffers, the pending-end heap and the containment index.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.types import Box
from repro.durability.recovery import DurableFront
from repro.durability.wal import (
    AdvanceRecord,
    IntervalBatchRecord,
    IntervalInsertRecord,
)
from repro.ecube.extent import ExtentCube, _as_interval
from repro.metrics import CostCounter
from repro.storage.serialize import FORMAT_VERSION


def build_extent_front(config: dict, counter: CostCounter | None) -> ExtentCube:
    """Construct the configured extent cube (empty) from a manifest config."""
    return ExtentCube(
        tuple(int(n) for n in config["slice_shape"]),
        num_times=config.get("num_times"),
        counter=counter,
        backend=config.get("backend", "dense"),
        copy_budget=config.get("copy_budget"),
        drain_threshold=config.get("drain_threshold"),
        page_size=config.get("page_size"),
        cell_size=config.get("cell_size"),
    )


class DurableExtentCube(DurableFront):
    """An :class:`~repro.ecube.extent.ExtentCube` with WAL and checkpoints.

    Parameters mirror :class:`~repro.durability.recovery.DurableCube`;
    the manifest config carries ``"extent": true`` so recovery (and the
    CLI) dispatches to this class.
    """

    kind = "extent"
    _kind_label = "TT-extent"

    def __init__(
        self,
        slice_shape: Sequence[int],
        directory,
        *,
        backend: str = "dense",
        num_times: int | None = None,
        counter: CostCounter | None = None,
        copy_budget: int | None = None,
        drain_threshold: float | None = None,
        page_size: int | None = None,
        cell_size: int | None = None,
        fsync: str = "batch",
        segment_bytes: int = 4 << 20,
        group_commit: int = 256,
    ) -> None:
        config = {
            "slice_shape": [int(n) for n in slice_shape],
            "extent": True,
            "backend": backend,
            "num_times": num_times,
            "copy_budget": copy_budget,
            "drain_threshold": drain_threshold,
            "page_size": page_size,
            "cell_size": cell_size,
            "fsync": fsync,
            "segment_bytes": int(segment_bytes),
            "group_commit": int(group_commit),
        }
        self._create(directory, config, counter)

    def _build(self, config: dict, counter: CostCounter | None) -> ExtentCube:
        return build_extent_front(config, counter)

    def _snapshot_arrays(self) -> dict[str, np.ndarray]:
        arrays = self.front.state_arrays()
        arrays["format_version"] = np.array([FORMAT_VERSION])
        return arrays

    def _restore(self, archive) -> None:
        self.front.restore_state(archive)

    def _epoch_kernels(self) -> tuple:
        return (self.front.ended.cube, self.front.containing.cube)

    # -- logged mutations ---------------------------------------------------------

    def insert(self, interval, cell: Sequence[int], value: int = 1) -> None:
        """Log, then insert one interval object."""
        interval = _as_interval(interval)
        cell = tuple(int(c) for c in cell)
        self.wal.append(
            IntervalInsertRecord(interval.start, interval.end, cell, int(value))
        )
        self.front.insert(interval, cell, int(value))

    def insert_many(
        self,
        intervals: Sequence[Sequence[int]] | np.ndarray,
        cells: Sequence[Sequence[int]] | np.ndarray,
        values: Sequence[int] | np.ndarray | None = None,
        mode: str = "fast",
    ) -> None:
        """Log the whole batch as one record, then apply it."""
        intervals = np.asarray(intervals, dtype=np.int64)
        cells = np.asarray(cells, dtype=np.int64)
        if intervals.shape[0] == 0:
            return
        if values is None:
            values = np.ones(intervals.shape[0], dtype=np.int64)
        else:
            values = np.asarray(values, dtype=np.int64)
        self.wal.append(IntervalBatchRecord(intervals, cells, values, mode))
        self.front.insert_many(intervals, cells, values, mode=mode)

    def advance(self, time: int) -> int:
        """Log, then move the logical clock (flushing due interval ends)."""
        time = int(time)
        self.wal.append(AdvanceRecord(time))
        return self.front.advance(time)

    # -- pass-through queries -----------------------------------------------------

    def intersecting(
        self, query, cell_box: Box | None = None, mode: str = "fast"
    ) -> int:
        return self.front.intersecting(query, cell_box, mode=mode)

    def intersecting_many(
        self, queries, cell_boxes=None, mode: str = "fast"
    ) -> list[int]:
        return self.front.intersecting_many(queries, cell_boxes, mode=mode)

    def alive_at(
        self, time: int, cell_box: Box | None = None, mode: str = "fast"
    ) -> int:
        return self.front.alive_at(time, cell_box, mode=mode)

    def containment(self, query, cell_box: Box | None = None) -> int:
        return self.front.containment(query, cell_box)

    def containment_many(self, queries, cell_boxes=None) -> list[int]:
        return self.front.containment_many(queries, cell_boxes)

    def serve(self):
        """Attach a snapshot-isolation front for concurrent readers."""
        from repro.concurrent.extent import SnapshotExtentCube

        return SnapshotExtentCube(self)

    _replay_handlers = {
        **DurableFront._replay_handlers,
        IntervalInsertRecord: lambda self, r: self.front.insert(
            (r.start, r.end), r.cell, r.value
        ),
        IntervalBatchRecord: lambda self, r: self.front.insert_many(
            r.intervals, r.cells, r.values, mode=r.mode
        ),
        AdvanceRecord: lambda self, r: self.front.advance(r.time),
    }
