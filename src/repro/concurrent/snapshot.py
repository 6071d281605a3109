"""Snapshot-isolated concurrent reads over the cube kernel.

The eCube is append-only: a published historic instance never changes its
*answers* again -- later kernel work against it is either answer-neutral
(lazy copies landing, DDC cells converting to PS, whole-slice finalize)
or an explicitly out-of-order correction, which the paper routes through
``G_d`` precisely so the instances stay immutable.  That makes snapshot
isolation almost free:

* The writer publishes an immutable :class:`Epoch` after every logical
  write (one per public kernel entry point; multi-step logical writes
  such as a drain defer publication with
  :meth:`~repro.ecube.kernel.CubeKernel.publish_barrier`).  Publication
  freezes only the *mutable frontier*: the cache array with its per-cell
  stamps, the occurring-time directory and the ``G_d`` columns --
  O(cache) work, independent of history length.  A copy-on-publish
  watermark (``CubeKernel.epoch_version``) skips even that when only the
  buffer changed.
* Readers :meth:`~SnapshotCube.pin` an epoch and answer range queries
  without locks.  Historic slice content is read straight from live
  storage under a per-slice seqlock (mutation counters around the few
  answer-neutral in-place transforms); the frozen stamps route every
  cell exactly as the kernel would have at publication time.
* The rare answer-*changing* historic mutations (out-of-order
  application, splicing a never-occurring time, data-aging retirement)
  first call :meth:`SnapshotCube.preserve_epochs`, which materializes
  every live epoch's historic slices into private overlays -- after
  that the epochs are self-contained and the writer may rewrite
  history freely.

Single-writer discipline: all mutating calls must come from one thread
(the same discipline the WAL already imposes).  Readers are pure -- they
never charge the shared :class:`~repro.metrics.CostCounter`, never
persist DDC->PS conversions and never touch the directory's metered
lookup path, so metered golden costs are unchanged by concurrent
serving.
"""

from __future__ import annotations

import threading
import time as _time
from collections.abc import Sequence

import numpy as np

from repro.core.errors import AgedOutError, DomainError
from repro.core.out_of_order import gd_range_sums
from repro.core.types import Box
from repro.ecube.fastpath import FastSliceEngine, evaluate_batch, normalize_rows
from repro.ecube.kernel import CubeKernel
from repro.ecube.slices import ECubeSliceEngine

#: Seqlock spins between cooperative yields while a slice mutates.
_SPINS_PER_YIELD = 64
#: :class:`EpochSource` row marker of a slice not normalized yet.
_PENDING = -2


class Epoch:
    """One immutable published version of the cube's answerable state.

    Everything answer-relevant that the writer may change in place is
    frozen by value (cache values/stamps, occurring times, ``G_d``
    columns); the bulk historic slice content stays shared with live
    storage and is reached through :meth:`SnapshotView._slice_arrays`'s
    seqlock, or through ``overlays`` once the epoch was preserved.
    """

    __slots__ = (
        "kernel_version",
        "external_version",
        "sequence",
        "num_slices",
        "times",
        "retired_below",
        "slice_shape",
        "cache_values",
        "cache_stamps",
        "overlays",
        "gd_points",
        "gd_deltas",
        "pins",
        "detached",
    )

    def __init__(
        self,
        kernel_version: int,
        external_version: int,
        sequence: int,
        num_slices: int,
        times: np.ndarray,
        retired_below: int,
        slice_shape: tuple[int, ...],
        cache_values: np.ndarray | None,
        cache_stamps: np.ndarray | None,
        overlays: dict[int, tuple[np.ndarray, np.ndarray]],
        gd_points: np.ndarray | None,
        gd_deltas: np.ndarray | None,
    ) -> None:
        self.kernel_version = kernel_version
        self.external_version = external_version
        self.sequence = sequence
        self.num_slices = num_slices
        self.times = times
        self.retired_below = retired_below
        self.slice_shape = slice_shape
        self.cache_values = cache_values
        self.cache_stamps = cache_stamps
        #: slice index -> frozen (values, ps_flags); shared cache of
        #: slice freezes, filled lazily by readers and eagerly by
        #: :meth:`SnapshotCube.preserve_epochs`
        self.overlays = overlays
        self.gd_points = gd_points
        self.gd_deltas = gd_deltas
        #: live pin count (maintained under the SnapshotCube lock)
        self.pins = 0
        #: True once every historic slice is materialized in overlays
        self.detached = False

    def __repr__(self) -> str:
        return (
            f"Epoch(seq={self.sequence}, slices={self.num_slices}, "
            f"pins={self.pins}, detached={self.detached})"
        )

    def to_shared_memory(self, exporter) -> dict:
        """Publish this epoch through a sharding ``EpochExporter``.

        Only the exporter's current epoch can be exported (the exporter
        reuses slice freezes across epochs and must see them in
        publication order); a picklable descriptor is returned.
        """
        from repro.core.errors import DomainError

        if exporter.snap._current is not self:
            raise DomainError(
                "only the snapshot front's current epoch can be exported"
            )
        return exporter.export()

    @classmethod
    def from_shared_memory(cls, descriptor: dict, cache) -> "Epoch":
        """Attach a detached epoch from an exported descriptor.

        ``cache`` is a :class:`repro.sharding.shm.BlockCache`; the
        resulting epoch's arrays are read-only zero-copy views into the
        shared blocks.
        """
        from repro.sharding.shm import epoch_from_shared_memory

        return epoch_from_shared_memory(descriptor, cache)


class SnapshotView:
    """A reader's handle on one pinned epoch.

    Supports :meth:`query` / :meth:`query_many` with answers exactly
    equal to what the underlying cube would have returned at the moment
    the epoch was published, regardless of concurrent writer progress.
    Use as a context manager or call :meth:`release` when done.
    """

    def __init__(
        self,
        cube: "SnapshotCube",
        epoch: Epoch,
        fast: FastSliceEngine | None = None,
        metered: ECubeSliceEngine | None = None,
        owns_pin: bool = True,
    ) -> None:
        self._cube = cube
        self.epoch = epoch
        self._fast = fast
        self._metered = metered
        self._owns_pin = owns_pin
        self._released = False

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        """Drop the pin; the epoch may be garbage collected afterwards."""
        if self._released:
            return
        self._released = True
        if self._owns_pin:
            self._cube._release(self.epoch)

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # -- introspection -------------------------------------------------------

    @property
    def sequence(self) -> int:
        """Monotone publication number of the pinned epoch."""
        return self.epoch.sequence

    @property
    def num_slices(self) -> int:
        return self.epoch.num_slices

    @property
    def ndim(self) -> int:
        return 1 + len(self.epoch.slice_shape)

    # -- engines (lazily built, shareable per reader thread) -----------------

    @property
    def fast(self) -> FastSliceEngine:
        if self._fast is None:
            self._fast = FastSliceEngine(self.epoch.slice_shape)
        return self._fast

    @property
    def metered(self) -> ECubeSliceEngine:
        if self._metered is None:
            self._metered = ECubeSliceEngine(self.epoch.slice_shape)
        return self._metered

    # -- queries -------------------------------------------------------------

    def query(self, box: Box) -> int:
        """Range aggregate against the pinned epoch (lock-free)."""
        return self.query_many([box])[0]

    def query_many(self, boxes: Sequence[Box]) -> list[int]:
        """A batch of range aggregates against the pinned epoch.

        Mirrors the kernel's vectorized batch plan (directory lookups in
        one search, per-slice grouping) against the frozen state; results
        are bit-identical to ``query_many`` on a quiesced cube.
        """
        if self._released:
            raise DomainError("view was released")
        boxes = list(boxes)
        epoch = self.epoch
        ndim = 1 + len(epoch.slice_shape)
        for box in boxes:
            if box.ndim != ndim:
                raise DomainError(f"box arity {box.ndim} != cube arity {ndim}")
        if not boxes:
            return []
        results = [0] * len(boxes)
        if epoch.num_slices:
            slice_boxes = [
                box.drop_first().clip_to(epoch.slice_shape) for box in boxes
            ]
            upper_bounds = np.asarray([box.time_range[1] for box in boxes])
            lower_bounds = np.asarray([box.time_range[0] - 1 for box in boxes])
            upper_idx = np.searchsorted(epoch.times, upper_bounds, side="right") - 1
            lower_idx = np.searchsorted(epoch.times, lower_bounds, side="right") - 1
            per_slice: dict[int, list[tuple[int, int]]] = {}
            for i in range(len(boxes)):
                for slice_index, sign in (
                    (int(upper_idx[i]), 1),
                    (int(lower_idx[i]), -1),
                ):
                    if slice_index >= 0:
                        per_slice.setdefault(slice_index, []).append((i, sign))
            for slice_index in sorted(per_slice):
                jobs = per_slice[slice_index]
                values = self._slice_batch(
                    slice_index, [slice_boxes[i] for i, _ in jobs]
                )
                for (i, sign), value in zip(jobs, values):
                    results[i] += sign * value
        if epoch.gd_points is not None and epoch.gd_points.shape[0]:
            for i, value in enumerate(self._gd_many(boxes)):
                results[i] += value
        return results

    def total(self) -> int:
        """Sum of every update visible in this epoch."""
        epoch = self.epoch
        if epoch.num_slices == 0 and (
            epoch.gd_points is None or epoch.gd_points.shape[0] == 0
        ):
            return 0
        upper_time = int(epoch.times[-1]) if epoch.num_slices else 0
        if epoch.gd_points is not None and epoch.gd_points.shape[0]:
            upper_time = max(upper_time, int(epoch.gd_points[:, 0].max()))
        box = Box(
            (0,) + (0,) * len(epoch.slice_shape),
            (upper_time,) + tuple(n - 1 for n in epoch.slice_shape),
        )
        return self.query(box)

    # -- per-slice evaluation against frozen state ---------------------------

    def _slice_batch(self, slice_index: int, slice_boxes: list[Box]) -> list[int]:
        epoch = self.epoch
        if slice_index < epoch.retired_below:
            raise AgedOutError.instance(int(epoch.times[slice_index]))
        fast = self.fast
        if slice_index >= epoch.num_slices - 1:
            # the epoch-latest instance reads wholly from the frozen cache
            return [
                fast.latest_range(epoch.cache_values, box)[0]
                for box in slice_boxes
            ]
        values, flags = self._slice_arrays(slice_index)
        if bool(flags.all()):
            return [fast.ps_range(values, box)[0] for box in slice_boxes]
        stamps = epoch.cache_stamps
        cache_values = epoch.cache_values
        if len(slice_boxes) > 1:
            effective = fast.effective_ddc(
                values, flags, stamps, cache_values, slice_index
            )
            if effective is not None:
                return [
                    fast.ddc_range(effective, box)[0] for box in slice_boxes
                ]
        out: list[int] = []
        for box in slice_boxes:
            result = fast.mixed_range(
                box, values, flags, stamps, cache_values, slice_index
            )
            if result is None:
                out.append(
                    self._pure_slice_query(
                        slice_index, box, values, flags, stamps, cache_values
                    )
                )
            else:
                out.append(result[0])
        return out

    def _pure_slice_query(
        self,
        slice_index: int,
        slice_box: Box,
        values: np.ndarray,
        flags: np.ndarray,
        stamps: np.ndarray,
        cache_values: np.ndarray,
    ) -> int:
        """Per-cell fallback mirroring the kernel's metered routing, but
        side-effect free: no counting, no conversion marking."""

        def read(cell: tuple[int, ...]) -> tuple[int, bool]:
            if flags[cell]:
                return int(values[cell]), True
            if stamps[cell] > slice_index:
                return int(values[cell]), False
            return int(cache_values[cell]), False

        return self.metered.range_query(slice_box, read, None)

    def _slice_arrays(self, slice_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Frozen (values, ps_flags) for one historic slice.

        Preserved epochs hit their overlay directly.  Otherwise the live
        payload is frozen under its seqlock: read the mutation counter,
        retry while odd (a transform is mid-flight) or if it changed
        across the copy.  The overlay dict doubles as a shared memo so
        each slice is frozen at most once per epoch family; the final
        overlay re-check closes the window where the writer preserves
        *and then mutates* between our version reads.
        """
        epoch = self.epoch
        arrays = epoch.overlays.get(slice_index)
        if arrays is not None:
            return arrays
        kernel = self._cube.kernel
        store = kernel.store
        directory = kernel.directory
        spins = 0
        while True:
            arrays = epoch.overlays.get(slice_index)
            if arrays is not None:
                return arrays
            _, payload = directory.at_index(slice_index)
            version = payload.mut_version
            if not version & 1:
                frozen = None
                try:
                    frozen = store.freeze_slice(payload)
                except RuntimeError:
                    # a concurrent structural resize (sparse dict) tore
                    # the iteration; the seqlock retry covers it
                    frozen = None
                if frozen is not None and payload.mut_version == version:
                    arrays = epoch.overlays.get(slice_index)
                    if arrays is not None:
                        return arrays
                    epoch.overlays[slice_index] = frozen
                    return frozen
            spins += 1
            if spins % _SPINS_PER_YIELD == 0:
                _time.sleep(0.0002)
            else:
                _time.sleep(0)

    # -- the frozen G_d contribution ----------------------------------------

    def _gd_many(self, boxes: list[Box]) -> list[int]:
        epoch = self.epoch
        out = gd_range_sums(
            epoch.gd_points,
            epoch.gd_deltas,
            np.asarray([box.lower for box in boxes], dtype=np.int64),
            np.asarray([box.upper for box in boxes], dtype=np.int64),
        )
        return [int(v) for v in out]


class EpochSource:
    """One frozen :class:`Epoch` as a read-only slice source.

    The shard readers answer through
    :func:`~repro.ecube.fastpath.evaluate_batch` on it.  The source owns
    one gather stack with a row per slice of the epoch; a row is filled
    the first time a batch touches its slice and reused for the source's
    (the epoch's) lifetime, so batches gather from it without copying.
    Rows are built by :func:`~repro.ecube.fastpath.normalize_rows`, the
    builder the live kernel uses: fully converted slices are copied
    in, mixed ones are reconstructed from their effective DDC, and the
    epoch-latest instance converts the frozen cache.  The stack is
    allocated empty, so untouched rows cost no resident memory.  Inline
    epochs freeze live slices through the view's seqlock; detached ones
    (shared-memory attachments included) read their overlays and never
    touch a kernel.  A slice whose DDC state is unrecoverable answers
    through the view's side-effect-free per-box routing.  Answers equal
    :meth:`SnapshotView.query_many` on the same epoch.
    """

    def __init__(
        self,
        epoch: Epoch,
        cube: "SnapshotCube | None" = None,
        fast: FastSliceEngine | None = None,
        metered: ECubeSliceEngine | None = None,
    ) -> None:
        self.epoch = epoch
        self.view = SnapshotView(cube, epoch, fast, metered, owns_pin=False)
        self.fast = self.view.fast
        self.times = epoch.times[: epoch.num_slices]
        self.retired_below = epoch.retired_below
        self._stack = np.empty((epoch.num_slices,) + self.fast.shape, dtype=np.int64)
        # slice index -> stack row; -1 unrecoverable, _PENDING not built yet
        self._rows = np.full(epoch.num_slices, _PENDING, dtype=np.int64)
        self._filled = 0

    @property
    def sequence(self) -> int:
        return self.epoch.sequence

    @property
    def normalized(self) -> np.ndarray:
        """Slice indices whose rows were built (unrecoverable ones too)."""
        return np.nonzero(self._rows != _PENDING)[0]

    def _build(self, pending: list[int]) -> None:
        epoch = self.epoch
        latest = pending[-1] == epoch.num_slices - 1
        if latest:
            pending = pending[:-1]
        ps: list[np.ndarray] = []
        mixed: list[tuple[int, np.ndarray, np.ndarray]] = []
        order: list[int] = []
        for slice_index in pending:
            values, flags = self.view._slice_arrays(slice_index)
            if bool(flags.all()):
                ps.append(values)
                order.append(slice_index)
            else:
                mixed.append((slice_index, values, flags))
        order += [m[0] for m in mixed]
        if latest:
            order.append(epoch.num_slices - 1)
        start = self._filled
        self._filled += len(order)
        bad = normalize_rows(
            self.fast,
            self._stack[start : self._filled],
            ps,
            mixed,
            epoch.cache_values,
            epoch.cache_stamps,
            latest,
        )
        self._rows[order] = np.arange(start, self._filled)
        self._rows[[mixed[j][0] for j in np.nonzero(bad)[0]]] = -1

    def ps_rows(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pending = indices[self._rows[indices] == _PENDING]
        if pending.size:
            self._build(pending.tolist())
        return self._stack, self._rows[indices]

    def charge(self, rows, lowers, uppers) -> None:
        """Readers are pure: nothing is charged."""

    def fallback(
        self, slice_index: int, lowers: np.ndarray, uppers: np.ndarray
    ) -> np.ndarray:
        boxes = [
            Box(tuple(int(c) for c in low), tuple(int(c) for c in up))
            for low, up in zip(lowers, uppers)
        ]
        return np.asarray(self.view._slice_batch(slice_index, boxes), dtype=np.int64)

    def query_many(self, boxes: Sequence[Box]) -> np.ndarray:
        """Batch range aggregates (``G_d`` included); int64, input order."""
        epoch = self.epoch
        ndim = 1 + len(epoch.slice_shape)
        for box in boxes:
            if box.ndim != ndim:
                raise DomainError(f"box arity {box.ndim} != cube arity {ndim}")
        lowers = np.asarray([box.lower for box in boxes], dtype=np.int64)
        uppers = np.asarray([box.upper for box in boxes], dtype=np.int64)
        results = evaluate_batch(self, lowers, uppers)
        if epoch.gd_points is not None:
            results += gd_range_sums(
                epoch.gd_points, epoch.gd_deltas, lowers, uppers
            )
        return results


def _resolve_target(target):
    """(kernel, buffer) behind any supported cube front.

    Accepts a bare :class:`CubeKernel` (dense/paged/sparse variant), a
    :class:`~repro.ecube.buffered.BufferedEvolvingDataCube`, a
    :class:`~repro.retention.planner.TieredCube`, or a
    :class:`~repro.durability.recovery.DurableCube` wrapping any of them.
    """
    front = getattr(target, "front", target)
    # a TieredCube may sit between a DurableCube and the kernel front
    front = getattr(front, "front", front)
    buffer = getattr(front, "buffer", None)
    kernel = front.cube if buffer is not None else front
    if not isinstance(kernel, CubeKernel):
        raise DomainError(
            f"cannot serve snapshots over {type(target).__name__}; "
            "expected a CubeKernel variant, a BufferedEvolvingDataCube "
            "or a DurableCube"
        )
    return kernel, buffer


class SnapshotCube:
    """Single-writer / many-reader front over any cube backend.

    Attaches to the kernel as its *epoch sink*: every mutating entry
    point publishes a fresh :class:`Epoch` on exit, and answer-changing
    historic mutations call :meth:`preserve_epochs` first.  Write calls
    are forwarded to the wrapped target unchanged (and must stay on one
    thread); reads go through pinned epochs and are safe from any
    thread.
    """

    def __init__(self, target) -> None:
        self.target = target
        self.kernel, self.buffer = _resolve_target(target)
        if self.kernel._epoch_sink is not None:
            raise DomainError("the cube already has a snapshot front attached")
        self._lock = threading.Lock()
        self._sequence = 0
        self._current: Epoch | None = None
        self._pinned: set[Epoch] = set()
        self.kernel._epoch_sink = self
        self.publish()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Detach from the kernel (pinned views stay readable)."""
        if self.kernel._epoch_sink is self:
            self.kernel._epoch_sink = None

    def __enter__(self) -> "SnapshotCube":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the epoch-sink protocol (called by the kernel, writer thread) -------

    def publish(self) -> Epoch:
        """Publish the cube's current answerable state as a new epoch.

        Cheap by design: when ``kernel.epoch_version`` is unchanged (a
        buffer-only write) the frozen cache arrays and the overlay memo
        are shared with the previous epoch; only the ``G_d`` columns are
        re-frozen.  Otherwise the cache freeze is O(cache), independent
        of the number of historic instances.
        """
        kernel = self.kernel
        kernel_version = kernel.epoch_version
        previous = self._current
        if previous is not None and previous.kernel_version == kernel_version:
            num_slices = previous.num_slices
            times = previous.times
            retired_below = previous.retired_below
            cache_values = previous.cache_values
            cache_stamps = previous.cache_stamps
            overlays = previous.overlays
            detached = previous.detached
        else:
            num_slices = kernel.num_slices
            frozen = kernel.store.freeze_cache()
            if frozen is None or num_slices == 0:
                cache_values = cache_stamps = None
                num_slices = 0
            else:
                cache_values, cache_stamps = frozen
            times = np.asarray(kernel.directory.times(), dtype=np.int64)
            retired_below = kernel.retired_instances
            overlays = {}
            detached = False
        gd_points = gd_deltas = None
        if self.buffer is not None:
            gd_points, gd_deltas = self.buffer.snapshot_columns()
        self._sequence += 1
        epoch = Epoch(
            kernel_version,
            kernel.external_version,
            self._sequence,
            num_slices,
            times,
            retired_below,
            kernel.slice_shape,
            cache_values,
            cache_stamps,
            overlays,
            gd_points,
            gd_deltas,
        )
        epoch.detached = detached
        with self._lock:
            old = self._current
            self._current = epoch
            if old is not None and old.pins <= 0:
                self._pinned.discard(old)
        return epoch

    def preserve_epochs(self) -> int:
        """Materialize every live epoch before history is rewritten.

        Runs on the writer thread *before* the first answer-changing
        historic mutation of an operation (out-of-order application,
        splice, retirement): each pinned epoch -- plus the current one --
        gets every not-yet-frozen historic slice copied into its private
        overlays, after which its answers no longer depend on live slice
        storage or directory indices.  Returns the number of slices
        copied.
        """
        with self._lock:
            epochs = list(self._pinned)
            current = self._current
            if current is not None and current not in self._pinned:
                epochs.append(current)
        copied = 0
        seen: set[int] = set()
        for epoch in epochs:
            if id(epoch.overlays) in seen:
                # epoch families share one overlay dict; freeze once
                epoch.detached = True
                continue
            seen.add(id(epoch.overlays))
            copied += self._materialize(epoch)
        return copied

    def _materialize(self, epoch: Epoch) -> int:
        kernel = self.kernel
        store = kernel.store
        directory = kernel.directory
        copied = 0
        if not epoch.detached:
            for index in range(epoch.retired_below, epoch.num_slices - 1):
                if index in epoch.overlays:
                    continue
                _, payload = directory.at_index(index)
                epoch.overlays[index] = store.freeze_slice(payload)
                copied += 1
        epoch.detached = True
        return copied

    # -- pinning -------------------------------------------------------------

    def pin(
        self,
        fast: FastSliceEngine | None = None,
        metered: ECubeSliceEngine | None = None,
    ) -> SnapshotView:
        """Pin the current epoch and return a read view on it."""
        with self._lock:
            epoch = self._current
            if epoch is None:
                raise DomainError("no epoch published yet")
            epoch.pins += 1
            self._pinned.add(epoch)
        return SnapshotView(self, epoch, fast, metered)

    def snapshot(self) -> SnapshotView:
        """Alias for :meth:`pin` (reads naturally as a context manager)."""
        return self.pin()

    def _release(self, epoch: Epoch) -> None:
        with self._lock:
            epoch.pins -= 1
            if epoch.pins <= 0 and epoch is not self._current:
                self._pinned.discard(epoch)

    def current_sequence(self) -> int:
        with self._lock:
            assert self._current is not None
            return self._current.sequence

    def pinned_epochs(self) -> int:
        """Number of distinct epochs currently retained (introspection)."""
        with self._lock:
            count = len(self._pinned)
            if self._current is not None and self._current not in self._pinned:
                count += 1
            return count

    # -- reads (ephemeral pin per call; safe from any thread) ----------------

    def query(self, box: Box) -> int:
        with self.pin() as view:
            return view.query(box)

    def query_many(self, boxes: Sequence[Box]) -> list[int]:
        with self.pin() as view:
            return view.query_many(boxes)

    def total(self) -> int:
        with self.pin() as view:
            return view.total()

    # -- forwarded writes (single writer thread) -----------------------------

    def update(self, point: Sequence[int], delta: int) -> None:
        self.target.update(point, delta)

    def update_many(self, points, deltas, mode: str = "fast") -> None:
        self.target.update_many(points, deltas, mode=mode)

    def apply_out_of_order(self, point: Sequence[int], delta: int) -> None:
        target = self.target
        if hasattr(target, "apply_out_of_order"):
            target.apply_out_of_order(point, delta)
        else:
            self.kernel.apply_out_of_order(point, delta)

    def retire_before(self, time: int) -> int:
        return self.target.retire_before(time)

    def drain(self, limit: int | None = None):
        return self.target.drain(limit)

    def checkpoint(self):
        return self.target.checkpoint()

    def __repr__(self) -> str:
        with self._lock:
            seq = self._current.sequence if self._current else 0
        return (
            f"SnapshotCube(target={type(self.target).__name__}, "
            f"sequence={seq}, pinned={len(self._pinned)})"
        )
