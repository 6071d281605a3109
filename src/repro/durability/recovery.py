"""The durable front (WAL, checkpoints, crash recovery) and ``DurableCube``.

:class:`DurableFront` is the log-before-apply machinery shared by every
durable object kind: it appends one WAL record *before* applying each
mutation, takes checkpoints and recovers.  :class:`DurableCube` adapts it
to any kernel-backed cube -- dense, paged or sparse, with or without the
``G_d`` out-of-order buffer; :class:`~repro.durability.extent
.DurableExtentCube` adapts it to TT-extent objects.  Queries pass
straight through.  Because the wrapped classes are deterministic,
replaying the surviving log prefix through the same entry points
reproduces the pre-crash state exactly: same answers, same directory,
same lazy-copy progress.

Recovery = latest checkpoint + tail replay:

1. read the manifest (atomic-rename published, so always consistent);
2. rebuild the configured front-end and, when a checkpoint archive
   exists, restore kernel and buffer state from it;
3. open the log for append, which truncates a torn final record;
4. replay every record with LSN > the manifest's covered LSN.

Replay guards: a record whose application failed originally (an
append-order violation surfaced to the caller, a correction into the
data-aging retired region) fails identically during replay and is
*skipped*, not fatal -- in particular, out-of-order records addressed to
since-retired times go through
:meth:`~repro.ecube.kernel.CubeKernel.replay_out_of_order` so they can
never resurrect retired slices.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.core.errors import DomainError, RecoveryError, ReproError, StorageError
from repro.core.types import Box
from repro.durability.checkpoint import (
    CheckpointManifest,
    publish_manifest,
    read_manifest,
    snapshot_arrays,
    write_checkpoint,
)
from repro.durability.wal import (
    CheckpointMarkerRecord,
    DemoteRecord,
    DrainRecord,
    OutOfOrderBatchRecord,
    OutOfOrderRecord,
    RetireRecord,
    UpdateBatchRecord,
    UpdateRecord,
    WriteAheadLog,
)
from repro.ecube.buffered import BufferedEvolvingDataCube, build_kernel
from repro.metrics import CostCounter
from repro.storage.mmap_npz import open_checkpoint

WAL_SUBDIR = "wal"
TILES_SUBDIR = "tiles"


def _build_front(config: dict, counter: CostCounter | None):
    """Construct the configured cube front-end (empty)."""
    slice_shape = tuple(int(n) for n in config["slice_shape"])
    backend = config.get("backend", "dense")
    num_times = config.get("num_times")
    copy_budget = config.get("copy_budget")
    if config.get("buffered", True):
        cube_cls = BufferedEvolvingDataCube
        if config.get("global_order_buffer"):
            # shard workers obey the router's *global* append-order
            # classification (lazy import: sharding sits above durability)
            from repro.sharding.buffered import ShardBufferedCube

            cube_cls = ShardBufferedCube
        return cube_cls(
            slice_shape,
            num_times=num_times,
            counter=counter,
            copy_budget=copy_budget,
            drain_threshold=config.get("drain_threshold"),
            backend=backend,
            page_size=config.get("page_size"),
            cell_size=config.get("cell_size"),
        )
    return build_kernel(
        slice_shape,
        backend,
        num_times=num_times,
        counter=counter,
        copy_budget=copy_budget,
        page_size=config.get("page_size"),
        cell_size=config.get("cell_size"),
    )


#: Public alias -- shard workers build non-durable fronts from the same
#: config dictionaries the durable manifest records.
build_front = _build_front


def _tiers_config(tiers) -> list[dict] | None:
    """Normalize a tier policy (or its JSON form) for the manifest."""
    if tiers is None:
        return None
    from repro.retention import TierPolicy

    return TierPolicy.from_config(tiers).to_config()


def durable_class(manifest: CheckpointManifest) -> type[DurableFront]:
    """The durable front class that owns a directory with this manifest."""
    if manifest.config.get("extent"):
        from repro.durability.extent import DurableExtentCube

        return DurableExtentCube
    return DurableCube


def recover_durable(
    directory, counter: CostCounter | None = None, fsync: str | None = None
) -> DurableFront:
    """Recover whichever durable cube kind lives in ``directory``."""
    manifest = _required_manifest(Path(directory))
    return durable_class(manifest).recover(directory, counter=counter, fsync=fsync)


def _required_manifest(directory: Path) -> CheckpointManifest:
    manifest = read_manifest(directory)
    if manifest is None:
        raise RecoveryError(f"{directory} holds no durable cube (missing manifest)")
    return manifest


class DurableFront:
    """Log-before-apply plumbing shared by every durable object kind.

    Owns the manifest, the WAL, checkpoints and recovery; a subclass
    supplies its configuration, how to build an empty front from it, the
    logged mutations, how to snapshot and restore its state, and a replay
    table mapping each WAL record type it logs to a handler.  A handler
    returns ``False`` when it skips a record; a
    :class:`~repro.core.errors.ReproError` raised while applying a record
    also means it failed originally and is skipped.
    """

    #: object kind stored in a directory ("point" or "extent")
    kind: str
    #: how refusal messages name this kind
    _kind_label: str
    #: record a single served epoch as the manifest's ``covered_epoch``
    _records_epoch = False
    _replay_handlers: dict = {
        RetireRecord: lambda self, r: self.front.retire_before(r.time),
        DrainRecord: lambda self, r: self.front.drain(r.limit),
        CheckpointMarkerRecord: lambda self, r: True,
    }

    def _build(self, config: dict, counter: CostCounter | None):
        """Construct the configured (empty) front."""
        raise NotImplementedError

    def _snapshot_arrays(self) -> dict[str, np.ndarray]:
        """Complete durable state as named arrays (one checkpoint archive)."""
        raise NotImplementedError

    def _restore(self, archive) -> None:
        """Load :meth:`_snapshot_arrays` output into the fresh front."""
        raise NotImplementedError

    def _epoch_kernels(self) -> tuple:
        """Kernels whose served epochs a checkpoint pins while it writes."""
        raise NotImplementedError

    def _create(self, directory, config: dict, counter: CostCounter | None) -> None:
        """Start a new durable cube in ``directory`` (constructor body)."""
        self.directory = Path(directory)
        if read_manifest(self.directory) is not None:
            raise StorageError(
                f"{self.directory} already holds a durable cube; open it "
                f"with {type(self).__name__}.recover"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._config = config
        self.front = self._build(config, counter)
        self._open_wal(config["fsync"])
        self._manifest = CheckpointManifest(
            checkpoint_id=0,
            covered_lsn=0,
            checkpoint_file=None,
            live_segments=self.wal.segments(),
            config=config,
        )
        publish_manifest(self.directory, self._manifest)
        self.recovery_info: dict | None = None

    def _open_wal(self, fsync: str) -> None:
        config = self._config
        self.wal = WriteAheadLog(
            self.directory / WAL_SUBDIR,
            fsync=fsync,
            segment_bytes=int(config.get("segment_bytes", 4 << 20)),
            group_commit=int(config.get("group_commit", 256)),
        )

    # -- introspection -----------------------------------------------------------

    @property
    def counter(self) -> CostCounter:
        return self.front.counter

    @property
    def ndim(self) -> int:
        return self.front.ndim

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 = empty log)."""
        return self.wal.next_lsn - 1

    def log_info(self) -> dict:
        info = self.wal.log_info()
        info["checkpoint_id"] = self._manifest.checkpoint_id
        info["covered_lsn"] = self._manifest.covered_lsn
        info["checkpoint_file"] = self._manifest.checkpoint_file
        return info

    # -- logged mutations shared by every kind --------------------------------------

    def retire_before(self, time: int) -> int:
        """Log, then retire detail slices older than ``time``."""
        self.wal.append(RetireRecord(int(time)))
        return self.front.retire_before(int(time))

    def drain(self, limit: int | None = None) -> tuple[int, int]:
        """Log, then drain the ``G_d`` buffer(s)."""
        self.wal.append(DrainRecord(limit))
        return self.front.drain(limit)

    # -- checkpoints --------------------------------------------------------------

    def checkpoint(self) -> CheckpointManifest:
        """Snapshot current state, publish it, and truncate covered log.

        The checkpoint-marker record pins the log position the snapshot
        corresponds to; the segment is rolled so everything up to the
        marker becomes droppable.  When the cube is being served
        concurrently (a snapshot front is attached), the current epoch of
        every served kernel is pinned for the duration of the archive
        write, so the archive persists exactly the state readers of
        those epochs were answering from and the pins keep their slices
        from being rewritten underneath the serializer.  A point cube
        records its epoch's sequence in the manifest as
        ``covered_epoch``.  Returns the published manifest.
        """
        checkpoint_id = self._manifest.checkpoint_id + 1
        covered_lsn = self.wal.append(CheckpointMarkerRecord(checkpoint_id))
        self.wal.commit()
        self.wal.roll_segment()
        pins = []
        for kernel in self._epoch_kernels():
            sink = getattr(kernel, "_epoch_sink", None)
            if sink is not None:
                pins.append(sink.pin())
        try:
            self._manifest = write_checkpoint(
                self.directory,
                self._snapshot_arrays(),
                covered_lsn=covered_lsn,
                checkpoint_id=checkpoint_id,
                config=self._config,
                wal=self.wal,
                covered_epoch=(
                    pins[0].sequence if pins and self._records_epoch else None
                ),
            )
        finally:
            for pinned in pins:
                pinned.release()
        return self._manifest

    def flush(self) -> None:
        """Force the log durable now (mostly useful with ``fsync="batch"``)."""
        self.wal.commit()

    def close(self) -> None:
        self.wal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.directory)!r}, "
            f"backend={self._config['backend']!r}, "
            f"next_lsn={self.wal.next_lsn})"
        )

    # -- recovery -----------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory,
        counter: CostCounter | None = None,
        fsync: str | None = None,
    ):
        """Rebuild the durable cube living in ``directory``.

        Latest checkpoint plus tail replay; a torn final log record is
        truncated, records that failed originally are skipped (see
        module docstring).  ``fsync`` overrides the logged policy for
        the reopened log (e.g. recover with ``"always"`` a log written
        with ``"batch"``).  The result continues logging where the
        survivor left off; :attr:`recovery_info` reports what happened.
        """
        directory = Path(directory)
        manifest = _required_manifest(directory)
        owner = durable_class(manifest)
        if not issubclass(cls, owner):
            raise RecoveryError(
                f"{directory} holds a {owner._kind_label} durable cube; open "
                f"it with {owner.__name__}.recover"
            )
        self = cls.__new__(cls)
        self.directory = directory
        self._config = config = manifest.config
        self.front = self._build(config, counter)
        if manifest.checkpoint_file is not None:
            archive_path = directory / manifest.checkpoint_file
            if not archive_path.exists():
                raise RecoveryError(
                    f"manifest names missing checkpoint {manifest.checkpoint_file}"
                )
            # mmap-backed when the archive is uncompressed: slice arrays
            # are adopted as read-only views and the recovered cube
            # serves queries straight off the checkpoint file (stores
            # promote a slice to heap copies on first write)
            with open_checkpoint(archive_path) as archive:
                self._restore(archive)
        # opening for append repairs a torn tail before replay reads it
        self._open_wal(fsync if fsync is not None else config.get("fsync", "batch"))
        self._manifest = manifest
        replayed = skipped = 0
        last_lsn = manifest.covered_lsn
        for lsn, record in self.wal.replay(after_lsn=manifest.covered_lsn):
            replayed += 1
            last_lsn = lsn
            if not self._replay_record(record):
                skipped += 1
        self.recovery_info = {
            "checkpoint_id": manifest.checkpoint_id,
            "covered_lsn": manifest.covered_lsn,
            "replayed_records": replayed,
            "skipped_records": skipped,
            "last_lsn": last_lsn,
        }
        return self

    def _replay_record(self, record) -> bool:
        """Apply one tail record; ``False`` = skipped (failed originally)."""
        handler = self._replay_handlers.get(type(record))
        if handler is None:
            raise RecoveryError(
                f"cannot replay {type(record).__name__} into a "
                f"{self._kind_label} durable cube"
            )
        if isinstance(record, DrainRecord):
            # a drain keeps unappliable corrections buffered itself, so an
            # error here is damage and surfaces instead of being skipped
            return handler(self, record) is not False
        try:
            return handler(self, record) is not False
        except ReproError:
            return False


class DurableCube(DurableFront):
    """A kernel-backed cube with write-ahead logging and checkpoints.

    Parameters
    ----------
    slice_shape:
        Domain sizes of the non-time dimensions.
    directory:
        Where the log, checkpoints and manifest live; created if
        missing.  A directory that already holds a durable cube must be
        opened with :meth:`recover` instead.
    buffered:
        ``True`` (default) wraps the kernel in
        :class:`~repro.ecube.buffered.BufferedEvolvingDataCube`, so
        out-of-order updates flow through :meth:`update`/:meth:`update_many`
        and :meth:`drain`; ``False`` exposes the raw append-only cube
        plus :meth:`apply_out_of_order`.
    backend:
        ``"dense"`` | ``"paged"`` | ``"sparse"`` slice storage.
    fsync:
        WAL fsync policy: ``"always"`` (fsync per record), ``"batch"``
        (group commit; at most ``group_commit`` trailing operations are
        lost on a crash, never corrupted), ``"off"`` (leave flushing to
        the OS).
    """

    kind = "point"
    _kind_label = "point-object"
    _records_epoch = True

    def __init__(
        self,
        slice_shape: Sequence[int],
        directory,
        *,
        buffered: bool = True,
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
        global_order_buffer: bool = False,
        tiers=None,
    ) -> None:
        config = {
            "slice_shape": [int(n) for n in slice_shape],
            "backend": backend,
            "buffered": bool(buffered),
            "num_times": num_times,
            "copy_budget": copy_budget,
            "drain_threshold": drain_threshold,
            "page_size": page_size,
            "cell_size": cell_size,
            "fsync": fsync,
            "segment_bytes": int(segment_bytes),
            "group_commit": int(group_commit),
            "global_order_buffer": bool(global_order_buffer),
            "tiers": _tiers_config(tiers),
        }
        self._create(directory, config, counter)

    def _build(self, config: dict, counter: CostCounter | None):
        front = _build_front(config, counter)
        if config.get("tiers") is None:
            return front
        from repro.retention import TieredCube

        return TieredCube(front, config["tiers"], self.directory / TILES_SUBDIR)

    def _snapshot_arrays(self) -> dict[str, np.ndarray]:
        return snapshot_arrays(self.front)

    def _restore(self, archive) -> None:
        cube = self.cube
        cube.copy_budget = int(archive["copy_budget"][0])
        cube.restore_state(archive)
        if self.buffered:
            self.front.restore_buffer_state(archive)
        if "ret_meta" in archive:
            self.front.restore_retention_state(archive)

    def _epoch_kernels(self) -> tuple:
        return (self.cube,)

    # -- introspection -----------------------------------------------------------

    @property
    def cube(self):
        """The wrapped kernel (unwraps tiered/``G_d`` fronts if present)."""
        return getattr(self.front, "cube", self.front)

    @property
    def buffered(self) -> bool:
        return bool(self._config.get("buffered", True))

    # -- logged mutations ---------------------------------------------------------

    def update(self, point: Sequence[int], delta: int) -> None:
        """Log, then apply one update (in-order, or buffered if late)."""
        point = tuple(int(c) for c in point)
        self.wal.append(UpdateRecord(point, int(delta)))
        self.front.update(point, int(delta))

    def update_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
        mode: str = "fast",
    ) -> None:
        """Log the whole batch as one record, then apply it."""
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.shape[0] == 0:
            return
        self.wal.append(UpdateBatchRecord(points, deltas, mode))
        self.front.update_many(points, deltas, mode=mode)

    def apply_out_of_order(self, point: Sequence[int], delta: int) -> None:
        """Log, then cascade one historic correction (unbuffered cubes)."""
        if self.buffered:
            raise DomainError(
                "buffered durable cubes take historic updates through "
                "update()/update_many(); apply_out_of_order is the "
                "unbuffered escape hatch"
            )
        point = tuple(int(c) for c in point)
        self.wal.append(OutOfOrderRecord(point, int(delta)))
        self.front.apply_out_of_order(point, int(delta))

    def apply_out_of_order_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
    ) -> int:
        if self.buffered:
            raise DomainError(
                "buffered durable cubes take historic updates through "
                "update()/update_many(); apply_out_of_order_many is the "
                "unbuffered escape hatch"
            )
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.shape[0] == 0:
            return 0
        self.wal.append(OutOfOrderBatchRecord(points, deltas))
        return self.front.apply_out_of_order_many(points, deltas)

    def demote_before(self, time: int) -> int:
        """Log, then demote detail older than ``time`` into the tiers.

        Only one record is logged: demotion is deterministic against the
        cube state it runs on (the implied pre-demote drain included),
        so replaying it after a crash rewrites byte-identical tiles and
        rebuilds the same rollup slices.
        """
        if self._config.get("tiers") is None:
            raise DomainError(
                "demote_before requires a tiered durable cube "
                "(pass tiers=... when creating it)"
            )
        self.wal.append(DemoteRecord(int(time)))
        return self.front.demote_before(int(time))

    def drain(self, limit: int | None = None) -> tuple[int, int]:
        """Log, then drain the ``G_d`` buffer (buffered cubes only)."""
        if not self.buffered:
            raise DomainError("drain() requires a buffered durable cube")
        return super().drain(limit)

    # -- pass-through queries -----------------------------------------------------

    def query(self, box: Box) -> int:
        return self.front.query(box)

    def query_many(self, boxes: Sequence[Box], mode: str = "fast") -> list[int]:
        return self.front.query_many(boxes, mode=mode)

    def total(self) -> int:
        return self.front.total()

    def serve(self):
        """Attach a snapshot-isolation front for concurrent readers.

        Returns a :class:`~repro.concurrent.snapshot.SnapshotCube` over
        this durable cube: route writes through it (one writer thread,
        each one logged *then* applied and published as an epoch) and
        pin epochs for lock-free reads from any thread.  Checkpoints
        taken while serving record the epoch they cover in the manifest.
        """
        from repro.concurrent.snapshot import SnapshotCube

        return SnapshotCube(self)

    def __repr__(self) -> str:
        return (
            f"DurableCube({str(self.directory)!r}, "
            f"backend={self._config['backend']!r}, "
            f"buffered={self.buffered}, next_lsn={self.wal.next_lsn})"
        )

    # -- replay ---------------------------------------------------------------------

    def _replay_demote(self, record) -> bool | None:
        if self._config.get("tiers") is None:
            return False
        return self.front.demote_before(record.time)

    def _replay_drain(self, record) -> bool | None:
        if not self.buffered:
            return False
        return self.front.drain(record.limit)

    def _replay_out_of_order_batch(self, record) -> bool | None:
        # mirror apply_out_of_order_many's schedule (newest time first,
        # stable) *and* its failure behaviour: the original loop stopped
        # at the first raising correction, leaving the earlier ones
        # applied.  The aged-out case in particular must not resurrect
        # retired detail during replay.
        order = np.argsort(record.points[:, 0], kind="stable")[::-1]
        for i in order:
            point = tuple(int(c) for c in record.points[i])
            self.cube.apply_out_of_order(point, int(record.deltas[i]))

    _replay_handlers = {
        **DurableFront._replay_handlers,
        UpdateRecord: lambda self, r: self.front.update(r.point, r.delta),
        UpdateBatchRecord: lambda self, r: self.front.update_many(
            r.points, r.deltas, mode=r.mode
        ),
        OutOfOrderRecord: lambda self, r: self.cube.replay_out_of_order(
            r.point, r.delta
        ),
        OutOfOrderBatchRecord: _replay_out_of_order_batch,
        DemoteRecord: _replay_demote,
        DrainRecord: _replay_drain,
    }
