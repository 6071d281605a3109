"""Durability: write-ahead logging, checkpoints and crash recovery.

The paper's framework is append-only in transaction time (Section 2):
in-order updates only ever touch the newest slice and out-of-order
updates are buffered in ``G_d`` (Section 2.5).  Both arrive as small
deltas, which makes a *sequential* write-ahead log the natural
durability story -- every logical operation appends one record, the log
never seeks, and recovery replays a bounded tail on top of the latest
checkpoint:

* :mod:`repro.durability.wal` -- the segmented, CRC32-checksummed record
  log (binary codec with explicit versioning, configurable fsync policy,
  torn-tail detection);
* :mod:`repro.durability.checkpoint` -- incremental checkpoints through
  the :class:`~repro.ecube.stores.SliceStore` snapshot machinery (all
  three backends), a manifest published by atomic rename, and segment
  compaction once a checkpoint covers them;
* :mod:`repro.durability.recovery` -- ``DurableFront``, the shared
  log-before-apply base (manifest, WAL, checkpoints, recovery = latest
  checkpoint + tail replay), and :class:`DurableCube`, its adapter for
  any kernel-backed cube (buffered or not); :func:`recover_durable`
  recovers whichever kind a directory holds;
* :mod:`repro.durability.extent` -- :class:`DurableExtentCube`, the
  adapter for the multi-family :class:`~repro.ecube.extent.ExtentCube`
  (interval insert, interval batch and clock-advance records).
"""

from repro.durability.checkpoint import (
    CheckpointManifest,
    read_manifest,
    write_checkpoint,
)
from repro.durability.extent import DurableExtentCube
from repro.durability.recovery import DurableCube, recover_durable
from repro.durability.wal import (
    AdvanceRecord,
    CheckpointMarkerRecord,
    DrainRecord,
    IntervalBatchRecord,
    IntervalInsertRecord,
    OutOfOrderBatchRecord,
    OutOfOrderRecord,
    RetireRecord,
    UpdateBatchRecord,
    UpdateRecord,
    WriteAheadLog,
)

__all__ = [
    "AdvanceRecord",
    "CheckpointManifest",
    "CheckpointMarkerRecord",
    "DrainRecord",
    "DurableCube",
    "DurableExtentCube",
    "IntervalBatchRecord",
    "IntervalInsertRecord",
    "OutOfOrderBatchRecord",
    "OutOfOrderRecord",
    "RetireRecord",
    "UpdateBatchRecord",
    "UpdateRecord",
    "WriteAheadLog",
    "read_manifest",
    "recover_durable",
    "write_checkpoint",
]
