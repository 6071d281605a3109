"""Durability of TT-extent objects: WAL records, crashes, checkpoints, CLI.

The extent cube's queries are pure, so its durable state is a function
of the mutation sequence alone.  These tests truncate the log at
arbitrary byte offsets and require recovery to reach a state
*bit-identical* (``state_arrays``) to a live replica that applied the
surviving operation prefix -- with and without an intervening
checkpoint -- plus codec coverage for the three interval record types
and the ``python -m repro`` operational commands on extent directories.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.__main__ import main as repro_main
from repro.core.errors import AppendOrderError, DomainError, RecoveryError, StorageError
from repro.core.types import Box, TimeInterval
from repro.durability import DurableCube, DurableExtentCube, recover_durable
from repro.durability.extent import build_extent_front
from repro.durability.recovery import WAL_SUBDIR
from repro.durability.wal import (
    _FRAME,
    _HEADER,
    AdvanceRecord,
    IntervalBatchRecord,
    IntervalInsertRecord,
    UpdateRecord,
    WriteAheadLog,
    decode_payload,
    encode_record,
    inspect_log,
)

BACKENDS = ["dense", "paged", "sparse"]
SHAPE = (4, 4)


def _backend_kwargs(backend):
    return {"page_size": 4, "cell_size": 3} if backend == "paged" else {}


def _make_ops(rng, count):
    """A mixed extent workload whose every operation succeeds when applied.

    Invariants: ``advance`` never moves backwards, inserts (late ones
    included) never start before the retirement boundary, and every
    ``retire`` is preceded by a drain so no buffered start can age out.
    """
    ops = []
    clock = 0
    boundary = 0

    def _cell():
        return int(rng.integers(0, 4)), int(rng.integers(0, 4))

    for _ in range(count):
        roll = float(rng.random())
        if roll < 0.5:
            start = int(rng.integers(boundary, clock + 12))
            ops.append(
                (
                    "insert",
                    (start, start + int(rng.integers(0, 15))),
                    _cell(),
                    int(rng.integers(1, 6)),
                )
            )
            clock = max(clock, start)
        elif roll < 0.7:
            n = int(rng.integers(1, 6))
            starts = rng.integers(boundary, clock + 12, size=n)
            intervals = np.column_stack(
                (starts, starts + rng.integers(0, 15, size=n))
            ).astype(np.int64)
            cells = rng.integers(0, 4, size=(n, 2)).astype(np.int64)
            values = rng.integers(1, 6, size=n).astype(np.int64)
            mode = "fast" if rng.random() < 0.7 else "metered"
            ops.append(("insert_many", intervals, cells, values, mode))
            clock = max(clock, int(starts.max()))
        elif roll < 0.8:
            clock += int(rng.integers(0, 10))
            ops.append(("advance", clock))
        elif roll < 0.9:
            ops.append(("drain", None if rng.random() < 0.5 else int(rng.integers(1, 5))))
        else:
            ops.append(("drain", None))
            boundary = int(rng.integers(boundary, clock + 1))
            ops.append(("retire", boundary))
    return ops


def _apply_op(front, op):
    kind = op[0]
    if kind == "insert":
        front.insert(op[1], op[2], op[3])
    elif kind == "insert_many":
        front.insert_many(op[1], op[2], op[3], mode=op[4])
    elif kind == "advance":
        front.advance(op[1])
    elif kind == "drain":
        front.drain(op[1])
    else:
        front.retire_before(op[1])
    return 1 if kind != "retire" else 1


def _retire_boundary(ops):
    return max((op[1] for op in ops if op[0] == "retire"), default=0)


def _assert_bit_identical(recovered_front, replica, boundary=0):
    ours = recovered_front.state_arrays()
    theirs = replica.state_arrays()
    assert sorted(ours) == sorted(theirs)
    for key in ours:
        assert ours[key].tobytes() == theirs[key].tobytes(), key
    # intersection queries must stay at or after the retirement boundary
    queries = [
        TimeInterval(boundary, boundary + 200),
        TimeInterval(boundary + 5, boundary + 30),
        TimeInterval(boundary + 40, boundary + 41),
    ]
    boxes = [None, Box((1, 0), (3, 3)), None]
    assert recovered_front.intersecting_many(queries, boxes) == (
        replica.intersecting_many(queries, boxes)
    )
    # containment is index-based: exact even below the boundary
    containment = [TimeInterval(0, 500)] + queries
    assert recovered_front.containment_many(containment) == (
        replica.containment_many(containment)
    )


class TestCodec:
    def test_interval_record_round_trip_exact_layout(self):
        record = IntervalInsertRecord(-3, 9, (2, 0, 5), -7)
        frame = encode_record(record, 42)
        lsn, got = decode_payload(frame[_FRAME.size :])
        assert (lsn, got) == (42, record)

    def test_interval_batch_metered_mode_round_trip(self):
        record = IntervalBatchRecord(
            np.array([[0, 4], [2, 2]], dtype=np.int64),
            np.array([[1], [3]], dtype=np.int64),
            np.array([5, -1], dtype=np.int64),
            mode="metered",
        )
        frame = encode_record(record, 7)
        _, got = decode_payload(frame[_FRAME.size :])
        assert got == record
        assert got.mode == "metered"

    def test_advance_round_trip_through_log(self, tmp_path):
        records = [
            IntervalInsertRecord(0, 3, (1,), 2),
            AdvanceRecord(17),
            IntervalBatchRecord(
                np.array([[1, 1]], dtype=np.int64),
                np.array([[0]], dtype=np.int64),
                np.array([1], dtype=np.int64),
            ),
        ]
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for record in records:
                wal.append(record)
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert [r for _, r in wal.replay()] == records
        counts = inspect_log(tmp_path)["record_counts"]
        assert counts == {
            "interval_insert": 1,
            "advance": 1,
            "interval_batch": 1,
        }


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_at_random_offsets_recovers_surviving_prefix(tmp_path, backend):
    rng = np.random.default_rng(31 + BACKENDS.index(backend))
    ops = _make_ops(rng, count=40)
    origin = tmp_path / "origin"
    cube = DurableExtentCube(
        SHAPE,
        origin,
        backend=backend,
        fsync="off",
        segment_bytes=2048,
        **_backend_kwargs(backend),
    )
    config = dict(cube._config)
    for op in ops:
        _apply_op(cube, op)
    cube.close()

    wal_dir = origin / WAL_SUBDIR
    tail = sorted(wal_dir.glob("wal-*.log"))[-1]
    tail_size = tail.stat().st_size
    cuts = [tail_size] + [
        _HEADER.size + int(rng.integers(0, tail_size - _HEADER.size + 1))
        for _ in range(4)
    ]
    for case, cut in enumerate(cuts):
        crash_dir = tmp_path / f"crash-{case}"
        shutil.copytree(origin, crash_dir)
        with open(crash_dir / WAL_SUBDIR / tail.name, "r+b") as handle:
            handle.truncate(cut)
        survivors = inspect_log(crash_dir / WAL_SUBDIR)["records"]
        recovered = DurableExtentCube.recover(crash_dir)
        assert recovered.recovery_info["replayed_records"] == survivors
        assert recovered.recovery_info["skipped_records"] == 0

        replica = build_extent_front(config, counter=None)
        for op in ops[:survivors]:
            _apply_op(replica, op)
        boundary = _retire_boundary(ops[:survivors])
        _assert_bit_identical(recovered.front, replica, boundary)

        # the survivor keeps logging and recovers once more
        recovered.insert((200, 210), (0, 0), 3)
        replica.insert((200, 210), (0, 0), 3)
        recovered.close()
        reopened = DurableExtentCube.recover(crash_dir)
        _assert_bit_identical(reopened.front, replica, boundary)
        reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_then_tail_replay_is_bit_identical(tmp_path, backend):
    rng = np.random.default_rng(63)
    ops = _make_ops(rng, count=32)
    cube = DurableExtentCube(
        SHAPE, tmp_path, backend=backend, fsync="off", **_backend_kwargs(backend)
    )
    for op in ops[:18]:
        _apply_op(cube, op)
    manifest = cube.checkpoint()
    assert manifest.checkpoint_id == 1
    for op in ops[18:]:
        _apply_op(cube, op)
    cube.close()

    recovered = DurableExtentCube.recover(tmp_path)
    assert recovered.recovery_info["checkpoint_id"] == 1
    # only the tail is replayed
    assert recovered.recovery_info["replayed_records"] < len(ops)
    replica = build_extent_front(dict(cube._config), counter=None)
    for op in ops:
        _apply_op(replica, op)
    _assert_bit_identical(recovered.front, replica, _retire_boundary(ops))
    recovered.close()


class TestDispatch:
    def test_point_recover_refuses_extent_directory(self, tmp_path):
        cube = DurableExtentCube(SHAPE, tmp_path, fsync="off")
        cube.insert((0, 3), (1, 1), 2)
        cube.close()
        with pytest.raises(RecoveryError, match="TT-extent"):
            DurableCube.recover(tmp_path)

    def test_extent_recover_refuses_point_directory(self, tmp_path):
        cube = DurableCube((4, 4), tmp_path, fsync="off")
        cube.update((0, 1, 1), 2)
        cube.close()
        with pytest.raises(RecoveryError, match="point-object"):
            DurableExtentCube.recover(tmp_path)

    def test_reopening_as_new_cube_is_refused(self, tmp_path):
        DurableExtentCube(SHAPE, tmp_path, fsync="off").close()
        with pytest.raises(StorageError):
            DurableExtentCube(SHAPE, tmp_path, fsync="off")

    def test_recover_durable_picks_the_directory_kind(self, tmp_path):
        DurableExtentCube(SHAPE, tmp_path / "extent", fsync="off").close()
        DurableCube((4, 4), tmp_path / "point", fsync="off").close()
        for name, cls in (("extent", DurableExtentCube), ("point", DurableCube)):
            cube = recover_durable(tmp_path / name)
            assert type(cube) is cls and cube.kind == name
            cube.close()


class TestReplay:
    def test_logged_mutations_that_raised_are_skipped(self, tmp_path):
        cube = DurableExtentCube(SHAPE, tmp_path, fsync="off")
        cube.insert((0, 6), (1, 1), 2)
        # both are logged before they raise
        with pytest.raises(DomainError):
            cube.insert((2, 4), (9, 9), 5)  # out-of-domain cell
        cube.advance(10)
        with pytest.raises(AppendOrderError):
            cube.advance(3)  # behind the clock
        cube.insert((11, 20), (0, 2), 1)
        expected = cube.intersecting_many([TimeInterval(0, 30), (5, 12)])
        cube.close()

        recovered = DurableExtentCube.recover(tmp_path)
        assert recovered.recovery_info["replayed_records"] == 5
        assert recovered.recovery_info["skipped_records"] == 2
        assert recovered.intersecting_many([TimeInterval(0, 30), (5, 12)]) == expected
        recovered.close()

    def test_foreign_record_is_refused_by_each_kind(self, tmp_path):
        point = DurableCube((4, 4), tmp_path / "point", fsync="off")
        point.update((0, 1, 1), 2)
        point.wal.append(IntervalInsertRecord(0, 3, (1, 1), 1))
        point.close()
        extent = DurableExtentCube(SHAPE, tmp_path / "extent", fsync="off")
        extent.insert((0, 3), (1, 1), 1)
        extent.wal.append(UpdateRecord((0, 1, 1), 2))
        extent.close()
        with pytest.raises(RecoveryError, match="IntervalInsertRecord"):
            DurableCube.recover(tmp_path / "point")
        with pytest.raises(RecoveryError, match="UpdateRecord"):
            DurableExtentCube.recover(tmp_path / "extent")


class TestCli:
    def _populate(self, directory):
        cube = DurableExtentCube(SHAPE, directory, fsync="off")
        cube.insert((0, 9), (1, 1), 2)
        cube.insert_many(
            np.array([[2, 5], [4, 30]], dtype=np.int64),
            np.array([[0, 0], [3, 3]], dtype=np.int64),
            np.array([1, 4], dtype=np.int64),
        )
        cube.advance(12)
        cube.close()

    def test_log_info_renders_interval_records(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert repro_main(["log-info", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["extent"] is True
        assert info["record_counts"] == {
            "interval_insert": 1,
            "interval_batch": 1,
            "advance": 1,
        }

    def test_recover_reports_extent_state(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert repro_main(["recover", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["extent"] is True
        assert info["objects_inserted"] == 3
        assert info["clock"] == 12

    def test_checkpoint_command_dispatches_to_extent(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert repro_main(["checkpoint", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["checkpoint_id"] == 1
        # and the compacted directory still recovers
        recovered = DurableExtentCube.recover(tmp_path)
        assert recovered.intersecting(TimeInterval(0, 40)) == 7
        recovered.close()
