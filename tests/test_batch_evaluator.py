"""One batch evaluator, every slice source.

:func:`repro.ecube.fastpath.evaluate_batch` answers the kernel's fast
``query_many`` (over the live store) and the shard readers (over frozen
epochs, inline or attached from shared memory).  These tests hold the
sources to one dense ``np.cumsum`` oracle, to the same errors, to the
unrecoverable-slice fallback, and to lazy per-epoch normalization.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent import EpochSource, SnapshotCube
from repro.concurrent import snapshot as snapshot_module
from repro.concurrent.snapshot import SnapshotView
from repro.core.errors import AgedOutError, DomainError
from repro.core.types import Box
from repro.ecube.kernel import CubeKernel
from repro.sharding import GridPartitioner, leaked_segments
from repro.sharding.shm import BlockCache, EpochExporter, epoch_from_shared_memory
from repro.sharding.worker import ReaderState

from .test_backend_equivalence import BACKENDS, make_cube


def _oracle(dense: np.ndarray, box: Box) -> int:
    """Difference of two time prefixes of a dense ``np.cumsum`` cube."""
    prefix = np.cumsum(dense, axis=0)
    cells = tuple(
        slice(max(lo, 0), up + 1) for lo, up in zip(box.lower[1:], box.upper[1:])
    )
    t_up = min(box.upper[0], dense.shape[0] - 1)
    total = int(prefix[(t_up,) + cells].sum()) if t_up >= 0 else 0
    if box.lower[0] > 0:
        total -= int(prefix[(min(box.lower[0] - 1, dense.shape[0] - 1),) + cells].sum())
    return total


class _Shm:
    """The current epoch of ``snap`` attached back from shared memory."""

    def __init__(self, snap: SnapshotCube, tag: str) -> None:
        self.exporter = EpochExporter(snap, tag=tag)
        self.cache = BlockCache()

    def source(self) -> EpochSource:
        descriptor = self.exporter.export()
        return EpochSource(epoch_from_shared_memory(descriptor, self.cache))

    def close(self) -> None:
        self.cache.close_all()
        self.exporter.close()


def _outcome(query, batch):
    try:
        return [int(v) for v in query(batch)]
    except (AgedOutError, DomainError) as exc:
        return type(exc), str(exc)


class TestUnrecoverableSliceFallback:
    """A converted cell whose lazy copy never landed, on every source.

    A metered query converts cells of historic slice 0 while their lazy
    copies are still pending; newer updates to the same cells then skip
    the copy (``_copy_cell`` leaves PS cells alone), so slice 0's DDC
    state cannot be rebuilt and every source must take its fallback.
    """

    SHAPE = (4, 4)

    def _build(self, backend):
        cube = make_cube(backend, self.SHAPE)
        cube.copy_budget = 0
        dense = np.zeros((3,) + self.SHAPE, dtype=np.int64)
        updates = [((0, 1, 1), 5), ((0, 2, 3), 2), ((1, 0, 2), 7)]
        late = [((2, 1, 1), 1), ((2, 2, 3), 1)]
        for point, delta in updates:
            cube.update(point, delta)
        cube.query_many([Box((0, 1, 1), (0, 2, 3))], mode="metered")
        for point, delta in late:
            cube.update(point, delta)
        for point, delta in updates + late:
            dense[point] += delta
        return cube, dense

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_source_matches_the_oracle_through_its_fallback(
        self, backend, monkeypatch
    ):
        cube, dense = self._build(backend)
        snap = SnapshotCube(cube)
        shm = _Shm(snap, tag=f"fb-{backend}-")
        reader = ReaderState(GridPartitioner(self.SHAPE, (1, 1)))
        boxes = [
            Box((0, a, b), (t, c, d))
            for t in (0, 1, 2)
            for a in range(4)
            for c in range(a, 4)
            for b, d in ((0, 3), (1, 3), (2, 2))
        ]
        expected = [_oracle(dense, box) for box in boxes]
        walks = {"kernel": 0, "pure": 0}
        slice_query = CubeKernel._slice_query
        pure = SnapshotView._pure_slice_query

        def counting_slice_query(kernel, *args):
            walks["kernel"] += 1
            return slice_query(kernel, *args)

        def counting_pure(view, *args):
            walks["pure"] += 1
            return pure(view, *args)

        monkeypatch.setattr(CubeKernel, "_slice_query", counting_slice_query)
        monkeypatch.setattr(SnapshotView, "_pure_slice_query", counting_pure)
        try:
            with snap.pin() as view:
                assert view.query_many(boxes) == expected
                assert walks["pure"] > 0
            walks["pure"] = 0
            inline = {0: ("inline", snap._current, snap)}
            assert reader.query_many(inline, boxes) == expected
            assert walks["pure"] > 0
            walks["pure"] = 0
            attached = {0: shm.exporter.export()}
            assert reader.query_many(attached, boxes) == expected
            assert walks["pure"] > 0
            assert walks["kernel"] == 0
            assert cube.query_many(boxes, mode="fast") == expected
            assert walks["kernel"] > 0
            assert cube.query_many(boxes, mode="metered") == expected
        finally:
            reader.close()
            shm.close()
            snap.close()
        assert not leaked_segments()


_streams = st.lists(
    st.tuples(
        st.integers(0, 2),  # time step
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(-3, 9),
    ),
    min_size=1,
    max_size=30,
)
_late = st.lists(
    st.tuples(
        st.integers(0, 11), st.integers(0, 4), st.integers(0, 3), st.integers(1, 5)
    ),
    max_size=4,
)
_boxes = st.lists(
    st.tuples(
        st.integers(-1, 13), st.integers(0, 13),  # time corner, extent
        st.integers(-1, 5), st.integers(0, 5),  # axis 1
        st.integers(-1, 4), st.integers(0, 4),  # axis 2
    ),
    min_size=1,
    max_size=12,
)


class TestSourceDifferential:
    """Kernel, inline-epoch and shm-epoch sources vs a dense oracle."""

    SHAPE = (5, 4)

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(
        stream=_streams, late=_late, retire=st.none() | st.integers(0, 12), raw=_boxes
    )
    def test_sources_agree_with_the_oracle(self, backend, stream, late, retire, raw):
        cube = make_cube(backend, self.SHAPE)
        snap = SnapshotCube(cube)
        dense = np.zeros((14,) + self.SHAPE, dtype=np.int64)
        t = 0
        for step, a, b, delta in stream:
            t = min(t + step, 11)
            cube.update((t, a, b), delta)
            dense[t, a, b] += delta
        for time, a, b, delta in late:
            if time < t:  # historic: cascades, or splices a new instance
                cube.apply_out_of_order((time, a, b), delta)
                dense[time, a, b] += delta
        if retire is not None:
            cube.retire_before(retire)
        boxes = [
            Box((t0, a0, b0), (t0 + dt, a0 + da, b0 + db))
            for t0, dt, a0, da, b0, db in raw
        ]
        shm = _Shm(snap, tag="diff-")
        try:
            _compare_sources(cube, snap, shm, boxes, dense)
        finally:
            shm.close()
            snap.close()
        assert not leaked_segments()


def _compare_sources(cube, snap, shm, boxes, dense) -> None:
    """Each box alone, then the answerable ones as one batch.

    A helper so the shm-backed source dies with its frame, before the
    caller closes the mappings it aliases.
    """
    sources = {
        "kernel": lambda batch: cube.query_many(batch, mode="fast"),
        "inline": EpochSource(snap._current, cube=snap).query_many,
        "shm": shm.source().query_many,
    }
    answerable = []
    for box in boxes:
        outcomes = {name: _outcome(query, [box]) for name, query in sources.items()}
        assert outcomes["inline"] == outcomes["kernel"], box
        assert outcomes["shm"] == outcomes["kernel"], box
        if isinstance(outcomes["kernel"], list):
            assert outcomes["kernel"] == [_oracle(dense, box)], box
            answerable.append(box)
    expected = [_oracle(dense, box) for box in answerable]
    for query in sources.values():
        assert [int(v) for v in query(answerable)] == expected


def _touched(source: EpochSource, box: Box) -> list[int]:
    """One point query on a fresh epoch source; at most 2 slices normalized."""
    answers = [int(v) for v in source.query_many([box])]
    assert len(source.normalized) <= 2
    return answers


class TestLazyNormalization:
    def _fresh_ddc_cube(self, backend):
        """20 slices, none converted (no metered query ever ran)."""
        cube = make_cube(backend, (6, 5))
        dense = np.zeros((20, 6, 5), dtype=np.int64)
        rng = np.random.default_rng(7)
        for t in range(20):
            point = (t, int(rng.integers(0, 6)), int(rng.integers(0, 5)))
            cube.update(point, 1 + t)
            dense[point] += 1 + t
        return cube, dense

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_point_query_normalizes_only_the_slices_it_touches(self, backend):
        cube, dense = self._fresh_ddc_cube(backend)
        snap = SnapshotCube(cube)
        shm = _Shm(snap, tag=f"lazy-{backend}-")
        box = Box((5, 1, 1), (9, 3, 2))
        expected = [_oracle(dense, box)]
        try:
            assert _touched(EpochSource(snap._current, cube=snap), box) == expected
            assert _touched(shm.source(), box) == expected
        finally:
            shm.close()
            snap.close()
        assert not leaked_segments()

    def test_normalized_slices_are_memoized_for_the_epoch(self, monkeypatch):
        cube, _ = self._fresh_ddc_cube("dense")
        snap = SnapshotCube(cube)
        source = EpochSource(snap._current, cube=snap)
        built = []
        original = snapshot_module.normalize_rows

        def counting(fast, out, *args):
            built.append(out.shape[0])
            return original(fast, out, *args)

        monkeypatch.setattr(snapshot_module, "normalize_rows", counting)
        box = Box((3, 0, 0), (12, 5, 4))
        first = source.query_many([box])
        assert sum(built) == 2
        again = source.query_many([box, box])
        assert np.array_equal(again, np.concatenate([first, first]))
        assert sum(built) == 2
        snap.close()
