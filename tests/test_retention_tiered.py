"""Differential suite for the tiered retention subsystem.

Everything here is pinned against an *undemoted oracle*: the same
stream fed to a plain front must produce bit-identical answers from a
:class:`~repro.retention.TieredCube` after arbitrary demotions, on all
three storage backends, with and without the ``G_d`` buffer, in both
execution modes, and straight through a demote -> checkpoint -> crash ->
recover cycle.  The aged-``weather4`` footprint floor (>= 4x resident
reduction) guards the subsystem's reason to exist.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent import SnapshotCube
from repro.core.errors import StorageError
from repro.core.types import Box
from repro.durability import DurableCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.retention import TieredCube, TierPolicy, decode_tile, ps_box_sum, tiles
from repro.retention.planner import _corner_gather
from repro.workloads import weather4

BACKENDS = ("dense", "paged", "sparse")
SHAPE = (5, 4)
TIERS = [
    {"name": "hour", "granularity": 8, "horizon": 32},
    {"name": "day", "granularity": 32, "horizon": None},
]


def _bare_cube(backend, shape=SHAPE):
    if backend == "dense":
        return EvolvingDataCube(shape)
    if backend == "paged":
        return DiskEvolvingDataCube(shape)
    return SparseEvolvingDataCube(shape)


def _stream(seed, n, shape=SHAPE, late=0.12):
    """A mixed append/late stream of (point, delta) rows."""
    rng = np.random.default_rng(seed)
    t = 0
    points, deltas = [], []
    for _ in range(n):
        if rng.random() < 0.3:
            t += int(rng.integers(1, 3))
        cell = tuple(int(rng.integers(0, k)) for k in shape)
        when = t
        if rng.random() < late and t > 5:
            when = max(0, t - int(rng.integers(1, 20)))
        points.append((when,) + cell)
        deltas.append(int(rng.integers(1, 9)))
    return np.asarray(points, dtype=np.int64), np.asarray(deltas, dtype=np.int64)


def _boxes(seed, t_max, shape=SHAPE):
    rng = np.random.default_rng(seed)
    spans = [
        (0, t_max), (0, 10), (5, 40), (30, 70), (60, t_max), (0, 69),
        (0, 31), (32, 63), (8, 8), (min(64, t_max), min(64, t_max)),
    ]
    boxes = []
    for lo_t, hi_t in spans:
        cl = tuple(int(rng.integers(0, n // 2 + 1)) for n in shape)
        cu = tuple(int(rng.integers(c, n)) for c, n in zip(cl, shape))
        boxes.append(Box((lo_t,) + cl, (min(hi_t, t_max),) + cu))
    return boxes


class TestDifferentialOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("buffered", [False, True])
    def test_bit_identical_to_undemoted_oracle(self, tmp_path, backend, buffered):
        late = 0.12 if buffered else 0.0  # bare kernels are append-only
        points, deltas = _stream(3, 260, late=late)
        t_max = int(points[:, 0].max())
        if buffered:
            oracle = BufferedEvolvingDataCube(SHAPE, backend=backend)
            front = BufferedEvolvingDataCube(SHAPE, backend=backend)
        else:
            oracle = _bare_cube(backend)
            front = _bare_cube(backend)
        tiered = TieredCube(front, TIERS, tmp_path / "tiles")
        oracle.update_many(points, deltas)
        tiered.update_many(points, deltas)
        boxes = _boxes(11, t_max)
        for horizon in (t_max - 30, t_max - 5):
            demoted = tiered.demote_before(horizon)
            assert demoted >= 0
            for mode in ("fast", "metered"):
                assert tiered.query_many(boxes, mode=mode) == oracle.query_many(
                    boxes, mode=mode
                )
        assert tiered.demoted_through is not None
        assert len(tiered.tiles) >= 1

    def test_late_corrections_after_demotion_stay_exact(self, tmp_path):
        points, deltas = _stream(9, 200)
        t_max = int(points[:, 0].max())
        oracle = BufferedEvolvingDataCube(SHAPE)
        tiered = TieredCube(
            BufferedEvolvingDataCube(SHAPE), TIERS, tmp_path / "tiles"
        )
        oracle.update_many(points, deltas)
        tiered.update_many(points, deltas)
        tiered.demote_before(t_max - 10)
        # a correction aimed below the demotion watermark: the oracle
        # cascades it, the tiered front must fold it in via G_d
        late_point = (5,) + (1,) * len(SHAPE)
        oracle.update(late_point, 7)
        tiered.update(late_point, 7)
        oracle.drain(None)
        tiered.drain(None)
        boxes = _boxes(13, t_max)
        for mode in ("fast", "metered"):
            assert tiered.query_many(boxes, mode=mode) == oracle.query_many(
                boxes, mode=mode
            )

    def test_demotion_shrinks_resident_footprint(self, tmp_path):
        points, deltas = _stream(5, 400, late=0.0)
        t_max = int(points[:, 0].max())
        plain = BufferedEvolvingDataCube(SHAPE)
        tiered = TieredCube(
            BufferedEvolvingDataCube(SHAPE), TIERS, tmp_path / "tiles"
        )
        plain.update_many(points, deltas)
        tiered.update_many(points, deltas)
        tiered.demote_before(t_max - 3)
        assert tiered.resident_slice_bytes() < plain.resident_slice_bytes()


class TestTierPolicy:
    def test_config_round_trip(self):
        policy = TierPolicy.from_config(TIERS)
        assert policy.to_config() == TierPolicy.from_config(
            policy.to_config()
        ).to_config()
        assert [spec.name for spec in policy] == ["hour", "day"]

    def test_granularities_must_coarsen(self):
        from repro.core.errors import DomainError

        with pytest.raises(DomainError):
            TierPolicy.from_config(
                [
                    {"name": "a", "granularity": 16, "horizon": 32},
                    {"name": "b", "granularity": 8, "horizon": None},
                ]
            )

    def test_granularities_must_nest(self):
        from repro.core.errors import DomainError

        with pytest.raises(DomainError):
            TierPolicy.from_config(
                [
                    {"name": "a", "granularity": 8, "horizon": 32},
                    {"name": "b", "granularity": 12, "horizon": None},
                ]
            )


class TestDurableRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_demote_checkpoint_crash_recover_bit_identical(
        self, tmp_path, backend
    ):
        points, deltas = _stream(3, 200)
        t_max = int(points[:, 0].max())
        oracle = BufferedEvolvingDataCube(SHAPE, backend=backend)
        durable = DurableCube(SHAPE, tmp_path / "cube", backend=backend, tiers=TIERS)
        oracle.update_many(points, deltas)
        durable.update_many(points, deltas)
        durable.demote_before(t_max - 40)
        durable.checkpoint()
        tail_points, tail_deltas = _stream(5, 100)
        tail_points[:, 0] += t_max
        oracle.update_many(tail_points, tail_deltas)
        durable.update_many(tail_points, tail_deltas)
        durable.demote_before(t_max - 10)
        durable.flush()
        state_before = {
            key: np.array(value)
            for key, value in durable.front.retention_state_arrays().items()
        }
        del durable  # crash: no close, no final checkpoint
        recovered = DurableCube.recover(tmp_path / "cube")
        try:
            state_after = recovered.front.retention_state_arrays()
            assert sorted(state_after) == sorted(state_before)
            for key, value in state_before.items():
                np.testing.assert_array_equal(
                    state_after[key], value, err_msg=key
                )
            oracle.drain(None)
            recovered.drain(None)
            boxes = _boxes(7, t_max)
            for mode in ("fast", "metered"):
                got = recovered.query_many(boxes, mode=mode)
                assert got == oracle.query_many(boxes, mode=mode)
        finally:
            recovered.close()

    def test_untiered_durable_cube_rejects_demote(self, tmp_path):
        from repro.core.errors import DomainError

        durable = DurableCube(SHAPE, tmp_path / "cube")
        try:
            durable.update((0, 0, 0, 0, 0, 0)[: len(SHAPE) + 1], 1)
            with pytest.raises(DomainError):
                durable.demote_before(10)
        finally:
            durable.close()


class TestSnapshotReadersSurviveDemotion:
    def test_pinned_view_keeps_predemote_answers(self, tmp_path):
        points, deltas = _stream(3, 220, late=0.0)
        t_max = int(points[:, 0].max())
        tiered = TieredCube(
            BufferedEvolvingDataCube(SHAPE), TIERS, tmp_path / "tiles"
        )
        snap = SnapshotCube(tiered)
        snap.update_many(points, deltas)
        live_boxes = [
            box
            for box in _boxes(17, t_max)
            if box.lower[0] >= t_max - 5
        ] + [Box((t_max - 4, 0, 0), (t_max, *[n - 1 for n in SHAPE]))]
        with snap.pin() as view:
            before = view.query_many(live_boxes)
            tiered.demote_before(t_max - 5)
            # the pinned epoch still routes through payloads the demote
            # finalized and retired: answers must not move
            assert view.query_many(live_boxes) == before
        # a fresh pin sees the demoted cube; live-region answers agree
        assert snap.query_many(live_boxes) == before


class TestAgedWeather4Footprint:
    def test_four_x_resident_reduction_with_identical_answers(self, tmp_path):
        data = weather4(scale=0.2)
        tiers = [
            {"name": "hour", "granularity": 4, "horizon": 8},
            {"name": "day", "granularity": 24, "horizon": None},
        ]
        plain = BufferedEvolvingDataCube(data.slice_shape)
        tiered = TieredCube(
            BufferedEvolvingDataCube(data.slice_shape),
            tiers,
            tmp_path / "tiles",
        )
        plain.update_many(data.coords, data.values)
        tiered.update_many(data.coords, data.values)
        t_max = int(data.coords[:, 0].max())
        horizon = t_max - 2  # aged: nearly all history behind the watermark
        tiered.demote_before(horizon)
        resident_plain = plain.resident_slice_bytes()
        resident_tiered = tiered.resident_slice_bytes()
        assert resident_plain >= 4 * resident_tiered, (
            f"footprint floor violated: {resident_plain} undemoted vs "
            f"{resident_tiered} demoted"
        )
        full_cell = tuple(n - 1 for n in data.slice_shape)
        origin = (0,) * len(data.slice_shape)
        boxes = [
            Box((0,) + origin, (t_max,) + full_cell),
            Box((0,) + origin, (horizon - 1,) + full_cell),
            Box((horizon,) + origin, (t_max,) + full_cell),
            Box((3,) + origin, (11,) + full_cell),
        ]
        assert tiered.query_many(boxes) == plain.query_many(boxes)


class TestShardedDemotion:
    def test_inline_sharded_matches_unsharded_tiered_oracle(self, tmp_path):
        from repro.sharding import ShardedCube

        shape = (6, 5)
        points, deltas = _stream(3, 300, shape=shape)
        t_max = int(points[:, 0].max())
        oracle = TieredCube(
            BufferedEvolvingDataCube(shape), TIERS, tmp_path / "oracle"
        )
        oracle.update_many(points, deltas)
        sharded = ShardedCube(
            shape,
            shards=2,
            processes=False,
            tiers=TIERS,
            tile_root=tmp_path / "tiles",
        )
        try:
            sharded.update_many(points, deltas)
            boxes = _boxes(11, t_max, shape=shape)
            assert sharded.query_many(boxes) == oracle.query_many(boxes)
            assert oracle.demote_before(t_max - 20) >= 1
            assert sharded.demote_before(t_max - 20) >= 1
            assert sharded.router.demote_boundary == oracle.demoted_through
            assert sharded.query_many(boxes) == oracle.query_many(boxes)
        finally:
            sharded.close()

    def test_durable_sharded_recovers_demote_boundary(self, tmp_path):
        from repro.sharding import ShardedCube

        shape = (6, 5)
        points, deltas = _stream(7, 250, shape=shape)
        t_max = int(points[:, 0].max())
        oracle = TieredCube(
            BufferedEvolvingDataCube(shape), TIERS, tmp_path / "oracle"
        )
        oracle.update_many(points, deltas)
        oracle.demote_before(t_max - 15)
        cube = ShardedCube(
            shape,
            shards=2,
            processes=False,
            durable_dir=tmp_path / "fleet",
            tiers=TIERS,
        )
        cube.update_many(points, deltas)
        cube.demote_before(t_max - 15)
        cube.checkpoint()
        boundary = cube.router.demote_boundary
        cube.close()
        recovered = ShardedCube.recover(tmp_path / "fleet", processes=False)
        try:
            assert recovered.router.demote_boundary == boundary
            boxes = _boxes(13, t_max, shape=shape)
            assert recovered.query_many(boxes) == oracle.query_many(boxes)
        finally:
            recovered.close()


# -- demoted prefixes across many tiles ----------------------------------------

#: tiers coarse enough that most demoted instants live only in tiles
FEW_ROLLUPS = [
    {"name": "hour", "granularity": 8, "horizon": 16},
    {"name": "day", "granularity": 64, "horizon": None},
]


def _five_tile_cube(directory, backend="dense", buffered=True):
    """A cube demoted into five tiles, plus its full update stream.

    Buffered fronts also get late corrections aimed below the demotion
    watermark, left in ``G_d``.
    """
    points, deltas = _stream(21, 420, late=0.0)
    t_max = int(points[:, 0].max())
    front = (
        BufferedEvolvingDataCube(SHAPE, backend=backend)
        if buffered
        else _bare_cube(backend)
    )
    tiered = TieredCube(front, FEW_ROLLUPS, directory)
    tiered.update_many(points, deltas)
    for step in range(1, 6):
        assert tiered.demote_before(t_max * step // 7) >= 1
    assert len(tiered.tiles) == 5
    if buffered:
        rng = np.random.default_rng(4)
        late = np.column_stack(
            [rng.integers(0, tiered.demoted_through, size=9)]
            + [rng.integers(0, n, size=9) for n in SHAPE]
        ).astype(np.int64)
        late_deltas = rng.integers(1, 9, size=9).astype(np.int64)
        for point, delta in zip(late, late_deltas):
            tiered.update(tuple(int(c) for c in point), int(delta))
        assert len(tiered.buffer) == 9
        points = np.concatenate((points, late))
        deltas = np.concatenate((deltas, late_deltas))
    return tiered, points, deltas


def _prefix_oracle(points, deltas, t_max):
    """Dense NumPy prefix-sum oracle: box sums by ``2^(d+1)`` corners."""
    dense = np.zeros((t_max + 1, *SHAPE), dtype=np.int64)
    np.add.at(dense, tuple(points.T), deltas)
    prefix = np.zeros(tuple(n + 1 for n in dense.shape), dtype=np.int64)
    prefix[(slice(1, None),) * dense.ndim] = dense
    for axis in range(dense.ndim):
        prefix = np.cumsum(prefix, axis=axis)

    def answer(box):
        total = 0
        for mask in range(1 << dense.ndim):
            corner, sign = [], 1
            for axis in range(dense.ndim):
                if (mask >> axis) & 1:
                    corner.append(int(box.lower[axis]))
                    sign = -sign
                else:
                    corner.append(int(box.upper[axis]) + 1)
            total += sign * int(prefix[tuple(corner)])
        return total

    return answer


def _tile_only_times(tiered):
    """Per tile, its occurring times that no rollup tier retains."""
    retained = {t for tier in tiered.tiers for t in tier.times}
    return [
        [
            int(t)
            for t in decode_tile((tiered.tiles.directory / name).read_bytes())[1]
            if int(t) not in retained
        ]
        for name in tiered.tiles.tile_names()
    ]


class TestBatchedTileReads:
    def test_each_tile_decompresses_at_most_once_per_batch(
        self, tmp_path, monkeypatch
    ):
        tiered, points, deltas = _five_tile_cube(tmp_path / "tiles")
        oracle = _prefix_oracle(points, deltas, int(points[:, 0].max()))
        per_tile = _tile_only_times(tiered)
        assert all(per_tile)
        cells = tuple(n - 1 for n in SHAPE)
        # cycle through the tiles twice: a two-tile LRU read one prefix
        # at a time would decompress all ten
        boxes = [
            Box((0, 0, 0), (times[k % len(times)],) + cells)
            for k in range(2)
            for times in per_tile
        ]
        calls = []
        real = tiles._decompress

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(tiles, "_decompress", counting)
        tiered.tiles.drop_cache()
        assert tiered.query_many(boxes) == [oracle(box) for box in boxes]
        assert len(calls) <= len(per_tile)
        # one box whose two prefixes floor in different tiles
        calls.clear()
        tiered.tiles.drop_cache()
        box = Box((per_tile[1][0] + 1, 1, 0), (per_tile[3][0],) + cells)
        assert tiered.query_many([box]) == [oracle(box)]
        assert len(calls) <= 2

    @pytest.mark.parametrize("damage", ["payload", "header", "torn"])
    def test_damaged_tile_refused_not_answered(self, tmp_path, damage):
        tiered, _, _ = _five_tile_cube(tmp_path / "tiles")
        per_tile = _tile_only_times(tiered)
        path = tiered.tiles.directory / tiered.tiles.tile_names()[2]
        data = bytearray(path.read_bytes())
        if damage == "payload":
            data[-10] ^= 0xFF
        elif damage == "header":
            data[8] ^= 0xFF  # slice-count field, covered by the header CRC
        else:
            data = data[:-7]
        path.write_bytes(bytes(data))
        tiered.tiles.drop_cache()
        box = Box((0, 0, 0), (per_tile[2][0],) + tuple(n - 1 for n in SHAPE))
        with pytest.raises(StorageError):
            tiered.query_many([box])


CUBES = [(backend, buffered) for backend in BACKENDS for buffered in (False, True)]


@pytest.fixture(scope="module", params=CUBES, ids=lambda p: f"{p[0]}-{p[1]}")
def demoted_cube(request, tmp_path_factory):
    backend, buffered = request.param
    directory = tmp_path_factory.mktemp(f"tiles-{backend}-{buffered}")
    tiered, points, deltas = _five_tile_cube(directory, backend, buffered)
    t_max = int(points[:, 0].max())
    watermark = tiered.demoted_through
    # instants where prefixes floor in tiles, on rollups, on the
    # watermark and in live slices
    marked = sorted(
        {t for tier in tiered.tiers for t in tier.times}
        | {t for times in _tile_only_times(tiered) for t in times[:3]}
        | {watermark - 1, watermark, watermark + 1, t_max}
    )
    return tiered, _prefix_oracle(points, deltas, t_max), t_max, marked


@st.composite
def _batch(draw, t_max, marked):
    time = st.one_of(st.sampled_from(marked), st.integers(0, t_max))
    boxes = []
    for _ in range(draw(st.integers(1, 12))):
        t1, t2 = sorted((draw(time), draw(time)))
        lower = [draw(st.integers(0, n - 1)) for n in SHAPE]
        upper = [draw(st.integers(lo, n - 1)) for lo, n in zip(lower, SHAPE)]
        boxes.append(Box((t1, *lower), (t2, *upper)))
    return boxes


class TestHypothesisDifferential:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_batches_match_dense_prefix_oracle(self, demoted_cube, data):
        tiered, oracle, t_max, marked = demoted_cube
        boxes = data.draw(_batch(t_max, marked))
        mode = data.draw(st.sampled_from(["fast", "metered"]))
        assert tiered.query_many(boxes, mode=mode) == [oracle(b) for b in boxes]


def _loop_box_sum(ps, lower, upper):
    """Reference: the ``2^d`` corner loop over Python integers."""
    hi = [min(int(u), n - 1) for u, n in zip(upper, ps.shape)]
    lo = [max(int(b), 0) - 1 for b in lower]
    if any(h < x + 1 for h, x in zip(hi, lo)):
        return 0
    total = 0
    for mask in range(1 << ps.ndim):
        bits = [(mask >> axis) & 1 for axis in range(ps.ndim)]
        if any(b and x < 0 for b, x in zip(bits, lo)):
            continue
        corner = tuple(x if b else h for b, h, x in zip(bits, hi, lo))
        total += (-1) ** sum(bits) * int(ps[corner])
    return total


@st.composite
def _slice_and_boxes(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=3)))
    size = int(np.prod(shape))
    ps = np.asarray(
        draw(st.lists(st.integers(-(2**40), 2**40), min_size=size, max_size=size)),
        dtype=np.int64,
    ).reshape(shape)
    bound = st.integers(-2, 6)
    boxes = draw(
        st.lists(
            st.tuples(
                st.tuples(*[bound] * len(shape)), st.tuples(*[bound] * len(shape))
            ),
            min_size=1,
            max_size=6,
        )
    )
    return ps, boxes


class TestCornerGather:
    @settings(max_examples=80, deadline=None)
    @given(_slice_and_boxes())
    def test_matches_the_corner_loop_with_clamps(self, inputs):
        ps, boxes = inputs
        expect = [_loop_box_sum(ps, lower, upper) for lower, upper in boxes]
        assert [ps_box_sum(ps, lower, upper) for lower, upper in boxes] == expect
        cells, weights = _corner_gather(
            ps.shape, [lo for lo, _ in boxes], [up for _, up in boxes]
        )
        got = (ps.reshape(-1)[cells] * weights).sum(axis=1)
        assert got.tolist() == expect
