"""The cross-tier query planner: :class:`TieredCube`.

``TieredCube`` fronts any kernel-backed cube (bare or ``G_d``-buffered)
and replaces *deleting* aged history (``retire_before``) with *demoting*
it (:meth:`TieredCube.demote_before`): converged PS slices below the
horizon are finalized, written to a full-fidelity compressed tile
(:mod:`repro.retention.tiles`), folded into the rollup tiers
(:mod:`repro.retention.tiers`), and only then released from the live
store.

Cross-tier answering is the paper's prefix-difference trick applied
across resolutions.  Every range aggregate decomposes into two signed
cumulative prefixes, ``F(t_up) - F(t_lo - 1)``; each prefix floors onto
an occurring instance and is answered by whichever tier still holds that
instance's cumulative PS slice:

* floor at or above the demotion watermark -- the **live kernel** (via
  the front, so the ``G_d`` buffered contribution folds in as usual);
* floor on a retained rollup boundary -- the **rollup tier's** slice,
  in memory, no decode (the tier-aligned fast path);
* any other demoted floor -- the **tile** slice (exact for *every*
  demoted instance, because tiles keep full fidelity);
* plus, for demoted prefixes of a buffered front, the ``G_d`` range
  contribution over the same prefix box (buffered corrections aimed
  below the horizon stay exact through post-processing, exactly as they
  do across the plain retirement boundary).

Because converged PS slices are immutable and tiles are lossless, the
composed answer is *bit-identical* to an undemoted oracle everywhere --
tier-aligned or not -- which the differential suite pins across all
three backends.

A demotion drains the ``G_d`` buffer first (corrections aimed into the
region being demoted can still cascade while it is live), preserves
pinned snapshot epochs (the kernel's ``preserve_epochs`` discipline runs
before the first payload is touched), and is deterministic: replaying
the same ``demote_before`` against the same kernel state rewrites
byte-identical tiles, which is what lets the durable layer replay a
``TYPE_DEMOTE`` WAL record after a crash.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.core.errors import AgedOutError, DomainError, StorageError
from repro.core.types import Box
from repro.retention.tiers import TierPolicy, RollupTier
from repro.retention.tiles import TileStore

_NONE = np.iinfo(np.int64).min


def _corner_gather(shape, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Flat cells and signed weights of the ``2^d`` PS corner gather.

    ``lower``/``upper`` are ``(n, d)`` cell-dimension box corners; the
    per-axis terms ``{upper: +1, lower-1: -1 if lower > 0}`` are clamped
    to ``shape``.  A skipped corner or an empty box gets weight 0.
    """
    dims = np.asarray(shape, dtype=np.int64)
    d = dims.shape[0]
    bits = (np.arange(1 << d) >> np.arange(d)[:, None]) & 1  # (d, 2^d)
    strides = np.asarray([dims[a + 1 :].prod() for a in range(d)], dtype=np.int64)
    hi = np.minimum(np.asarray(upper, dtype=np.int64).reshape(len(upper), d), dims - 1)
    lo = np.maximum(np.asarray(lower, dtype=np.int64).reshape(len(lower), d), 0) - 1
    cells = (hi @ strides)[:, None] + ((lo - hi) * strides) @ bits
    dead = ((lo < 0) @ bits > 0) | (hi <= lo).any(axis=1)[:, None]
    sign = 1 - 2 * (bits.sum(axis=0) & 1)
    return np.where(dead, 0, cells), np.where(dead, 0, sign)


@functools.lru_cache(maxsize=256)
def _box_corners(shape, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    cells, weights = _corner_gather(shape, (lower,), (upper,))
    cells.flags.writeable = weights.flags.writeable = False  # shared by callers
    return cells[0], weights[0]


def ps_box_sum(ps: np.ndarray, lower: Sequence[int], upper: Sequence[int]) -> int:
    """Inclusion-exclusion range sum over one cumulative PS slice.

    One box of :func:`_corner_gather`, memoized per box: callers such as
    ``estimate_prefix`` sum one box over several slices.
    """
    cells, weights = _box_corners(
        ps.shape, tuple(int(c) for c in lower), tuple(int(c) for c in upper)
    )
    return int(ps.reshape(-1)[cells] @ weights)


class TieredCube:
    """Tiered-retention front over a kernel-backed cube.

    Implements the :class:`~repro.core.framework.BatchExecutor` protocol
    (queries route across tiers; updates and everything else delegate to
    the wrapped front).

    Parameters
    ----------
    front:
        A :class:`~repro.ecube.buffered.BufferedEvolvingDataCube` or a
        bare kernel cube (``EvolvingDataCube`` and friends).
    policy:
        A :class:`~repro.retention.tiers.TierPolicy` (or its JSON form).
    tile_dir:
        Directory for the immutable historic tiles.
    """

    def __init__(self, front, policy, tile_dir, codec: str = "zlib") -> None:
        self.front = front
        self.policy = TierPolicy.from_config(policy)
        self.tiles = TileStore(tile_dir, codec=codec)
        self.tiers = [RollupTier(spec) for spec in self.policy]
        #: first occurring time still live (the demotion watermark)
        self._demoted_through: int | None = None
        #: largest horizon ever requested (the tier-eviction clock)
        self._demote_horizon: int | None = None
        #: newest demoted instance (carried into the next fold)
        self._last_time: int | None = None
        self._last_ps: np.ndarray | None = None

    # -- delegation -----------------------------------------------------------

    @property
    def cube(self):
        """The wrapped :class:`~repro.ecube.kernel.CubeKernel` cube."""
        return getattr(self.front, "cube", self.front)

    @property
    def buffer(self):
        """The front's ``G_d`` buffer, or ``None`` for a bare kernel."""
        return getattr(self.front, "buffer", None)

    def __getattr__(self, name: str):
        # everything not retention-aware (updates, drains, snapshots,
        # durability hooks) behaves exactly as the wrapped front
        if name == "front":
            raise AttributeError(name)
        return getattr(self.front, name)

    @property
    def demoted_through(self) -> int | None:
        return self._demoted_through

    @property
    def demote_horizon(self) -> int | None:
        return self._demote_horizon

    # -- demotion -------------------------------------------------------------

    def demote_before(self, time: int) -> int:
        """Demote detail older than ``time`` into tiles + rollups.

        Same boundary discipline as
        :meth:`~repro.ecube.kernel.CubeKernel.retire_before` -- the
        newest instance below ``time`` stays live as the cumulative
        boundary -- but every released slice is preserved at full
        fidelity on disk first.  Returns the number of slices demoted.
        """
        time = int(time)
        kernel = self.cube
        if not kernel.directory:
            return 0
        # corrections aimed below the new horizon can still cascade now;
        # after the demote they would sit in G_d forever
        if self.buffer is not None:
            self.front.drain(None)
        boundary = kernel.directory.floor_index(time - 1)
        if boundary <= kernel._retired_below:
            return 0
        # pinned snapshot epochs still route reads through live payloads;
        # freeze them before finalization rewrites any representation
        kernel._prepare_historic_mutation()
        times: list[int] = []
        slices: list[np.ndarray] = []
        for index in range(kernel._retired_below, boundary):
            occurring, payload = kernel.directory.at_index(index)
            if payload.retired:
                continue  # plain retire already dropped it; nothing to save
            self._finalize_slice(kernel, index, int(occurring))
            values, _ = kernel.store.slice_views(payload)
            times.append(int(occurring))
            slices.append(np.array(values, dtype=np.int64))
        demoted_through = int(kernel.directory.at_index(boundary)[0])
        if times:
            stack = np.stack(slices)
            times_arr = np.asarray(times, dtype=np.int64)
            self.tiles.write_tile(stack, times_arr)
            for tier in self.tiers:
                tier.absorb(
                    times_arr, stack, self._last_time, self._last_ps,
                    demoted_through,
                )
            self._last_time = times[-1]
            self._last_ps = slices[-1]
        self._demoted_through = demoted_through
        self._demote_horizon = (
            time
            if self._demote_horizon is None
            else max(self._demote_horizon, time)
        )
        for tier in self.tiers:
            tier.evict(self._demote_horizon)
        # retire at the kernel, not through the buffered front: its
        # retire path prunes G_d entries below the boundary, but here
        # those entries are live tier-correction state (query_many adds
        # them back over demoted prefixes)
        return kernel.retire_before(time)

    def retire_before(self, time: int) -> int:
        """Hard-retire live detail below ``time`` without demoting it.

        Unlike the buffered front's retire this never prunes ``G_d``:
        buffered corrections below the demotion watermark still
        contribute to demoted-prefix answers.
        """
        return self.cube.retire_before(int(time))

    def prune_retired(self) -> int:
        """No-op on a tiered front (returns 0).

        Every demoted instant stays answerable from rollups or tiles,
        so buffered corrections below the watermark are observable
        forever -- there is no dead region to prune.
        """
        return 0

    def _finalize_slice(self, kernel, index: int, occurring: int) -> None:
        """Install the full PS representation on one historic slice.

        The vectorized recovery (``bulk_finalize_slice``) bails on mixed
        slices where a cell was PS-converted after its lazy-copy stamp
        had already advanced past the slice -- the cell's DDC value is
        gone from both the payload and the cache.  The metered per-cell
        path does not need it: DDC conversion is intra-slice, so walking
        every cell's cumulative prefix persists the remaining
        conversions, after which the slice is fully PS and finalization
        is a trivial early return.
        """
        if kernel.bulk_finalize_slice(index):
            return
        shape = tuple(kernel.slice_shape)
        origin = (0,) * len(shape)
        for cell in np.ndindex(shape):
            kernel._slice_query(index, Box(origin, cell))
        if not kernel.bulk_finalize_slice(index):
            raise StorageError(
                f"cannot finalize instance at t={occurring} for demotion"
            )

    # -- queries --------------------------------------------------------------

    def query(self, box: Box) -> int:
        return self.query_many([box], mode="metered")[0]

    def _decompose(self, boxes: list[Box], mode: str):
        """A batch's live answers and its demoted cumulative prefixes.

        Returns ``(live, demoted)``: ``live`` holds ``(box index, signed
        value)`` pairs answered by the front in one batch; ``demoted``
        holds ``(box index, sign, floor time, prefix box)`` tuples.
        """
        kernel = self.cube
        retired_below = kernel._retired_below
        if retired_below == 0 or not kernel.directory:
            return list(enumerate(self.front.query_many(boxes, mode=mode))), []
        directory = kernel.directory
        occurring = directory.times()
        low = int(occurring[0])
        buffer = self.buffer
        if buffer is not None and len(buffer):
            low = min(low, int(buffer._points[: buffer._size, 0].min()))
        live_boxes: list[Box] = []
        live_slots: list[tuple[int, int]] = []  # (box index, sign)
        demoted: list[tuple[int, int, int, Box]] = []
        for i, box in enumerate(boxes):
            prefixes = ((int(box.upper[0]), 1), (int(box.lower[0]) - 1, -1))
            floors = [directory.floor_index(p) for p, _ in prefixes]
            if all(f < 0 or f >= retired_below for f in floors):
                live_boxes.append(box)
                live_slots.append((i, 1))  # whole-box passthrough
                continue
            for (prefix, sign), floor in zip(prefixes, floors):
                if floor < 0:
                    continue
                prefix_box = Box(
                    (low,) + tuple(box.lower[1:]),
                    (prefix,) + tuple(box.upper[1:]),
                )
                if floor >= retired_below:
                    live_boxes.append(prefix_box)
                    live_slots.append((i, sign))
                else:
                    demoted.append((i, sign, int(occurring[floor]), prefix_box))
        values = self.front.query_many(live_boxes, mode=mode) if live_boxes else []
        live = [(i, sign * int(v)) for (i, sign), v in zip(live_slots, values)]
        return live, demoted

    def _buffered_sums(self, demoted, mode: str) -> list[int]:
        """The ``G_d`` contribution over every demoted prefix box."""
        buffer = self.buffer
        if buffer is None or not len(buffer) or not demoted:
            return [0] * len(demoted)
        return buffer.range_sum_many(
            [prefix_box for _, _, _, prefix_box in demoted],
            mode="fast" if mode == "fast" else "metered",
        )

    def _prefix_corners(self, demoted) -> tuple[np.ndarray, np.ndarray]:
        """One :func:`_corner_gather` over every demoted prefix box."""
        boxes = [prefix_box for _, _, _, prefix_box in demoted]
        lower, upper = [b.lower[1:] for b in boxes], [b.upper[1:] for b in boxes]
        return _corner_gather(self.cube.slice_shape, lower, upper)

    def _rollup_slice(self, floor_time: int) -> np.ndarray | None:
        """A rollup tier's retained PS slice at ``floor_time`` (finest wins)."""
        for tier in self.tiers:
            ps = tier.slice_at(floor_time)
            if ps is not None:
                return ps
        return None

    def _demoted_sums(self, demoted) -> np.ndarray:
        """Exact box sums over the demoted prefixes' PS slices.

        Rollup-resident slices answer in memory; the rest are grouped by
        tile, each tile decompressed at most once and gathered once.  An
        instance in neither was retired without demotion and is gone.
        """
        sums = np.zeros(len(demoted), dtype=np.int64)
        cells, weights = self._prefix_corners(demoted)
        pending: list[int] = []
        for j, (_, _, floor_time, _) in enumerate(demoted):
            ps = self._rollup_slice(floor_time)
            if ps is None:
                pending.append(j)
            else:
                sums[j] = ps.reshape(-1)[cells[j]] @ weights[j]
        times = np.asarray([demoted[j][2] for j in pending], dtype=np.int64)
        tile = self.tiles.locate(times)
        if (tile < 0).any():
            raise AgedOutError(
                f"instance at t={int(times[tile < 0][0])} was retired without "
                "demotion; its detail is no longer accessible"
            )
        names = self.tiles.tile_names()
        for index in np.unique(tile):
            group = np.flatnonzero(tile == index)
            rows = np.asarray(pending)[group]
            values = self.tiles.gather_prefix(names[index], times[group], cells[rows])
            sums[rows] = (values * weights[rows]).sum(axis=1)
        return sums

    def query_many(self, boxes: Sequence[Box], mode: str = "fast") -> list[int]:
        """Batch range aggregates, bit-identical to an undemoted oracle.

        Boxes both of whose prefixes resolve at or above the demotion
        watermark pass straight through to the front in one batch;
        the rest decompose into signed cumulative prefixes answered
        per-tier as described in the module docstring.
        """
        boxes = list(boxes)
        live, demoted = self._decompose(boxes, mode)
        results = [0] * len(boxes)
        for i, value in live:
            results[i] += value
        for (i, sign, _, _), value, buffered in zip(
            demoted, self._demoted_sums(demoted), self._buffered_sums(demoted, mode)
        ):
            results[i] += sign * (int(value) + int(buffered))
        return results

    def query_approx(self, box: Box):
        """Approximate range aggregate with guaranteed-sound bounds."""
        return self.query_many_approx([box])[0]

    def query_many_approx(self, boxes: Sequence[Box], mode: str = "fast"):
        """Batch :class:`~repro.retention.estimate.Estimate` aggregates.

        Same prefix decomposition as :meth:`query_many`, but a demoted
        prefix whose PS slice is *not* resident in a rollup tier is
        bracketed between the tiers' retained boundary slices
        (:mod:`repro.retention.estimate`) instead of read from its
        tile -- no disk access, at the price of a bounded interval
        rather than a point answer.  Prefixes that are live, or that
        floor onto a retained rollup boundary, stay exact (``lo ==
        hi``), bit-identical to :meth:`query_many`; the signed prefix
        combination ``F(t_up) - F(t_lo - 1)`` combines the per-prefix
        intervals by interval arithmetic, so every reported ``[lo, hi]``
        contains the exact answer (for non-negative measures -- see the
        estimate module docstring).
        """
        from repro.retention.estimate import Estimate, bracket_prefix, estimate_prefix

        boxes = list(boxes)
        live, demoted = self._decompose(boxes, mode)
        est, lo, hi = [0.0] * len(boxes), [0] * len(boxes), [0] * len(boxes)

        def _add(i: int, sign: int, term: Estimate) -> None:
            est[i] += sign * term.estimate
            if sign >= 0:
                lo[i] += term.lo
                hi[i] += term.hi
            else:
                lo[i] -= term.hi
                hi[i] -= term.lo

        cells, weights = self._prefix_corners(demoted)

        def reduced(j: int, bracket):
            # a (time, slice) bracket with the slice reduced to prefix j's
            # box sum: a 0-d cumulative slice, the sum over an empty box
            if bracket is None:
                return None
            return bracket[0], bracket[1].reshape(-1)[cells[j]] @ weights[j]

        for j, ((i, sign, floor_time, _), buffered) in enumerate(
            zip(demoted, self._buffered_sums(demoted, mode))
        ):
            ps = self._rollup_slice(floor_time)
            if ps is not None:  # tier-resident: exact, no estimation
                term = Estimate.of(reduced(j, (floor_time, ps))[1])
            else:
                bracket_lo, bracket_hi = bracket_prefix(
                    self.tiers, floor_time, self._last_time, self._last_ps
                )
                exact_floor = bracket_lo is not None and bracket_lo[0] == floor_time
                if bracket_hi is None and not exact_floor:
                    raise AgedOutError(
                        f"no retained rollup boundary brackets "
                        f"t={floor_time}; the prefix cannot be bounded"
                    )
                term = estimate_prefix(
                    reduced(j, bracket_lo), reduced(j, bracket_hi), floor_time, (), ()
                )
            _add(i, sign, term)
            if buffered:
                # buffered corrections below the watermark are known
                # exactly; they shift the whole interval
                _add(i, sign, Estimate.of(buffered))
        for i, value in live:
            _add(i, 1, Estimate.of(value))
        return [Estimate(e, x, y) for e, x, y in zip(est, lo, hi)]

    def total(self) -> int:
        return self.front.total()

    # -- footprint ------------------------------------------------------------

    def resident_slice_bytes(self) -> int:
        """Resident history bytes: live kernel slices + rollup slices.

        Tile bytes live on disk (served via mmap) and are *not*
        resident; this is the quantity the retention benchmark compares
        against an undemoted cube.
        """
        total = self.cube.resident_slice_bytes()
        for tier in self.tiers:
            total += tier.resident_nbytes()
        if self._last_ps is not None:
            total += self._last_ps.nbytes
        return total

    # -- durable snapshots ----------------------------------------------------

    def retention_state_arrays(self) -> dict[str, np.ndarray]:
        """Tier + demotion bookkeeping as named (``ret_``) arrays.

        Complements the kernel's ``state_arrays`` and the front's
        ``buffer_state_arrays`` in checkpoint archives.  Tile *contents*
        are not duplicated -- tiles are immutable files verified by
        checksum -- but their spans are recorded so recovery can detect
        a missing tile immediately.
        """
        shape = tuple(self.cube.slice_shape)
        arrays: dict[str, np.ndarray] = {
            "ret_meta": np.array(
                [
                    _NONE if self._demoted_through is None else self._demoted_through,
                    _NONE if self._demote_horizon is None else self._demote_horizon,
                    _NONE if self._last_time is None else self._last_time,
                    len(self.tiers),
                ],
                dtype=np.int64,
            ),
            "ret_last_ps": (
                np.empty((0, *shape), dtype=np.int64)
                if self._last_ps is None
                else self._last_ps.reshape((1, *shape))
            ),
            "ret_tile_spans": self.tiles.spans(),
        }
        for i, tier in enumerate(self.tiers):
            state = tier.state_arrays(shape)
            arrays[f"ret_tier{i}_times"] = state["times"]
            arrays[f"ret_tier{i}_stack"] = state["stack"]
            arrays[f"ret_tier{i}_meta"] = state["meta"]
        return arrays

    def restore_retention_state(self, arrays) -> None:
        """Rebuild tier + demotion state from :meth:`retention_state_arrays`."""
        meta = np.asarray(arrays["ret_meta"], dtype=np.int64)
        if int(meta[3]) != len(self.tiers):
            raise DomainError(
                f"checkpoint has {int(meta[3])} tiers, policy has "
                f"{len(self.tiers)}"
            )
        self._demoted_through = None if int(meta[0]) == _NONE else int(meta[0])
        self._demote_horizon = None if int(meta[1]) == _NONE else int(meta[1])
        self._last_time = None if int(meta[2]) == _NONE else int(meta[2])
        last = np.asarray(arrays["ret_last_ps"], dtype=np.int64)
        self._last_ps = (
            None if last.shape[0] == 0 else np.array(last[0], dtype=np.int64)
        )
        for i, tier in enumerate(self.tiers):
            tier.restore_state(
                arrays[f"ret_tier{i}_times"],
                arrays[f"ret_tier{i}_stack"],
                arrays[f"ret_tier{i}_meta"],
            )
        self.tiles.rescan()
        on_disk = {tuple(int(v) for v in span) for span in self.tiles.spans()}
        for span in np.asarray(arrays["ret_tile_spans"], dtype=np.int64):
            if (int(span[0]), int(span[1])) not in on_disk:
                raise StorageError(
                    f"checkpointed tile tile-{int(span[0])}-{int(span[1])}"
                    ".tile is missing from the tile directory"
                )

    def __repr__(self) -> str:
        return (
            f"TieredCube(front={self.front!r}, tiers={len(self.tiers)}, "
            f"tiles={len(self.tiles)}, demoted_through={self._demoted_through})"
        )
