"""Vectorized (fast-mode) evaluation of eCube slices.

The metered engine (:mod:`repro.ecube.slices`) walks term sets cell by
cell so every access is charged to the paper's cost model.  This module
is the fast mode of the dual-mode execution engine: the same slice state
(slice values, PS/DDC flag bitmap, cache values, cache stamps) is
evaluated with flat NumPy gathers and tensor contractions instead of
Python recursion.  Answers are bit-identical to the metered path; only
the *charging* differs (bulk tallies instead of per-cell calls).

Three evaluation strategies, picked per slice:

``ps``
    The slice is fully converted (every flag set): a range aggregate is a
    PS inclusion-exclusion gather -- at most ``2^(d-1)`` cells.

``gather``
    The slice is mixed.  The DDC range term block is gathered from the
    four state arrays at once and a per-cell selection reconstructs the
    *effective DDC value* of every block cell:

    * flag set, stamp <= slice: the conversion overwrote the slice cell,
      but the cache still holds the cell's DDC value (conversions never
      touch the cache) -- read the cache;
    * flag clear, stamp > slice: the lazy copy landed -- read the slice;
    * flag clear, stamp <= slice: copy still pending -- read the cache
      (its last change happened at or before this slice).

    A flagged cell whose stamp moved past the slice has lost its DDC
    value (the copy was skipped, the conversion overwrote the storage);
    if the gathered block contains such a cell the caller must fall back
    to the metered per-cell walk, which handles PS values natively.

``bulk finalize``
    Whole-slice DDC -> PS conversion: build the effective DDC array once,
    deaggregate per axis and ``np.cumsum`` per axis.  Replaces per-cell
    conversion recursion for hot historic slices; afterwards the slice is
    in the ``ps`` steady state.

Batches run through one evaluator, :func:`evaluate_batch`, over a
read-only *slice source*: the live kernel
(:meth:`~repro.ecube.kernel.CubeKernel.query_many`) and a frozen epoch
(:class:`~repro.concurrent.snapshot.EpochSource`, the shard readers'
path) each supply one.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import AgedOutError, DomainError
from repro.core.types import Box
from repro.ecube import compiled
from repro.preagg.ddc import DDCTechnique
from repro.preagg.prefix_sum import PrefixSumTechnique
from repro.preagg.term_tables import TermTableSet, gather_dot, gathered_cell_count


class FastSliceEngine:
    """Flat-gather evaluation for one (d-1)-dimensional slice shape.

    Stateless apart from the precomputed term tables; one instance is
    shared by all slices of a cube, mirroring
    :class:`~repro.ecube.slices.ECubeSliceEngine`.
    """

    def __init__(self, shape: Sequence[int]) -> None:
        self.shape = tuple(int(n) for n in shape)
        if not self.shape:
            raise DomainError("slice shape must have at least one dimension")
        self.ddc_techniques = [DDCTechnique(n) for n in self.shape]
        # term tables are only needed by the per-box paths (fallbacks,
        # updates); the stacked batch path runs entirely on compiled
        # kernels, so building them is deferred to first use
        self._ddc_tables: TermTableSet | None = None
        self._ps_tables: TermTableSet | None = None
        self.num_cells = int(np.prod(self.shape))
        # row-major element strides of one slice, for the compiled
        # flat-offset corner gather (repro.ecube.compiled)
        self._elem_strides = np.array(
            [int(np.prod(self.shape[axis + 1 :])) for axis in range(len(self.shape))],
            dtype=np.int64,
        )

    @property
    def ddc_tables(self) -> TermTableSet:
        if self._ddc_tables is None:
            self._ddc_tables = TermTableSet(self.ddc_techniques)
        return self._ddc_tables

    @property
    def ps_tables(self) -> TermTableSet:
        if self._ps_tables is None:
            self._ps_tables = TermTableSet(
                [PrefixSumTechnique(n) for n in self.shape]
            )
        return self._ps_tables

    # -- degenerate ranges ----------------------------------------------------

    def _clip_or_none(self, box: Box) -> Box | None:
        """Clamp ``box`` to the slice shape; ``None`` when it selects nothing.

        Mirrors the metered engine's degenerate-range early return
        (:meth:`~repro.ecube.slices.ECubeSliceEngine.range_query`): a
        range entirely outside the domain is an explicit empty result,
        not a term-table lookup error.
        """
        for low, up, size in zip(box.lower, box.upper, self.shape):
            if low > up or low >= size or up < 0:
                return None
        return box.clip_to(self.shape)

    # -- fully converted slices ---------------------------------------------

    def ps_range(self, ps_values: np.ndarray, box: Box) -> tuple[int, int]:
        """Range aggregate on a fully-PS slice; returns (value, cells read)."""
        clipped = self._clip_or_none(box)
        if clipped is None:
            return 0, 0
        indices, coeffs = self.ps_tables.range_arrays(clipped.lower, clipped.upper)
        return gather_dot(ps_values, indices, coeffs), gathered_cell_count(indices)

    def ps_range_batch_stacked(
        self,
        stack: np.ndarray,
        rows: np.ndarray,
        lowers: np.ndarray,
        uppers: np.ndarray,
    ) -> np.ndarray:
        """PS corner gather over a ``(k, *shape)`` stack of PS arrays.

        ``rows[i]`` selects the stack row answering box ``i`` -- one
        compiled kernel call answers a whole multi-slice batch, which is
        what removes the per-slice Python dispatch from ``query_many``.
        """
        out = np.zeros(rows.shape[0], dtype=np.int64)
        if rows.shape[0] == 0:
            return out
        compiled.ps_corner_gather(
            stack.reshape(-1),
            self._elem_strides,
            rows.astype(np.int64) * np.int64(self.num_cells),
            np.ascontiguousarray(lowers, dtype=np.int64),
            np.ascontiguousarray(uppers, dtype=np.int64),
            out,
        )
        return out

    # -- mixed slices ---------------------------------------------------------

    def mixed_range(
        self,
        box: Box,
        slice_values: np.ndarray,
        ps_flags: np.ndarray,
        stamps: np.ndarray,
        cache_values: np.ndarray,
        slice_index: int,
    ) -> tuple[int, int] | None:
        """DDC range aggregate over the effective DDC values of a block.

        Returns ``(value, cells read)``, or ``None`` when the block holds
        a flagged cell whose DDC value is unrecoverable (stamp advanced
        past the slice) -- the caller then falls back to the metered walk.
        """
        clipped = self._clip_or_none(box)
        if clipped is None:
            return 0, 0
        indices, coeffs = self.ddc_tables.range_arrays(clipped.lower, clipped.upper)
        if any(idx.size == 0 for idx in indices):
            return 0, 0
        grid = np.ix_(*indices)
        flags_blk = ps_flags[grid]
        stamps_blk = stamps[grid]
        newer = stamps_blk > slice_index
        if bool(np.any(flags_blk & newer)):
            return None
        block = np.where(
            ~flags_blk & newer, slice_values[grid], cache_values[grid]
        )
        for coeff in reversed(coeffs):
            block = block @ coeff
        return int(block), gathered_cell_count(indices)

    def ddc_range(self, ddc_values: np.ndarray, box: Box) -> tuple[int, int]:
        """Range aggregate on an explicit DDC array; returns (value, cells).

        Used for the latest instance (the cache *is* its DDC array) and
        for batched mixed-slice evaluation against a materialized
        effective DDC array (:meth:`effective_ddc`).
        """
        clipped = self._clip_or_none(box)
        if clipped is None:
            return 0, 0
        indices, coeffs = self.ddc_tables.range_arrays(clipped.lower, clipped.upper)
        return (
            gather_dot(ddc_values, indices, coeffs),
            gathered_cell_count(indices),
        )

    def latest_range(self, cache_values: np.ndarray, box: Box) -> tuple[int, int]:
        """Range aggregate on the latest instance (always routed to the
        cache: stamps never exceed the latest index and the latest slice
        is never flag-converted)."""
        return self.ddc_range(cache_values, box)

    # -- whole-slice finalization ---------------------------------------------

    def effective_ddc(
        self,
        slice_values: np.ndarray,
        ps_flags: np.ndarray,
        stamps: np.ndarray,
        cache_values: np.ndarray,
        slice_index: int,
    ) -> np.ndarray | None:
        """The slice's complete DDC array, or ``None`` if unrecoverable."""
        out = np.empty(self.shape, dtype=np.int64)
        ok = compiled.effective_ddc(
            np.ascontiguousarray(slice_values, dtype=np.int64).reshape(-1),
            np.ascontiguousarray(ps_flags, dtype=bool).reshape(-1),
            np.ascontiguousarray(stamps, dtype=np.int64).reshape(-1),
            np.ascontiguousarray(cache_values, dtype=np.int64).reshape(-1),
            int(slice_index),
            out.reshape(-1),
        )
        return out if ok else None

    def ddc_to_ps(self, ddc_values: np.ndarray) -> np.ndarray:
        """Bulk DDC -> PS via the log-step Fenwick path recurrence.

        Identical integers to deaggregate-per-axis + cumsum-per-axis,
        in ``O(log n)`` whole-array adds per axis
        (:func:`repro.ecube.compiled.fenwick_to_ps_inplace`).
        """
        return compiled.fenwick_to_ps_inplace(
            np.array(ddc_values, dtype=np.int64), self.shape
        )

    # -- update support --------------------------------------------------------

    def update_flat_indices(self, cell: Sequence[int]) -> np.ndarray:
        """Flat (raveled) DDC update set of one raw cell."""
        per_dim = self.ddc_tables.update_arrays(cell)
        flat = per_dim[0]
        for axis in range(1, len(self.shape)):
            flat = flat[..., None] * self.shape[axis] + per_dim[axis]
        return flat.reshape(-1)


def normalize_rows(
    fast: FastSliceEngine,
    out: np.ndarray,
    ps: Sequence[np.ndarray],
    mixed: Sequence[tuple[int, np.ndarray, np.ndarray | None]],
    cache_values: np.ndarray | None,
    stamps: np.ndarray | None,
    latest: bool,
) -> np.ndarray:
    """Write the PS arrays of a set of slices into the rows of ``out``.

    The one slice-to-PS builder of both slice sources.  ``out`` is a
    C-contiguous ``(len(ps) + len(mixed) + latest, *shape)`` block laid
    out as: the fully converted slices ``ps``, copied as-is; one row per
    ``mixed`` entry ``(slice_index, values, flags)`` (``flags`` is
    ``None`` when no cell of the slice was converted), reconstructed by
    *one* batched effective-DDC kernel; and, when ``latest``, the
    latest instance, whose DDC array is the cache.  One log-step
    Fenwick sweep then converts the DDC tail.  Returns a boolean mask
    over ``mixed``: entries whose DDC state is unrecoverable (their rows
    are unspecified).
    """
    num_ps = len(ps)
    for j, values in enumerate(ps):
        out[j] = values
    bad = np.zeros(len(mixed), dtype=bool)
    if mixed:
        # the mixed rows form one contiguous (m, cells) block: copy the
        # slice values in, then reconstruct all effective DDC arrays in
        # place with one kernel call
        block = out[num_ps : num_ps + len(mixed)].reshape(len(mixed), fast.num_cells)
        flags2d = np.zeros(block.shape, dtype=bool)
        for j, (_, values, flags) in enumerate(mixed):
            block[j] = np.asarray(values).reshape(-1)
            if flags is not None:
                flags2d[j] = np.asarray(flags).reshape(-1)
        bad = compiled.effective_ddc_batch(
            block,
            flags2d,
            np.ascontiguousarray(stamps, dtype=np.int64).reshape(-1),
            np.ascontiguousarray(cache_values, dtype=np.int64).reshape(-1),
            np.asarray([m[0] for m in mixed], dtype=np.int64),
            block,
        )
    if latest:
        out[out.shape[0] - 1] = cache_values
    if out.shape[0] > num_ps:
        compiled.fenwick_to_ps_inplace(out[num_ps:], fast.shape, axis_offset=1)
    return bad


def evaluate_batch(
    source, corner_lo: np.ndarray, corner_up: np.ndarray
) -> np.ndarray:
    """Range aggregates of ``(n, d)`` inclusive int64 box corners.

    Every box is the difference of two prefix instances (Section 2.3):
    the slice at the floor of its upper time and the slice at the floor
    of its lower time minus one, each answered by one ``2^(d-1)`` PS
    corner gather.  ``source`` supplies what the batch reads:

    * ``fast`` -- the :class:`FastSliceEngine` of its slice shape;
    * ``times`` -- the occurring times (sorted int64 array);
    * ``retired_below`` -- directory indices below it were aged out;
    * ``ps_rows(indices)`` -- ``(stack, rows)`` for the sorted distinct
      slice indices the batch touches: ``stack[rows[k]]`` is slice
      ``indices[k]`` as a PS array, or ``rows[k] == -1`` when its DDC
      state cannot be recovered;
    * ``charge(rows, lowers, uppers)`` -- notified of every gathered job
      (stack row, clipped corners);
    * ``fallback(index, lowers, uppers)`` -- per-box answers on an
      unrecoverable slice, jobs in box order.

    Returns an int64 array in input order.  Raises :class:`DomainError`
    for a box that is empty after clipping to the slice shape and
    :class:`AgedOutError` for a prefix on a retired instance.
    """
    n = corner_lo.shape[0]
    results = np.zeros(n, dtype=np.int64)
    times = source.times
    if n == 0 or times.shape[0] == 0:
        return results
    shape = source.fast.shape
    lowers = np.maximum(corner_lo[:, 1:], 0)
    uppers = np.minimum(corner_up[:, 1:], np.asarray(shape, dtype=np.int64) - 1)
    empty = np.nonzero(np.any(lowers > uppers, axis=1))[0]
    if empty.size:
        first = int(empty[0])
        box = Box(
            tuple(int(c) for c in corner_lo[first, 1:]),
            tuple(int(c) for c in corner_up[first, 1:]),
        )
        raise DomainError(f"box {box} is empty after clipping to {shape}")
    # one (slice, box, sign) job per prefix, interleaved per box (upper
    # first) so the jobs of one slice stay in box order after the stable
    # sort -- the order the metered fallback walks them in
    slices = np.stack(
        [
            np.searchsorted(times, corner_up[:, 0], side="right") - 1,
            np.searchsorted(times, corner_lo[:, 0] - 1, side="right") - 1,
        ],
        axis=1,
    ).reshape(-1)
    live = np.nonzero(slices >= 0)[0]
    if live.size == 0:
        return results
    order = live[np.argsort(slices[live], kind="stable")]
    slices = slices[order]
    box_ids = order >> 1
    signs = 1 - 2 * (order & 1)
    if int(slices[0]) < source.retired_below:
        raise AgedOutError.instance(int(times[slices[0]]))
    distinct, position = np.unique(slices, return_inverse=True)
    stack, rows = source.ps_rows(distinct)
    job_rows = rows[position]
    gathered = job_rows >= 0
    if bool(gathered.any()):
        ids = box_ids[gathered]
        job_rows = job_rows[gathered]
        values = source.fast.ps_range_batch_stacked(
            stack, job_rows, lowers[ids], uppers[ids]
        )
        # add.at, not fancy assignment: a box whose two prefixes land on
        # the same slice contributes twice (with cancelling signs)
        np.add.at(results, ids, signs[gathered] * values)
        source.charge(job_rows, lowers[ids], uppers[ids])
    for k in np.nonzero(rows < 0)[0]:
        jobs = position == k
        ids = box_ids[jobs]
        values = source.fallback(int(distinct[k]), lowers[ids], uppers[ids])
        np.add.at(results, ids, signs[jobs] * values)
    return results
