"""Delta-encoded, checksummed, immutable on-disk historic tiles.

When :meth:`~repro.retention.planner.TieredCube.demote_before` moves
aged PS slices out of the live store, their full-fidelity detail lands
here: a *tile* is one immutable file holding a run of consecutive
converged PS slices together with their occurring times.  Compact
immutable representations of aged event data follow Brisaboa et al.
(arXiv:1803.02576): exploit that the payload never changes again and
trade decode work for storage.

Encoding pipeline (all vectorized; pure NumPy + :mod:`zlib`):

1. **delta-of-PS** -- consecutive converged PS slices differ only by the
   updates of one instance, so the stack is stored as its first slice
   plus temporal differences (:func:`numpy.diff` along the time axis),
   which concentrates the value distribution near zero;
2. **zigzag** -- signed deltas map to small unsigned integers
   (``(v << 1) ^ (v >> 63)``), so magnitude, not sign, decides width;
3. **width packing** -- the whole zigzag array is stored at the smallest
   of 1/2/4/8 bytes per value that fits its maximum (a vectorized
   stand-in for per-value varints, which would need a compiled loop);
4. **compression** -- :func:`zlib.compress` at a *fixed* level, so a
   replayed demotion rewrites byte-identical tiles (determinism is what
   lets crash recovery atomically overwrite a half-applied demote).
   ``zstandard`` slots in behind codec id 2 when the host has it; the
   stdlib codec is always available and is the default.

Every tile carries two CRC32 checksums (header and payload).  Decoding
*refuses* rather than guesses: a torn tail, a corrupt checksum, a bad
magic/version, or trailing garbage all raise
:class:`~repro.core.errors.StorageError`.

:class:`TileStore` owns a directory of tiles, writes them atomically
(tmp + fsync + rename, like the checkpoint archive writer) and serves
reads off a read-only :mod:`mmap` of the file (like
:mod:`repro.storage.mmap_npz`).  It caches the most recently used tiles
as verified, decompressed but still width-packed delta arrays (1-8
bytes per value), and decodes on demand only what a read asks for:
:meth:`TileStore.gather_prefix` zigzag-decodes and sums along time just
the requested cell columns, so a ``2^d`` corner gather never pays for a
whole decoded stack.
"""

from __future__ import annotations

import mmap
import os
import re
import struct
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.errors import DomainError, StorageError

try:  # optional: the container may not ship zstandard
    import zstandard as _zstd
except ImportError:  # pragma: no cover - absent in the reference image
    _zstd = None

MAGIC = b"RPTL"
VERSION = 1
CODEC_ZLIB = 1
CODEC_ZSTD = 2
#: fixed compression level: tile bytes must be a pure function of the
#: demoted slices so WAL replay can atomically overwrite torn tiles
_ZLIB_LEVEL = 6
_ZSTD_LEVEL = 3

#: magic, version, codec, width, ndim, k
_FIXED = struct.Struct("<4sBBBBI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_WIDTH_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

_TILE_NAME = re.compile(r"^tile-(-?\d+)-(-?\d+)\.tile$")


def _codec_id(codec: str) -> int:
    if codec == "zlib":
        return CODEC_ZLIB
    if codec == "zstd":
        if _zstd is None:
            raise StorageError("zstd codec requested but zstandard is not installed")
        return CODEC_ZSTD
    raise DomainError(f"unknown tile codec {codec!r}")


def _compress(codec_id: int, raw: bytes) -> bytes:
    if codec_id == CODEC_ZLIB:
        return zlib.compress(raw, _ZLIB_LEVEL)
    if _zstd is None:
        raise StorageError("tile uses the zstd codec but zstandard is not installed")
    return _zstd.ZstdCompressor(level=_ZSTD_LEVEL).compress(raw)


def _decompress(codec_id: int, payload: bytes, raw_len: int) -> bytes:
    if codec_id == CODEC_ZLIB:
        try:
            return zlib.decompress(payload)
        except zlib.error as exc:
            raise StorageError(f"corrupt tile payload: {exc}") from exc
    if _zstd is None:
        raise StorageError("tile uses the zstd codec but zstandard is not installed")
    try:
        return _zstd.ZstdDecompressor().decompress(payload, max_output_size=raw_len)
    except _zstd.ZstdError as exc:  # pragma: no cover - needs zstandard
        raise StorageError(f"corrupt tile payload: {exc}") from exc


# -- integer transforms --------------------------------------------------------


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map int64 onto uint64 so small magnitudes become small numbers."""
    v = np.asarray(values, dtype=np.int64)
    return ((v.astype(np.uint64) << np.uint64(1)) ^ (v >> np.int64(63)).astype(
        np.uint64
    ))


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -(
        (v & np.uint64(1)).astype(np.int64)
    )


def _pack_width(zz: np.ndarray) -> tuple[int, bytes]:
    """Store a zigzag array at the smallest fitting byte width."""
    top = int(zz.max()) if zz.size else 0
    for width in (1, 2, 4):
        if top < 1 << (8 * width):
            return width, zz.astype(_WIDTH_DTYPES[width]).tobytes()
    return 8, zz.astype(_WIDTH_DTYPES[8]).tobytes()


def _unpack_width(width: int, raw: bytes, count: int) -> np.ndarray:
    """The width-packed zigzag values as a read-only view of ``raw``."""
    dtype = _WIDTH_DTYPES.get(width)
    if dtype is None:
        raise StorageError(f"corrupt tile: invalid value width {width}")
    if len(raw) != count * width:
        raise StorageError(
            f"corrupt tile: packed length {len(raw)} != {count}x{width}"
        )
    return np.frombuffer(raw, dtype=dtype)


# -- tile codec ----------------------------------------------------------------


def encode_tile(
    stack: np.ndarray, times: np.ndarray, codec: str = "zlib"
) -> bytes:
    """Serialize a ``(k, *shape)`` stack of PS slices and their times.

    ``times`` must be strictly increasing (occurring-time order); the
    result is byte-deterministic for a given input.
    """
    stack = np.ascontiguousarray(stack, dtype=np.int64)
    times = np.ascontiguousarray(times, dtype=np.int64)
    if stack.ndim < 2:
        raise DomainError(f"tile stack must be (k, *shape); got {stack.shape}")
    if times.shape != (stack.shape[0],):
        raise DomainError("need exactly one occurring time per slice")
    if stack.shape[0] == 0:
        raise DomainError("refusing to encode an empty tile")
    if times.size > 1 and not bool(np.all(np.diff(times) > 0)):
        raise DomainError("tile times must be strictly increasing")
    codec_id = _codec_id(codec)
    deltas = np.concatenate(
        (stack[:1], np.diff(stack, axis=0)), axis=0
    ).reshape(-1)
    width, packed = _pack_width(zigzag_encode(deltas))
    payload = _compress(codec_id, packed)
    ndim = stack.ndim - 1
    header = bytearray()
    header += _FIXED.pack(MAGIC, VERSION, codec_id, width, ndim, stack.shape[0])
    for n in stack.shape[1:]:
        header += _U32.pack(int(n))
    header += _U64.pack(len(packed))
    header += _U64.pack(len(payload))
    header += times.astype("<i8").tobytes()
    header += _U32.pack(zlib.crc32(bytes(header)))
    return bytes(header) + payload + _U32.pack(zlib.crc32(payload))


def _parse_tile(data) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Verify and decompress one tile without decoding its values.

    Returns ``(packed, times, shape)``: ``packed`` is the ``(k, cells)``
    width-packed zigzag delta array as a read-only view of the
    decompressed bytes.  Raises :class:`~repro.core.errors.StorageError`
    on any torn tail, checksum mismatch, malformed header, or trailing
    garbage -- a tile either parses exactly or not at all.
    """
    data = bytes(data)
    if len(data) < _FIXED.size:
        raise StorageError("torn tile: truncated header")
    magic, version, codec_id, width, ndim, k = _FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise StorageError("not a tile file (bad magic)")
    if version != VERSION:
        raise StorageError(f"unsupported tile version {version}")
    header_len = _FIXED.size + 4 * ndim + 16 + 8 * k + 4
    if len(data) < header_len:
        raise StorageError("torn tile: truncated header")
    offset = _FIXED.size
    shape = []
    for _ in range(ndim):
        shape.append(_U32.unpack_from(data, offset)[0])
        offset += 4
    raw_len = _U64.unpack_from(data, offset)[0]
    payload_len = _U64.unpack_from(data, offset + 8)[0]
    offset += 16
    times = np.frombuffer(data, dtype="<i8", count=k, offset=offset).astype(
        np.int64
    )
    offset += 8 * k
    (header_crc,) = _U32.unpack_from(data, offset)
    if zlib.crc32(data[:offset]) != header_crc:
        raise StorageError("corrupt tile: header checksum mismatch")
    offset += 4
    total = offset + payload_len + 4
    if len(data) < total:
        raise StorageError("torn tile: truncated payload")
    if len(data) > total:
        raise StorageError("corrupt tile: trailing bytes after payload")
    payload = data[offset : offset + payload_len]
    (payload_crc,) = _U32.unpack_from(data, offset + payload_len)
    if zlib.crc32(payload) != payload_crc:
        raise StorageError("corrupt tile: payload checksum mismatch")
    packed = _decompress(codec_id, payload, raw_len)
    if len(packed) != raw_len:
        raise StorageError(
            f"corrupt tile: decompressed {len(packed)} bytes, expected {raw_len}"
        )
    cells = 1
    for n in shape:
        cells *= int(n)
    values = _unpack_width(width, packed, int(k) * cells)
    return values.reshape(int(k), cells), times, tuple(shape)


def decode_tile(data) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_tile`; returns ``(stack, times)``.

    Refuses (:class:`~repro.core.errors.StorageError`) exactly what the
    tile parser refuses.
    """
    packed, times, shape = _parse_tile(data)
    deltas = zigzag_decode(packed).reshape((times.shape[0], *shape))
    return np.cumsum(deltas, axis=0, dtype=np.int64), times


# -- the tile directory --------------------------------------------------------


def tile_name(first_time: int, last_time: int) -> str:
    """Deterministic file name for the tile covering ``[first, last]``."""
    return f"tile-{int(first_time)}-{int(last_time)}.tile"


class TileStore:
    """A directory of immutable tiles, indexed by occurring time.

    Tiles never overlap: demotion writes strictly newer runs of slices.
    Reads map the file read-only and verify both checksums; the
    ``cache_tiles`` most recently read tiles stay resident as packed
    ``(k, cells)`` delta arrays plus their slice times.
    """

    def __init__(
        self, directory, codec: str = "zlib", cache_tiles: int = 2
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.codec = codec
        _codec_id(codec)  # validate early
        self._cache_tiles = max(1, int(cache_tiles))
        #: (first_time, last_time, name), ascending and disjoint
        self._index: list[tuple[int, int, str]] = []
        #: name -> (packed (k, cells) deltas, times, slice shape)
        self._cache: OrderedDict[
            str, tuple[np.ndarray, np.ndarray, tuple[int, ...]]
        ] = OrderedDict()
        self.rescan()

    # -- directory scan -------------------------------------------------------

    def rescan(self) -> None:
        """Rebuild the index from the file names on disk.

        Only complete tiles are visible: the atomic-rename write protocol
        means a crash can leave ``*.tmp`` litter but never a half-named
        tile, so everything matching the name pattern is a published
        tile (its checksums are still verified on first decode).
        """
        index = []
        for entry in self.directory.iterdir():
            match = _TILE_NAME.match(entry.name)
            if match:
                index.append((int(match.group(1)), int(match.group(2)), entry.name))
        index.sort()
        self._index = index

    def drop_cache(self) -> None:
        """Evict the cached packed tiles; later reads verify and decompress anew."""
        self._cache.clear()

    def tile_names(self) -> list[str]:
        return [name for _, _, name in self._index]

    def __len__(self) -> int:
        return len(self._index)

    def disk_bytes(self) -> int:
        """Total on-disk size of all tiles (compressed)."""
        return sum(
            (self.directory / name).stat().st_size
            for _, _, name in self._index
        )

    def spans(self) -> np.ndarray:
        """``(m, 2)`` array of (first_time, last_time) per tile."""
        if not self._index:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(
            [(first, last) for first, last, _ in self._index], dtype=np.int64
        )

    # -- writing --------------------------------------------------------------

    def write_tile(self, stack: np.ndarray, times: np.ndarray) -> str:
        """Atomically publish one tile; returns its file name.

        Writing the same slice run again (a replayed demotion) rewrites
        the byte-identical file, so an interrupted first write is simply
        overwritten.
        """
        times = np.asarray(times, dtype=np.int64)
        data = encode_tile(stack, times, codec=self.codec)
        name = tile_name(int(times[0]), int(times[-1]))
        target = self.directory / name
        tmp = self.directory / (name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        self._fsync_directory()
        self._cache.pop(name, None)
        self._index = [e for e in self._index if e[2] != name]
        self._index.append((int(times[0]), int(times[-1]), name))
        self._index.sort()
        return name

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- reading --------------------------------------------------------------

    def _load(self, name: str) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        cached = self._cache.get(name)
        if cached is not None:
            self._cache.move_to_end(name)
            return cached
        path = self.directory / name
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise StorageError(f"unreadable tile {path}: {exc}") from exc
        try:
            parsed = _parse_tile(mapped)
        finally:
            mapped.close()
        self._cache[name] = parsed
        while len(self._cache) > self._cache_tiles:
            self._cache.popitem(last=False)
        return parsed

    def locate(self, times) -> np.ndarray:
        """Index (into :meth:`tile_names`) of the tile spanning each time.

        ``-1`` where no tile's span contains the time.
        """
        times = np.asarray(times, dtype=np.int64)
        spans = self.spans()
        if not spans.shape[0]:
            return np.full(times.shape, -1, dtype=np.int64)
        tile = np.searchsorted(spans[:, 0], times, side="right") - 1
        inside = (tile >= 0) & (times <= spans[np.maximum(tile, 0), 1])
        return np.where(inside, tile, -1)

    def slice_at(self, time: int) -> np.ndarray | None:
        """The PS slice at occurring time ``time``, or ``None``.

        Exact-match lookup: the planner resolves a query prefix to a
        *floor* occurring time first, so a hit here is always the
        cumulative instance the undemoted kernel would have used.
        """
        tile = int(self.locate(int(time)))
        if tile < 0:
            return None
        packed, times, shape = self._load(self._index[tile][2])
        pos = int(np.searchsorted(times, int(time)))
        if pos >= times.shape[0] or int(times[pos]) != int(time):
            return None
        deltas = zigzag_decode(packed[: pos + 1])
        return deltas.sum(axis=0, dtype=np.int64).reshape(shape)

    def gather_prefix(self, name: str, times, flat_cells) -> np.ndarray:
        """PS values of selected cells at selected times of one tile.

        ``times`` is ``(n,)`` occurring times held by tile ``name``;
        ``flat_cells`` is ``(n, ...)`` flat (C-order) cell indices.
        Returns an int64 array shaped like ``flat_cells`` whose entry
        ``[j, ...]`` is ``slice_at(times[j]).reshape(-1)[flat_cells[j,
        ...]]``.  Only the distinct requested columns are zigzag-decoded
        and summed along time; the rest of the tile stays packed.
        """
        packed, tile_times, _ = self._load(name)
        times = np.asarray(times, dtype=np.int64)
        cells = np.asarray(flat_cells, dtype=np.int64)
        pos = np.minimum(np.searchsorted(tile_times, times), tile_times.shape[0] - 1)
        missing = tile_times[pos] != times
        if missing.any():
            raise DomainError(
                f"t={int(times[missing][0])} is not an occurring time of {name}"
            )
        if not times.size:
            return np.zeros(cells.shape, dtype=np.int64)
        columns, inverse = np.unique(cells.reshape(-1), return_inverse=True)
        deltas = zigzag_decode(packed[: int(pos.max()) + 1, columns])
        ps = np.cumsum(deltas, axis=0, dtype=np.int64)
        rows = pos.reshape(pos.shape + (1,) * (cells.ndim - 1))
        return ps[rows, inverse.reshape(cells.shape)]

    def verify(self) -> int:
        """Parse every tile (checksum walk); returns the tile count."""
        for _, _, name in self._index:
            self._load(name)
        return len(self._index)
