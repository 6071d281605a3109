"""Shared pieces of the layered benchmark: inputs, oracle, spans, host facts.

Everything here is deterministic in the workload seed.  The program under
test only ever sees the generated arrays (updates, boxes, top-k windows);
the oracle is built independently from the same arrays with plain NumPy.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import platform
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: the seed reserved for confirming a claim after a change was written
HELD_OUT_SEED = 20261017

#: weather4's generator seed (the library default).  The dataset is fixed
#: while ``--seed`` draws everything else: top-k pruning depth is a property
#: of the station layout, and between weather4 draws it differs 4x for the
#: same windows (1,792 to 7,936 cells materialized), more than any bound a
#: run-to-run comparison could allow.
DATASET_SEED = 42

#: the hour/day ladder of the retention benchmark: 4-wide buckets kept for
#: 8 instants, 24-wide buckets kept forever
TIERS = [
    {"name": "hour", "granularity": 4, "horizon": 8},
    {"name": "day", "granularity": 24, "horizon": None},
]


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    """How big one run's inputs are."""

    scale: float  #: weather4 scale (0.4 gives 98 slices, ~30k updates)
    scan_batch: int  #: boxes per exact batch on served_scan
    aged_batch: int  #: boxes per exact batch on served_aged (tile decoding is slow)
    scan_pool: int  #: distinct exact batches cycled through
    live_slices: int  #: newest slices held back from setup as the live edge
    chunk: int  #: updates per live-edge ``update_many`` on the served stacks
    embedded_chunk: int  #: updates per appended chunk on the embedded stack
    embedded_batch: int  #: skew boxes read after every embedded chunk
    approx_batch: int  #: boxes per ``query_approx`` batch
    point_pool: int  #: distinct single-box queries
    setups: int  #: set-ups per run; ``setup_s`` is their median
    recovers: int  #: fewest recoveries per run; ``recover_s`` is their median
    #: recoveries repeat until this long has passed: a served restart takes
    #: about a second, an embedded recovery a third of one, and more
    #: samples steady the median
    recover_seconds: float


FULL = Size(scale=0.4, scan_batch=2000, aged_batch=100, scan_pool=6, live_slices=24,
            chunk=8, embedded_chunk=60, embedded_batch=50, approx_batch=200,
            point_pool=512, setups=3, recovers=5, recover_seconds=4.0)
SMOKE = Size(scale=0.1, scan_batch=200, aged_batch=20, scan_pool=2, live_slices=4,
             chunk=8, embedded_chunk=40, embedded_batch=20, approx_batch=40,
             point_pool=64, setups=1, recovers=1, recover_seconds=0.0)


@dataclass
class Boxes:
    """A pool of boxes as inclusive ``(n, d)`` corner arrays."""

    lower: np.ndarray
    upper: np.ndarray

    def __len__(self) -> int:
        return int(self.lower.shape[0])

    def pairs(self, rows) -> list:
        """``(lower, upper)`` tuples, the form the wire client accepts."""
        return [
            (tuple(int(c) for c in self.lower[i]), tuple(int(c) for c in self.upper[i]))
            for i in rows
        ]

    def boxes(self, rows) -> list:
        from repro import Box

        return [Box(lo, up) for lo, up in self.pairs(rows)]


def _pool(workload) -> Boxes:
    lower = np.asarray([b.lower for b in workload], dtype=np.int64)
    upper = np.asarray([b.upper for b in workload], dtype=np.int64)
    return Boxes(lower, upper)


@dataclass
class Inputs:
    """Everything one workload run feeds the program, from one seed."""

    workload: str
    seed: int
    size: Size
    shape: tuple  #: (time, *cells)
    coords: np.ndarray  #: (n, d) updates in arrival order
    values: np.ndarray  #: (n,)
    base_len: int  #: updates loaded during set-up; the rest is the live edge
    batch: int  #: boxes per exact batch
    scan: Boxes  #: exact batch boxes (``batch``-sized batches back to back)
    points: Boxes  #: single-box queries
    approx: Boxes  #: approximate-answer boxes
    windows: list  #: top-k ``(t1, t2, k)`` queries
    demote: list = field(default_factory=list)  #: demotion horizons, in order

    @property
    def slice_shape(self) -> tuple:
        return tuple(self.shape[1:])

    @property
    def num_times(self) -> int:
        return int(self.shape[0])

    def live(self):
        return self.coords[self.base_len :], self.values[self.base_len :]


def _spread_times(pool: Boxes, rng, t_max: int) -> Boxes:
    """Re-draw every box's TT range uniformly over the whole history.

    Both prefixes of such a box floor anywhere from the oldest tile to the
    live edge, so a batch touches every tile, rollup and live slice.
    """
    a = rng.integers(0, t_max + 1, size=len(pool))
    b = rng.integers(0, t_max + 1, size=len(pool))
    lower, upper = pool.lower.copy(), pool.upper.copy()
    lower[:, 0], upper[:, 0] = np.minimum(a, b), np.maximum(a, b)
    return Boxes(lower, upper)


#: cells per top-k answer; pruning depth grows with k, so k is held fixed
TOPK_K = 10


def _windows(rng, t_max: int, count: int) -> list:
    """Top-k windows: the full history, narrow spans, and the recent edge.

    ``t_max`` is the newest slice loaded before any top-k runs, so no window
    falls into a still-empty live edge (an empty window ranks for free).
    """
    k = TOPK_K
    windows = [(0, t_max, k), (max(0, t_max - 7), t_max, k)]
    # narrow spans spread evenly over the history from a drawn offset, so
    # every run ranks in old, middle and recent slices alike
    narrow = count - 2
    stride = (t_max - 3) / narrow
    offset = rng.uniform(0, stride)
    for j in range(narrow):
        t1 = int(offset + j * stride)
        windows.append((t1, t1 + 3, k))
    return windows


def _late(coords: np.ndarray, values: np.ndarray, seed: int) -> tuple:
    """The stream with 10 % late arrivals, as G_d (paper section 2.5) takes them.

    Each late update keeps its time but arrives up to 64 positions later,
    behind updates to newer slices.
    """
    from repro.workloads.streams import interleave_out_of_order

    updates = ((tuple(int(c) for c in p), int(v)) for p, v in zip(coords, values))
    stream = list(interleave_out_of_order(updates, 0.1, seed=seed))
    return (np.asarray([p for p, _ in stream], dtype=np.int64),
            np.asarray([v for _, v in stream], dtype=np.int64))


def demote_horizons(coords: np.ndarray, base_len: int) -> list[int]:
    """Five demotion horizons ending 8 instants behind the loaded history.

    Each demotion writes its own tile, so boxes spread over the history
    need more tiles than ``TileStore``'s two-tile cache holds.
    """
    horizon = int(coords[base_len - 1, 0]) - 8
    return [int(h) for h in np.linspace(horizon // 5, horizon, 5).round()]


def make_inputs(workload: str, seed: int, size: Size = FULL) -> Inputs:
    """Generate the dataset, stream, boxes and windows of one workload run."""
    from repro.workloads.datasets import weather4
    from repro.workloads.queries import skew_queries, uni_queries

    rng = np.random.default_rng(seed)
    sub = [int(s) for s in rng.integers(0, 2**31 - 1, size=8)]
    data = weather4(scale=size.scale, seed=DATASET_SEED)
    shape = tuple(int(n) for n in data.shape)
    coords, values = data.coords, data.values
    t_max = shape[0] - 1
    if workload == "embedded_ingest":
        coords, values = _late(coords, values, sub[1])
        base_len = 0
        batch = size.embedded_batch
        # one hot region per batch, so no single region sets a run's cost
        regions = np.random.default_rng(sub[2]).integers(0, 2**31 - 1, size=10)
        scan = _pool(
            [b for r in regions for b in skew_queries(shape, batch, seed=int(r))]
        )
    else:
        cut = shape[0] - size.live_slices
        base_len = int(np.searchsorted(coords[:, 0], cut))
        batch = size.aged_batch if workload == "served_aged" else size.scan_batch
        scan = _pool(uni_queries(shape, batch * size.scan_pool, seed=sub[2]))
        if workload == "served_aged":
            # its closing write stage is the one served load on G_d
            live = _late(coords[base_len:], values[base_len:], sub[1])
            coords = np.concatenate((coords[:base_len], live[0]))
            values = np.concatenate((values[:base_len], live[1]))
    points = _pool(uni_queries(shape, size.point_pool, seed=sub[3]))
    approx = _pool(uni_queries(shape, size.approx_batch * 4, seed=sub[4]))
    # the served workloads rank before their live edge is in; the embedded
    # one ranks after its whole stream
    loaded_max = int(coords[base_len - 1, 0]) if base_len else t_max
    demote: list = []
    if workload == "served_aged":
        demote = demote_horizons(coords, base_len)
        scan = _spread_times(scan, rng, t_max)
        approx = _spread_times(approx, rng, t_max)
        points = _spread_times(points, rng, t_max)
    return Inputs(
        workload=workload,
        seed=seed,
        size=size,
        shape=shape,
        coords=np.ascontiguousarray(coords),
        values=np.ascontiguousarray(values),
        base_len=base_len,
        batch=batch,
        scan=scan,
        points=points,
        approx=approx,
        windows=_windows(np.random.default_rng(sub[5]), loaded_max, 6),
        demote=demote,
    )


# -- oracle -------------------------------------------------------------------


class Oracle:
    """Dense NumPy prefix-sum oracle over one generated stream.

    The set-up part of the stream lives in a padded ``np.cumsum`` prefix-sum
    cube; updates applied after set-up (the live edge, or the whole stream
    on the embedded workload) are added per box by a running sum over the
    arrival order, so the answer after any number ``k`` of live updates is
    exact, late arrivals included.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.shape = inputs.shape
        n = inputs.base_len
        dense = np.zeros(self.shape, dtype=np.int64)
        np.add.at(dense, tuple(inputs.coords[:n].T), inputs.values[:n])
        self.base_dense = dense
        ps = np.zeros(tuple(s + 1 for s in self.shape), dtype=np.int64)
        inner = dense
        for axis in range(dense.ndim):
            inner = np.cumsum(inner, axis=axis)
        ps[(slice(1, None),) * dense.ndim] = inner
        self.ps = ps
        self.live_coords, self.live_values = inputs.live()
        self._dense_cache: dict[int, np.ndarray] = {}

    def base_sums(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Box sums over the set-up state by inclusion-exclusion."""
        d = len(self.shape)
        hi = np.minimum(upper, np.asarray(self.shape) - 1) + 1
        lo = np.maximum(lower, 0)
        total = np.zeros(lower.shape[0], dtype=np.int64)
        for bits in itertools.product((0, 1), repeat=d):
            corner = np.where(np.asarray(bits, dtype=bool), hi, lo)
            sign = -1 if (d - sum(bits)) % 2 else 1
            total += sign * self.ps[tuple(corner.T)]
        return total

    def sums(self, lower: np.ndarray, upper: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Exact answers for box rows, each after ``ks[i]`` live updates."""
        out = self.base_sums(lower, upper)
        ks = np.asarray(ks, dtype=np.int64)
        if self.live_values.size == 0:
            return out
        first_live = int(self.live_coords[:, 0].min())
        seen = np.nonzero((ks > 0) & (upper[:, 0] >= first_live))[0]
        if seen.size:
            out[seen] += self._live_sums(lower[seen], upper[seen], ks[seen])
        return out

    def _live_sums(self, lower, upper, ks) -> np.ndarray:
        out = np.zeros(lower.shape[0], dtype=np.int64)
        # rows sharing a box share one running sum over the live stream
        keys = np.concatenate((lower, upper), axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        d = lower.shape[1]
        pts = self.live_coords
        for start in range(0, uniq.shape[0], 128):
            block = uniq[start : start + 128]
            inside = np.all(
                (pts[None, :, :] >= block[:, None, :d])
                & (pts[None, :, :] <= block[:, None, d:]),
                axis=2,
            )
            running = np.zeros((block.shape[0], pts.shape[0] + 1), dtype=np.int64)
            np.cumsum(inside * self.live_values[None, :], axis=1, out=running[:, 1:])
            stop = start + block.shape[0]
            rows = np.nonzero((inverse >= start) & (inverse < stop))[0]
            out[rows] += running[inverse[rows] - start, ks[rows]]
        return out

    def dense_at(self, k: int) -> np.ndarray:
        """The raw cube after ``k`` live updates (cached per ``k``)."""
        if k not in self._dense_cache:
            dense = self.base_dense.copy()
            np.add.at(dense, tuple(self.live_coords[:k].T), self.live_values[:k])
            self._dense_cache = {k: dense}
        return self._dense_cache[k]

    def topk(self, window, k_live: int):
        from repro.ranking import brute_topk

        t1, t2, k = window
        return brute_topk(self.dense_at(k_live), t1, t2, k)


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None


class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    ``span`` nests: a span opened while another is open records it as its
    parent.  Nothing is written until :meth:`dump` at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, request: int | None = None):
        return _SpanContext(self, name, request)

    def dump(self, path: Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [s.__dict__ for s in self.spans]
        path.write_text(json.dumps(rows))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, request) -> None:
        self.tracer, self.name, self.request = tracer, name, request

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        if self.request is None and parent is not None:
            self.request = tracer.spans[parent].request
        with tracer._lock:
            self.span_id = len(tracer.spans)
            span = Span(self.span_id, self.name, 0, 0, parent, self.request)
            tracer.spans.append(span)
        tracer._stack.append(self.span_id)
        tracer.spans[self.span_id].start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.span_id].end_ns = time.perf_counter_ns()
        self.tracer._stack.pop()

    @property
    def seconds(self) -> float:
        s = self.tracer.spans[self.span_id]
        return (s.end_ns - s.start_ns) / 1e9


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor, s.start_ns), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.span_id] = (s.end_ns - s.start_ns) - covered
    return result


# -- statistics ---------------------------------------------------------------


def quantile(samples, q: float) -> float:
    if not samples:
        return float("nan")
    return float(np.quantile(np.asarray(samples, dtype=float), q))


def median(samples) -> float:
    return quantile(samples, 0.5)


# -- host facts ---------------------------------------------------------------


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB; 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def process_tree(pid: int) -> list[int]:
    """``pid`` and all of its live descendants, from ``/proc``."""
    tree, frontier = [pid], [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                kids = Path(f"/proc/{parent}/task/{task}/children").read_text().split()
            except OSError:
                continue
            for kid in map(int, kids):
                tree.append(kid)
                frontier.append(kid)
    return tree


def disk_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    """What was measured and where: the tree itself, not its parent commit.

    ``commit`` and ``dirty`` come from git when the benchmark runs inside a
    work tree; ``src_sha256`` always identifies the measured sources, also
    in an exported checkout without ``.git``.
    """
    import sys

    from repro.ecube.compiled import backend_name

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "kernel_backend": backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1m_before": os.getloadavg()[0],
    }
