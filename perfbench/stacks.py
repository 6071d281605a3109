"""The two stacks the workloads drive: served (TCP) and embedded (in-process).

Both expose the same handful of calls, so a workload is a traffic mix and
not a second copy of the client code.  A call returns the program's answer
untouched; checking it against the oracle is the workload's job.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import TIERS, Inputs, disk_bytes, process_tree, vm_hwm_kb

HOST = Path(__file__).resolve().parent / "host.py"
#: longest a host may take to start listening or to drain after SIGTERM
HOST_TIMEOUT_S = 120.0


class HostError(RuntimeError):
    """A host process failed to start, to answer, or to shut down cleanly."""


class Host:
    """One ``host.py`` child process and its banner."""

    def __init__(self, args: list[str], log: Path) -> None:
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HOST), *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        deadline = time.monotonic() + HOST_TIMEOUT_S
        line = ""
        while not line:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, left))
            if not ready:
                self.kill()
                raise HostError(f"host did not listen within {HOST_TIMEOUT_S:.0f} s")
            line = self.proc.stdout.readline()
            if not line:
                self.kill()
                raise HostError(f"host exited during start; see {log}")
        self.port = int(json.loads(line)["listening"])

    def stop(self) -> list[str]:
        """SIGTERM, wait for the drain; return the problems seen (empty = clean)."""
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=HOST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            problems.append("host did not drain after SIGTERM")
            out = ""
        finally:
            self._log.close()
        if self.proc.returncode != 0:
            problems.append(f"host exited with {self.proc.returncode}")
        for line in out.splitlines():
            if line.startswith('{"leaked_segments"'):
                leaked = json.loads(line)["leaked_segments"]
                if leaked:
                    problems.append(f"host left {len(leaked)} shm segments")
        return problems

    def kill(self) -> None:
        for pid in reversed(process_tree(self.proc.pid)):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        if not self._log.closed:
            self._log.close()


def _leaked() -> list[str]:
    from repro.sharding import leaked_segments

    return leaked_segments()


class Served:
    """A durable, buffered ``ShardedCube`` (2 shards, 2 shm readers) over TCP."""

    connections = 2

    def __init__(self, inputs: Inputs, workdir: Path, tiered: bool) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.tiered = tiered
        self.cube_dir = workdir / "cube"
        self.host: Host | None = None
        self.clients: list = []

    def _base_args(self) -> list[str]:
        shape = ",".join(str(n) for n in self.inputs.slice_shape)
        return ["--dir", str(self.cube_dir), "--shape", shape,
                "--num-times", str(self.inputs.num_times)]

    def _connect(self) -> None:
        from repro.sharding import ShardClient

        self.clients = [
            ShardClient("127.0.0.1", self.host.port, timeout=HOST_TIMEOUT_S)
            for _ in range(self.connections)
        ]

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        history = self.workdir / "history.npz"
        n = self.inputs.base_len
        np.savez(history, coords=self.inputs.coords[:n], values=self.inputs.values[:n])
        args = self._base_args() + ["--history", str(history)]
        if self.tiered:
            args += ["--tiers", json.dumps(TIERS),
                     "--demote", ",".join(map(str, self.inputs.demote))]
        self.host = Host(args, self.workdir / "host.log")
        self._connect()

    # -- calls ----------------------------------------------------------------

    def query_many(self, pairs, conn: int = 0) -> list[int]:
        return self.clients[conn].query_many(pairs)

    def point(self, pair, conn: int = 0) -> int:
        return self.clients[conn].query(pair)

    def update_many(self, points: list, deltas: list) -> None:
        self.clients[0].update_many(points, deltas)

    def approx(self, pairs) -> list:
        return self.clients[0].query_many_approx(pairs)

    def topk(self, window) -> list:
        return self.clients[0].topk_many([window], nonnegative=True)[0]

    # -- facts and lifecycle ----------------------------------------------------

    def peak_rss_kb(self) -> int:
        return sum(vm_hwm_kb(pid) for pid in process_tree(self.host.proc.pid))

    def disk_bytes(self) -> int:
        return disk_bytes(self.cube_dir)

    def stop(self) -> list[str]:
        for client in self.clients:
            client.close()
        self.clients = []
        problems = self.host.stop() if self.host is not None else []
        self.host = None
        leaked = _leaked()
        if leaked:
            problems.append(f"{len(leaked)} shm segments survive the host")
        return problems

    def recover(self, probe) -> tuple[float, object]:
        """Restart from the directory; seconds until the host listens again."""
        start = time.perf_counter()
        self.host = Host(self._base_args() + ["--recover"], self.workdir / "host.log")
        elapsed = time.perf_counter() - start
        self._connect()
        return elapsed, probe(self)


class _ViewFront:
    """Adapts a pinned view to the ``query_many(boxes, mode)`` call TopKEngine makes."""

    def __init__(self, view, slice_shape) -> None:
        self.view = view
        self.slice_shape = slice_shape

    def query_many(self, boxes, mode: str = "fast") -> list[int]:
        return self.view.query_many(boxes)


class Embedded:
    """``SnapshotCube`` over a buffered ``DurableCube`` (fsync="batch").

    The durable cube carries the same tier ladder as the aged served stack
    but is never demoted, so ``approx`` answers through the tiered front's
    estimator with every prefix live.
    """

    connections = 1

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.cube_dir = workdir / "cube"
        self.durable = None
        self.snap = None
        self._view = None

    def setup(self) -> None:
        from repro import DurableCube, SnapshotCube

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.durable = DurableCube(
            self.inputs.slice_shape,
            self.cube_dir,
            buffered=True,
            fsync="batch",
            num_times=self.inputs.num_times,
            tiers=TIERS,
        )
        self.snap = SnapshotCube(self.durable)

    # -- calls ----------------------------------------------------------------

    def query_many(self, boxes, conn: int = 0) -> list[int]:
        with self.snap.snapshot() as view:
            return view.query_many(boxes)

    def pin(self) -> None:
        """Pin one epoch for the read-only phases (points, top-k)."""
        self.unpin()
        self._view = self.snap.snapshot()

    def unpin(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None

    def point(self, box, conn: int = 0) -> int:
        return self._view.query(box)

    def update_many(self, points, deltas) -> None:
        self.snap.update_many(points, deltas)

    def checkpoint(self) -> None:
        self.snap.checkpoint()

    def approx(self, boxes) -> list:
        return self.durable.front.query_many_approx(boxes)

    def topk(self, window) -> list:
        from repro import TopKEngine

        front = _ViewFront(self._view, self.inputs.slice_shape)
        engine = TopKEngine(front, nonnegative=True)
        return engine.topk_many([window])[0]

    # -- facts and lifecycle ----------------------------------------------------

    def peak_rss_kb(self) -> int:
        return vm_hwm_kb(os.getpid())

    def disk_bytes(self) -> int:
        return disk_bytes(self.cube_dir)

    def stop(self) -> list[str]:
        self.unpin()
        if self.snap is not None:
            self.snap.close()
            self.durable.close()
        self.snap = self.durable = None
        return []

    def recover(self, probe) -> tuple[float, object]:
        from repro import DurableCube

        start = time.perf_counter()
        self.durable = DurableCube.recover(self.cube_dir)
        elapsed = time.perf_counter() - start
        try:
            return elapsed, probe(self)
        finally:
            self.durable.close()
            self.durable = None

    def recovered_query(self, boxes) -> list[int]:
        return self.durable.query_many(boxes)
