"""Serve one benchmark stack over TCP until SIGTERM drains it.

Built only from public APIs: a durable, buffered ``ShardedCube`` behind a
``ShardServer``, as ``python -m repro serve --durable-dir`` builds it, plus
the two steps the wire cannot ask for -- loading a history file in-process
and demoting it (the wire has no ``demote`` op) -- and recovery from an
existing directory.

Prints one JSON banner line once it listens and, after the drain, one
line listing leaked shared-memory segments; exits 1 if any leaked.

    python3 perfbench/host.py --dir D --shape 72,144,4 --num-times 98 \
        [--history H.npz] [--tiers JSON] [--demote 3,9,...] [--recover]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.sharding import ShardServer, ShardedCube, leaked_segments  # noqa: E402

LOAD_CHUNK = 4096
#: the served stack of every workload: two shard workers, two shm readers
SHARDS = 2
READERS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--shape", required=True)
    parser.add_argument("--num-times", type=int, required=True)
    parser.add_argument("--history")
    parser.add_argument("--tiers")
    parser.add_argument("--demote", default="")
    parser.add_argument("--recover", action="store_true")
    args = parser.parse_args(argv)
    # a SIGTERM during load must still close the cube (and its workers)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.recover:
        cube = ShardedCube.recover(args.dir, readers=READERS)
    else:
        cube = ShardedCube(
            tuple(int(n) for n in args.shape.split(",")),
            shards=SHARDS,
            readers=READERS,
            num_times=args.num_times,
            durable_dir=args.dir,
            tiers=json.loads(args.tiers) if args.tiers else None,
        )
    try:
        if args.history:
            with np.load(args.history) as history:
                coords, values = history["coords"], history["values"]
            for start in range(0, coords.shape[0], LOAD_CHUNK):
                stop = start + LOAD_CHUNK
                cube.update_many(coords[start:stop], values[start:stop])
            for horizon in filter(None, args.demote.split(",")):
                cube.demote_before(int(horizon))
            cube.checkpoint()
        server = ShardServer(cube)

        async def serve() -> None:
            await server.start()
            # drain on SIGTERM from the moment the banner can be read
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, lambda: asyncio.ensure_future(server.shutdown())
            )
            print(json.dumps({"listening": server.port}), flush=True)
            await server.serve_forever(install_sigterm=False)

        asyncio.run(serve())
    finally:
        cube.close()
    leaked = leaked_segments()
    print(json.dumps({"leaked_segments": leaked}), flush=True)
    return 1 if leaked else 0


if __name__ == "__main__":
    raise SystemExit(main())
