"""System process of the HTTP workloads (started fresh by ``load.py``).

Set-up (timed by the parent until ``ready``): generate the drifting stream,
build the streaming service and the serving tier (2 workers, 4096-row tasks,
as ``repro serve`` does), spawn the workers, bind the HTTP front and publish
the first epoch.  Then, on ``go T0``, ingest epoch ``k`` when it arrives at
``T0 + interval * (k - 0.5)`` on ``CLOCK_MONOTONIC``, beside the reads the
generator sends.  When stdin closes, write what was published (generation ->
estimate), the epoch timeline, peak RSS and any spans, then shut down.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

import layers
from common import peak_rss_mb
from tracing import Tracer

EPSILON = 3.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--window", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--interval", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM from an abandoned run unwinds the with-blocks below, so the workers
    # are stopped and the shared-memory segment is unlinked.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    from repro.core.domain import GridSpec
    from repro.datasets.synthetic import shifting_hotspot_stream
    from repro.serving import HttpServingFront, ServingServer
    from repro.streaming import StreamingEstimationService

    stream = shifting_hotspot_stream(
        n_epochs=args.epochs + 1, users_per_epoch=args.users, seed=args.seed
    )
    grid = GridSpec(stream.domain, args.d)
    published: dict[int, np.ndarray] = {}
    timeline = []
    tracer = Tracer()
    with ServingServer(grid, workers=2, coalesce_rows=4096) as server:
        service = StreamingEstimationService.build(
            stream.domain,
            args.d,
            EPSILON,
            window_epochs=args.window,
            seed=args.seed + 1,
            snapshot_writer=server.writer,
        )
        server.start()
        front = HttpServingFront(server).start()
        try:
            update = service.ingest_epoch(stream.epochs[0])
            published[server.generation] = update.estimate.probabilities
            print(f"ready {front.port}", flush=True)
            for line in sys.stdin:
                command = line.split()
                if not command or command[0] != "go":
                    continue
                t0 = float(command[1])
                if args.trace:
                    layers.install_server(tracer)
                for k in range(1, args.epochs + 1):
                    arrival = t0 + args.interval * (k - 0.5)
                    time.sleep(max(0.0, arrival - time.monotonic()))
                    began = time.monotonic()
                    update = service.ingest_epoch(stream.epochs[k])
                    done = time.monotonic()
                    published[server.generation] = update.estimate.probabilities
                    timeline.append(
                        {
                            "arrival": arrival,
                            "began": began,
                            "done": done,
                            "generation": server.generation,
                            "users": update.n_users_epoch,
                        }
                    )
                print("epochs-done", flush=True)
            tracer.uninstall()
            pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
            rss = peak_rss_mb(pids)
        finally:
            front.stop()
    out = Path(args.out)
    generations = sorted(published)
    np.savez(
        out.with_suffix(".npz"),
        generations=np.array(generations),
        estimates=np.stack([published[g] for g in generations]),
    )
    out.write_text(json.dumps({"timeline": timeline, "rss_mb": rss}))
    if args.trace:
        tracer.dump(out.with_suffix(".spans"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
