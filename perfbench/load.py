"""Workloads ``http-bulk`` and ``http-live``: the load generator and its checks.

This process is the generator: at most two threads, each with one keep-alive
``HttpQueryClient`` connection, against the system process in ``server.py``.
Inputs come from the workload seed only.  An open-loop schedule (fixed rate,
seeded jitter of +-10% of the interval) is built before the phase starts, and
each request's latency is timed from when it was due, so a stall also charges
the requests queued behind it.  The generator's own slip is reported as
``gen.late_p99_ms``; a run in which it fell behind is refused, not reported.

Every answer is checked bit-for-bit against a serial ``QueryEngine`` over the
estimate the server published under the generation stamped on the response.
"""

from __future__ import annotations

import http.client
import json
import math
import sys
import threading
import time

import numpy as np

from common import OUT, SETUP_REPEATS, BenchError, Child, quantile_ms

#: Sizes per workload and profile.  http-bulk's ``rate`` is frozen at about half
#: its closed-loop capacity when it was set (33 req/s on a 2-vCPU host); ``tail``
#: is the latency quantile reported as ``tail_ms``.
PARAMS = {
    "http-bulk": {
        "full": {"d": 16, "users": 20_000, "window": 4, "interval": 0.0, "rows": 4096,
                 "closed_requests": 160, "rate": 16.0, "tail": 0.95},
        "tiny": {"d": 8, "users": 2_000, "window": 2, "interval": 0.0, "rows": 256,
                 "closed_requests": 16, "rate": 20.0, "tail": 0.95},
    },
    "http-live": {
        "full": {"d": 32, "users": 20_000, "window": 4, "interval": 2.0, "rate": 100.0,
                 "tail": 0.90},
        "tiny": {"d": 8, "users": 2_000, "window": 2, "interval": 0.5, "rate": 40.0,
                 "tail": 0.90},
    },
}
#: Share of ``--seconds`` given to the open-loop phase of ``http-bulk``.
BULK_OPEN_SHARE = 0.75
#: The closed-loop rate is the median over this many consecutive slices of it.
CLOSED_SLICES = 8
#: The generator fell behind when its p99 slip exceeds this share of the interval.
LATE_LIMIT = 0.5
CLIENT_TIMEOUT_S = 30.0
CONNECTIONS = 2


# ------------------------------------------------------------------- inputs
def _bulk_requests(rng, rows: int, pool: int = 16):
    from repro.core.domain import SpatialDomain
    from repro.queries.engine import QueryLog
    from repro.serving.wire import QueryKind, QueryRequest

    unit = SpatialDomain.unit()
    return [
        QueryRequest(
            QueryKind.RANGE_MASS,
            {"queries": QueryLog.random(unit, n_range=rows, seed=rng).range_queries.tolist()},
        )
        for _ in range(pool)
    ]


def _live_requests(rng, pool: int = 64):
    """Round-robin over the five point kinds, small payloads."""
    from repro.core.domain import SpatialDomain
    from repro.queries.engine import QueryLog
    from repro.serving.wire import QueryRequest

    unit = SpatialDomain.unit()
    requests = []
    for _ in range(pool):
        requests += [
            QueryRequest(
                "range_mass",
                {"queries": QueryLog.random(unit, n_range=4, seed=rng).range_queries.tolist()},
            ),
            QueryRequest("point_density", {"points": rng.random((4, 2)).tolist()}),
            QueryRequest("top_k", {"k": 10}),
            QueryRequest("quantiles", {"levels": [0.5, 0.9]}),
            QueryRequest("marginals", {}),
        ]
    return requests


def _schedule(rng, rate: float, seconds: float) -> np.ndarray:
    n = max(1, int(rate * seconds))
    return (np.arange(n) + rng.uniform(-0.1, 0.1, n)) / rate


# --------------------------------------------------------------- the client
class Outcome:
    __slots__ = ("request", "due", "sent", "end", "late", "generation", "result", "error")


def _send(client, request, due: float, free_at: float) -> Outcome:
    from repro.serving.http import HttpStatusError

    outcome = Outcome()
    outcome.request = request
    outcome.due = due
    outcome.sent = time.monotonic()
    outcome.late = outcome.sent - max(due, free_at)
    outcome.generation = outcome.result = outcome.error = None
    try:
        response = client.query(request)
    except (HttpStatusError, OSError, http.client.HTTPException, ValueError) as error:
        outcome.error = f"{type(error).__name__}: {error}"
    else:
        outcome.generation = response.generation
        outcome.result = response.result
    outcome.end = time.monotonic()
    return outcome


def _drive(clients, requests, offsets=None, count=0) -> list[Outcome]:
    """Closed loop (``count`` requests back to back) or open loop (``offsets``)."""
    n = len(offsets) if offsets is not None else count
    outcomes: list = [None] * n
    lock = threading.Lock()
    cursor = [0]
    t0 = time.monotonic() + 0.05
    errors: list = []

    def worker(client) -> None:
        try:
            free_at = time.monotonic()
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= n:
                    return
                request = requests[index % len(requests)]
                if offsets is None:
                    due = time.monotonic()
                else:
                    due = t0 + offsets[index]
                    time.sleep(max(0.0, due - time.monotonic()))
                outcomes[index] = _send(client, request, due, free_at)
                free_at = outcomes[index].end
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)
            raise

    # Daemon threads: a run abandoned on its deadline does not wait for their sockets.
    threads = [threading.Thread(target=worker, args=(client,), daemon=True) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"load generator thread failed: {errors[0]!r}")
    return outcomes


# ---------------------------------------------------------------- checking
def _expected(engine, request):
    """The JSON-ready answer a serial engine gives (the front's answer shapes)."""
    kind, payload = request.kind.value, request.payload
    if kind == "range_mass":
        return engine.range_mass(np.asarray(payload["queries"], dtype=float)).tolist()
    if kind == "point_density":
        return engine.point_density(np.asarray(payload["points"], dtype=float)).tolist()
    if kind == "top_k":
        cells = engine.top_k_cells(int(payload["k"]))
        return {
            "flat_indices": cells.flat_indices.tolist(),
            "rows": cells.rows.tolist(),
            "cols": cells.cols.tolist(),
            "masses": cells.masses.tolist(),
            "centers": cells.centers.tolist(),
        }
    if kind == "quantiles":
        return [
            {
                "level": contour.level,
                "threshold": contour.threshold,
                "covered_mass": contour.covered_mass,
                "n_cells": contour.n_cells,
                "mask": contour.mask.astype(int).tolist(),
            }
            for contour in engine.quantile_contours([float(v) for v in payload["levels"]])
        ]
    x_marginal, y_marginal = engine.axis_marginals()
    return {"x": x_marginal.tolist(), "y": y_marginal.tolist()}


def _check(outcomes: list[Outcome], out, d: int) -> list[str]:
    """Failures: non-200s, timeouts and answers that differ from the serial engine."""
    from repro.core.domain import GridDistribution, GridSpec
    from repro.queries.engine import QueryEngine

    archive = np.load(out.with_suffix(".npz"))
    grid = GridSpec.unit(d)
    engines = {
        int(generation): QueryEngine(GridDistribution.from_normalized(grid, estimate))
        for generation, estimate in zip(archive["generations"], archive["estimates"])
    }
    failures = []
    for outcome in outcomes:
        if outcome.error is not None:
            failures.append(outcome.error)
        elif outcome.generation not in engines:
            failures.append(f"answer stamped with unpublished generation {outcome.generation}")
        elif _expected(engines[outcome.generation], outcome.request) != outcome.result:
            failures.append(
                f"{outcome.request.kind.value} answer differs from the serial engine "
                f"at generation {outcome.generation}"
            )
    return failures


# ------------------------------------------------------------------- phases
def _start_server(params: dict, seed: int, epochs: int, out, trace: bool):
    args = [
        "--d", str(params["d"]), "--users", str(params["users"]),
        "--window", str(params["window"]), "--epochs", str(epochs),
        "--interval", str(params["interval"]), "--seed", str(seed), "--out", str(out),
    ]
    if trace:
        args.append("--trace")
    server = Child("server.py", *args)
    try:
        (port,) = server.wait_ready()
    except BaseException:
        server.kill()
        raise
    return server, int(port)


def _clients(port: int):
    from repro.serving.http import HttpQueryClient

    return [
        HttpQueryClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S) for _ in range(CONNECTIONS)
    ]


def _late_check(outcomes: list[Outcome], rate: float) -> float:
    late_p99 = quantile_ms([o.late for o in outcomes], 0.99)
    if late_p99 > LATE_LIMIT * 1e3 / rate:
        raise BenchError(
            f"load generator fell behind its schedule (late p99 {late_p99:.2f} ms); "
            "latencies of this run are not reported"
        )
    return late_p99


def _phase(workload, params, seed, seconds, out, trace, requests, rng) -> dict:
    """One measured system process: set-up, load, shutdown, checks."""
    from repro.serving.wire import QueryRequest

    live = workload == "http-live"
    epochs = max(1, int(seconds / params["interval"])) if live else 0
    server, port = _start_server(params, seed, epochs, out, trace)
    tracer = None
    try:
        clients = _clients(port)
        if trace:
            import layers
            from tracing import Tracer

            tracer = Tracer()
            layers.install_client(tracer)
        server.send(f"go {time.monotonic()!r}")
        closed, closed_began = [], 0.0
        open_seconds = seconds
        if not live:
            closed_began = time.monotonic()
            closed = _drive(clients, requests, count=params["closed_requests"])
            open_seconds = seconds * BULK_OPEN_SHARE
        schedule = _schedule(rng, params["rate"], open_seconds)
        opened = _drive(clients, requests, offsets=schedule)
        late_p99 = _late_check(opened, params["rate"])
        server.wait_line("epochs-done")
        # One read after the last publish, so every epoch has been seen over HTTP.
        final = (
            [_send(clients[0], QueryRequest("marginals", {}), time.monotonic(), 0.0)]
            if live
            else []
        )
        front = clients[0].metrics()["per_kind"]
        for client in clients:
            client.close()
        if tracer is not None:
            tracer.uninstall()
        server.finish()
    except BaseException:
        server.kill()
        raise
    summary = json.loads(out.read_text())
    everything = [*closed, *opened, *final]
    failures = _check(everything, out, params["d"])
    freshness = _freshness_s(summary["timeline"], everything)
    failures += [
        f"epoch at generation {epoch['generation']} never answered"
        for epoch, fresh in zip(summary["timeline"], freshness)
        if math.isnan(fresh)
    ]
    return {
        "setup_s": server.setup_s,
        "closed": closed,
        "closed_began": closed_began,
        "opened": opened,
        "everything": everything,
        "late_p99_ms": late_p99,
        "front": front,
        "timeline": summary["timeline"],
        "freshness": freshness,
        "rss_mb": summary["rss_mb"],
        "failures": failures,
        "client_spans": tracer.spans if tracer is not None else [],
    }


def _setup_only(params, seed, out) -> float:
    """A fresh system process that is set up and stopped; returns its set-up time."""
    server, _ = _start_server(params, seed, 0, out, False)
    try:
        server.finish()
    except BaseException:
        server.kill()
        raise
    return server.setup_s


def _closed_rows_per_s(outcomes: list[Outcome], began: float) -> float:
    """Median rate over consecutive slices of the closed loop.

    Two connections contend for one serving thread, so how often their
    requests collide drifts during the phase; the median slice is steadier
    than the phase total and still counts every request in its slice.
    """
    ends = sorted(o.end for o in outcomes)
    per = len(ends) // CLOSED_SLICES
    edges = [began] + [ends[(k + 1) * per - 1] for k in range(CLOSED_SLICES)]
    rows = len(outcomes[0].request.payload["queries"])
    return float(np.median([per * rows / (b - a) for a, b in zip(edges, edges[1:])]))


def _freshness_s(timeline: list[dict], outcomes: list[Outcome]) -> list[float]:
    """Per epoch: arrival to the first answer stamped with its generation (or later)."""
    answered = sorted((o.end, o.generation) for o in outcomes if o.error is None)
    freshness = []
    for epoch in timeline:
        seen = [end for end, generation in answered if generation >= epoch["generation"]]
        freshness.append(seen[0] - epoch["arrival"] if seen else float("nan"))
    return freshness


def run(workload: str, seed: int, seconds: float, profile: str, trace: bool):
    """Returns ``(metrics, attempted, failed)`` for an HTTP workload."""
    params = PARAMS[workload][profile]
    rng = np.random.default_rng(seed)
    live = workload == "http-live"
    requests = _live_requests(rng) if live else _bulk_requests(rng, params["rows"])
    out = OUT / "server.json"

    setups = [_setup_only(params, seed, out) for _ in range(SETUP_REPEATS - 1)]
    phase = _phase(workload, params, seed, seconds, out, False, requests, rng)
    setups.append(phase["setup_s"])
    failures = phase["failures"]
    for failure in failures[:20]:
        print(f"{workload} check failed: {failure}", file=sys.stderr)
    attempted = len(phase["everything"]) + len(phase["timeline"])
    latencies = [o.end - o.due for o in phase["opened"]]
    p50_ms = quantile_ms(latencies, 0.5)
    if not trace:
        if live:
            wall = sum(epoch["done"] - epoch["began"] for epoch in phase["timeline"])
            rows = sum(epoch["users"] for epoch in phase["timeline"])
        else:
            rows = sum(len(o.request.payload["queries"]) for o in phase["closed"])
            wall = rows / _closed_rows_per_s(phase["closed"], phase["closed_began"])
        metrics = {
            "setup_s": float(np.median(setups)),
            "wall_s": wall,
            "rows_per_s": rows / wall,
            "p50_ms": p50_ms,
            "tail_ms": quantile_ms(latencies, params["tail"]),
            "p95_ms": quantile_ms(latencies, 0.95),
            "p99_ms": quantile_ms(latencies, 0.99),
            "peak_rss_mb": phase["rss_mb"],
        }
        if live:
            metrics["freshness_p50_ms"] = float(np.nanmedian(phase["freshness"])) * 1e3
        return metrics, attempted, len(failures)

    traced = _phase(workload, params, seed, seconds, out, True, requests, rng)
    attempted += len(traced["everything"]) + len(traced["timeline"])
    return _layer_metrics(traced, out, p50_ms), attempted, len(failures) + len(traced["failures"])


def _layer_metrics(traced: dict, out, untraced_p50_ms: float) -> dict:
    import layers
    from tracing import load_spans

    server_spans = load_spans(out.with_suffix(".spans"))
    metrics = layers.serving_layer_metrics(server_spans, traced["client_spans"])
    front = traced["front"]
    for kind, stats in front.items():
        metrics[f"http.front_p99_ms.{kind}"] = stats["latency_p99"] * 1e3
    if "range_mass" in front:
        metrics["http.front_p50_ms"] = front["range_mass"]["latency_p50"] * 1e3
        metrics["http.unaccounted_ms"] = (
            metrics["http.client_p50_ms"]
            - metrics["wire.encode_request_ms"]
            - metrics["wire.decode_response_ms"]
            - metrics["http.front_p50_ms"]
        )
    # Reads due while EM runs in the front's process wait for it.
    solves = [(s[3], s[4]) for s in server_spans if s[2] == "streaming.solve"]
    if solves:
        during, idle = [], []
        for outcome in traced["opened"]:
            in_solve = any(start <= outcome.due <= end for start, end in solves)
            (during if in_solve else idle).append(outcome.end - outcome.due)
        if during:
            metrics["live.p99_during_solve_ms"] = quantile_ms(during, 0.99)
        metrics["live.p99_idle_ms"] = quantile_ms(idle, 0.99)
    metrics["gen.late_p99_ms"] = traced["late_p99_ms"]
    traced_p50 = quantile_ms([o.end - o.due for o in traced["opened"]], 0.5)
    metrics["trace.overhead_p50_ms"] = traced_p50 - untraced_p50_ms
    return metrics
