"""Which public functions each layer is timed at, and the per-layer metrics derived.

Every span is recorded from the benchmark's side of a call into the program
(see :mod:`tracing`); nothing in ``src/`` is edited.  A function imported into
several modules is patched at each binding its callers look up.
"""

from __future__ import annotations

import numpy as np

from tracing import Tracer, self_times

#: Mechanisms built by ``repro.core`` (the rest come from ``repro.mechanisms``).
CORE_MECHANISMS = frozenset({"DAM", "DAM-NS", "HUEM"})


def _em_counters(result) -> dict:
    return {"iterations": result.iterations}


def install_em(tracer: Tracer) -> None:
    """EM solves and the EMS smoother, wherever a mechanism or service calls them."""
    from repro.core import dam, huem, postprocess
    from repro.mechanisms import geo_i, sem_geo_i, sw
    from repro.streaming import service

    for module in (postprocess, dam, huem, sem_geo_i, geo_i, sw, service):
        tracer.wrap(module, "expectation_maximization", "core.em", on_result=_em_counters)
    for module in (dam, huem, sem_geo_i, geo_i):
        tracer.patch(
            module,
            "make_grid_smoother",
            lambda make: lambda *args, **kwargs: tracer.traced(
                make(*args, **kwargs), "core.smooth"
            ),
        )


def install_sweep(tracer: Tracer) -> None:
    """The figure-sweep path: experiments → build → privatize → EM → W2."""
    from repro.core.dam import DiscreteDAM
    from repro.core.huem import DiscreteHUEM
    from repro.experiments import runner
    from repro.mechanisms.mdsw import MDSW
    from repro.mechanisms.sem_geo_i import SEMGeoI
    from repro.metrics import sinkhorn, wasserstein

    tracer.wrap(runner, "sweep_parameter", "experiments")
    tracer.wrap(
        runner,
        "build_mechanism",
        lambda name, *args, **kwargs: (
            "core.build" if name in CORE_MECHANISMS else "mechanisms.build"
        ),
    )
    tracer.wrap(runner, "calibrated_sem_epsilon", "metrics.calibrate")
    # A disk mechanism's run() privatizes and aggregates itself; EM is a child span.
    tracer.wrap(DiscreteDAM, "run", "core.privatize")
    tracer.wrap(DiscreteHUEM, "run", "core.privatize")
    tracer.wrap(MDSW, "run", "mechanisms.estimate")
    tracer.wrap(SEMGeoI, "run", "mechanisms.estimate")
    install_em(tracer)
    tracer.wrap(wasserstein, "wasserstein2_grid", "metrics.exact")
    tracer.wrap(sinkhorn, "sinkhorn_wasserstein", "metrics.sinkhorn")
    tracer.patch(
        sinkhorn,
        "sinkhorn_plan",
        lambda plan: tracer.counted(plan, lambda out: {"iterations": out[1].iterations}),
    )


def install_server(tracer: Tracer) -> None:
    """The serving path inside the system process (not its forked workers)."""
    from repro.core.parallel import ParallelPipeline
    from repro.queries.engine import QueryEngine, StreamingQueryEngine
    from repro.serving.server import ServingServer
    from repro.serving.shm import SnapshotReader, SnapshotWriter
    from repro.serving.wire import QueryRequest, QueryResponse
    from repro.streaming.service import StreamingEstimationService
    from repro.streaming.window import WindowedAggregator

    tracer.wrap(QueryRequest, "from_json", "wire.parse_request")
    tracer.wrap(QueryResponse, "to_json", "wire.encode_response", on_result=_size)
    tracer.wrap(ServingServer, "submit_range_mass", "serving.submit")
    tracer.wrap(ServingServer, "flush", "serving.flush")
    tracer.wrap(ServingServer, "collect", "serving.collect")
    tracer.wrap(SnapshotReader, "read", "shm.read")
    for method in ("range_mass", "point_density", "top_k_cells", "quantile_contours",
                   "axis_marginals"):
        tracer.wrap(QueryEngine, method, "queries.answer")
    tracer.wrap(StreamingEstimationService, "ingest_epoch", "streaming.ingest")
    tracer.wrap(ParallelPipeline, "aggregate", "streaming.privatize")
    tracer.wrap(WindowedAggregator, "commit_aggregate", "streaming.slide")
    tracer.wrap(StreamingEstimationService, "solve_window", "streaming.solve")
    tracer.wrap(SnapshotWriter, "publish", "shm.publish")
    tracer.wrap(StreamingQueryEngine, "refresh", "queries.refresh")
    install_em(tracer)


def install_client(tracer: Tracer) -> None:
    """The load generator's client: encode → transport → decode."""
    from repro.serving.http import HttpQueryClient
    from repro.serving.wire import QueryRequest, QueryResponse

    tracer.wrap(HttpQueryClient, "query", "http.client")
    tracer.wrap(QueryRequest, "to_json", "wire.encode_request", on_result=_size)
    tracer.wrap(QueryResponse, "from_json", "wire.decode_response")


def _size(text) -> dict:
    return {"bytes": len(text)}


def _median_ms(layers: dict, name: str) -> float:
    durations = layers[name]["durations"] if name in layers else []
    return float(np.median(durations)) * 1e3 if durations else 0.0


def sweep_layer_metrics(spans: list[list]) -> dict[str, float]:
    layers = self_times(spans)

    def self_s(name: str) -> float:
        return layers[name]["self_s"] if name in layers else 0.0

    def calls(name: str) -> float:
        return float(layers[name]["calls"]) if name in layers else 0.0

    def counter(name: str, key: str) -> float:
        return float(layers[name]["counters"].get(key, 0.0)) if name in layers else 0.0

    em_iterations = counter("core.em", "iterations")
    metrics = {
        f"{name}_s": self_s(name)
        for name in (
            "core.build", "mechanisms.build", "metrics.calibrate", "core.privatize",
            "core.em", "core.smooth", "mechanisms.estimate", "metrics.exact",
            "metrics.sinkhorn",
        )
    }
    metrics.update(
        {
            "experiments.self_s": self_s("experiments"),
            "core.em_calls": calls("core.em"),
            "core.em_iterations": em_iterations,
            "core.em_ms_per_iter": self_s("core.em") / em_iterations * 1e3 if em_iterations else 0.0,
            "metrics.exact_calls": calls("metrics.exact"),
            "metrics.sinkhorn_calls": calls("metrics.sinkhorn"),
            "metrics.sinkhorn_iterations": counter("metrics.sinkhorn", "iterations"),
            "trace.layers_sum_s": sum(layer["self_s"] for layer in layers.values()),
        }
    )
    return metrics


def serving_layer_metrics(server_spans: list[list], client_spans: list[list]) -> dict[str, float]:
    """Per-call medians of the serving layers (both processes) plus EM totals."""
    server = self_times(server_spans)
    client = self_times(client_spans)
    metrics = {
        f"{name}_ms": _median_ms(server, name)
        for name in (
            "wire.parse_request", "wire.encode_response", "serving.submit", "serving.collect",
            "streaming.ingest", "streaming.privatize", "streaming.slide", "streaming.solve",
            "shm.publish", "queries.refresh", "shm.read", "queries.answer",
        )
    }
    # A flush inside collect() finds nothing buffered; only top-level flushes dispatch.
    flushes = [
        span[4] - span[3] for span in server_spans if span[2] == "serving.flush" and not span[1]
    ]
    metrics["serving.flush_ms"] = float(np.median(flushes)) * 1e3 if flushes else 0.0
    submits = server["serving.submit"]["calls"] if "serving.submit" in server else 0
    metrics["serving.requests_per_flush"] = submits / len(flushes) if flushes else 0.0

    queries = [span for span in client_spans if span[2] == "http.client"]
    child_time: dict[int, float] = {}
    for span in client_spans:
        if span[1]:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[4] - span[3]
    metrics["http.client_p50_ms"] = _median_ms(client, "http.client")
    metrics["http.client_transport_ms"] = (
        float(np.median([s[4] - s[3] - child_time.get(s[0], 0.0) for s in queries])) * 1e3
        if queries
        else 0.0
    )
    metrics["wire.encode_request_ms"] = _median_ms(client, "wire.encode_request")
    metrics["wire.decode_response_ms"] = _median_ms(client, "wire.decode_response")
    metrics["wire.request_bytes"] = _mean_counter(client, "wire.encode_request", "bytes")
    metrics["wire.response_bytes"] = _mean_counter(server, "wire.encode_response", "bytes")

    em = server.get("core.em")
    em_iterations = float(em["counters"].get("iterations", 0.0)) if em else 0.0
    metrics["core.em_s"] = em["self_s"] if em else 0.0
    metrics["core.em_calls"] = float(em["calls"]) if em else 0.0
    metrics["core.em_iterations"] = em_iterations
    metrics["core.em_ms_per_iter"] = (
        em["self_s"] / em_iterations * 1e3 if em and em_iterations else 0.0
    )
    return metrics


def _mean_counter(layers: dict, name: str, key: str) -> float:
    if name not in layers or not layers[name]["calls"]:
        return 0.0
    return float(layers[name]["counters"].get(key, 0.0)) / layers[name]["calls"]
