"""Self-test of the benchmark: every workload (also http-bulk) at tiny size, both modes.

    python3 perfbench/selftest.py

Checks that each run exits 0; prints every metric of ``BENCHMARK.json`` by name
with its unit, both readably and in the JSON last line; reports
``failed_ratio`` 0; and that the traced breakdowns add up (fig9-sweep: layer
self times sum to the traced wall time within 10%; http-bulk: client encode +
transport + decode sum to the client p50 within 10%).  Finally, a copy of the
benchmark without the program must exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, OUT, ROOT, remove_out
from run import WORKLOADS

RUN = ["perfbench/run.py", "--seed", "1", "--seconds", "2", "--tiny"]


def _run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = _run(workload, trace)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    if "failed_ratio 0.000000 ratio" not in " ".join(" ".join(lines).split()):
        problems.append("failed_ratio is not printed as 0")
    if sorted(result["metrics"]) != sorted(metric["name"] for metric in wanted):
        problems.append(f"metric names {sorted(result['metrics'])}")
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for metric in wanted:
        measured = result["metrics"].get(metric["name"], {})
        if measured.get("unit") != metric["unit"] or printed.get(metric["name"]) != metric["unit"]:
            problems.append(f"{metric['name']} not printed with unit {metric['unit']}")
        if not trace and not measured.get("value", 0) > 0:
            problems.append(f"{metric['name']} is not positive")
    values = {name: measured["value"] for name, measured in result["metrics"].items()}
    if trace and workload == "fig9-sweep":
        if abs(values["trace.layers_sum_s"] - values["trace.wall_s"]) > 0.1 * values["trace.wall_s"]:
            problems.append("layer self times do not sum to the traced wall time")
    if trace and workload == "http-bulk":
        parts = sum(
            values[name]
            for name in ("wire.encode_request_ms", "http.client_transport_ms",
                         "wire.decode_response_ms")
        )
        if abs(parts - values["http.client_p50_ms"]) > 0.1 * values["http.client_p50_ms"]:
            problems.append(f"client parts {parts:.3f} ms vs client p50 {values['http.client_p50_ms']:.3f} ms")
    return [f"{workload} trace={trace}: {problem}" for problem in problems]


def _check_without_program() -> list[str]:
    bare = OUT / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("http-bulk", 0, cwd=bare)
    finally:
        remove_out()
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return ["without the program the benchmark did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = _check_run(workload, trace, spec)
            print(f"{workload:<11} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += _check_without_program()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
