"""The repository benchmark: one command, three workloads, one JSON result line.

    python3 perfbench/run.py --workload fig9-sweep --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the workload untraced and then traced and prints the per-layer metrics.
Metric definitions and the layer -> end-to-end mapping are in ``README.md``.
Each run starts its system processes fresh; ``--tiny`` shrinks every workload
for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import OUT, ROOT, SRC, BenchError, emit, remove_out

WORKLOADS = ("fig9-sweep", "http-bulk", "http-live")
#: Metrics printed by name but not bounded (not in the JSON line): the HTTP
#: workloads' p95 and p99 latency, and http-live's freshness.
ALIASES = {"p95_ms": "ms", "p99_ms": "ms", "freshness_p50_ms": "ms"}
#: A run is abandoned (non-zero exit, system processes stopped) after this long.
DEADLINE_S = 170


def _deadline(*_) -> None:
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True)
    profile = "tiny" if args.tiny else "full"
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        if args.workload == "fig9-sweep":
            import sweep

            metrics, attempted, failed = sweep.run(args.seed, profile, bool(args.trace))
        else:
            import load

            metrics, attempted, failed = load.run(
                args.workload, args.seed, args.seconds, profile, bool(args.trace)
            )
    except BenchError as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        remove_out()
    # Layers a workload never reaches read 0; every end-to-end metric must be measured.
    missing = [name for name in units if name not in metrics]
    if missing and not args.trace:
        print(f"benchmark bug: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 4
    emit(
        failed == 0,
        attempted,
        failed,
        {name: metrics.get(name, 0.0) for name in units},
        units,
        {name: (metrics[name], unit) for name, unit in ALIASES.items() if name in metrics},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
