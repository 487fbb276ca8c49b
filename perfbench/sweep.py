"""Workload ``fig9-sweep``: the paper's Figure 9 panels, serial, in a fresh process.

The parent (:func:`run`) starts :data:`common.SETUP_REPEATS` fresh interpreters;
the last one sweeps.  The child (``python sweep.py --child ...``) runs every
cell of both panels through ``experiments.runner.sweep_parameter`` one cell at
a time (cells carry their own seeds, so this equals one whole-panel call) and
writes the per-cell W2 and timings to a JSON file.

``python perfbench/sweep.py --make-reference`` regenerates ``reference_w2.json``:
the config seeds a workload seed maps to, and every cell's W2 under each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

#: Workload seed ``n`` runs the sweep under config seed ``seeds[n % len(seeds)]``.
#: The seeds are screened from ``CANDIDATE_SEEDS`` for equal work: how many EM and
#: Sinkhorn iterations a sweep takes depends on its data, and the benchmark
#: compares timings across workload seeds.
CANDIDATE_SEEDS = range(2025, 2041)
VARIANTS = 5
REFERENCE = Path(__file__).resolve().parent / "reference_w2.json"
#: Relative W2 tolerance: 1e4 x the ~1e-10 moves expected from EM or metric
#: rewrites, far below any change in what a mechanism estimates.
W2_RTOL = 1e-6
W2_ATOL = 1e-12

PROFILES = {
    # Figure 9 small-epsilon panel at d=15 and small-d panel at epsilon=3.5,
    # laptop scale (2% datasets, 20k users per part cap, 2 repetitions).
    "full": {
        "config": "laptop",
        "overrides": {},
        "panels": (("epsilon", (0.7, 1.4, 2.1, 2.8, 3.5)), ("d", (2, 3, 4, 5))),
    },
    # Self-test size: smoke datasets, d=13 still crosses into the Sinkhorn metric.
    "tiny": {
        "config": "smoke",
        "overrides": {"default_d": 13},
        "panels": (("epsilon", (0.7, 3.5)), ("d", (2, 3))),
    },
}
DATASETS = ("Crime", "Normal")


def _config(profile: str, config_seed: int):
    from repro.experiments.config import MAIN_MECHANISMS, laptop_config, smoke_config

    spec = PROFILES[profile]
    base = laptop_config() if spec["config"] == "laptop" else smoke_config()
    return base.with_overrides(
        **spec["overrides"],
        seed=config_seed,
        datasets=DATASETS,
        mechanisms=MAIN_MECHANISMS,
        default_epsilon=3.5,
        workers=1,
        cache_dir=None,
        backend="operator",
    )


def _reports_per_cell(config) -> dict[str, int]:
    """User reports one cell privatizes and estimates, per dataset (all repeats)."""
    from repro.datasets.loader import load_dataset

    rows = {}
    for name in config.datasets:
        dataset = load_dataset(name, scale=config.dataset_scale, seed=config.seed)
        users = 0
        for _, points, domain in dataset.parts:
            inside = int(domain.contains(np.asarray(points, dtype=float)).sum())
            cap = config.max_users_per_part
            users += inside if cap is None else min(inside, cap)
        rows[name] = users * config.n_repeats
    return rows


def child_main(args) -> int:
    from repro.experiments import runner

    import layers
    from common import peak_rss_mb
    from tracing import Tracer

    config = _config(args.profile, args.config_seed)
    reports = _reports_per_cell(config)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = Tracer()
    if args.trace:
        layers.install_sweep(tracer)
    cells = []
    start = time.monotonic()
    for parameter, values in PROFILES[args.profile]["panels"]:
        for dataset in config.datasets:
            for value in values:
                for mechanism in config.mechanisms:
                    began = time.monotonic()
                    result = runner.sweep_parameter(
                        f"fig9-{parameter}", parameter, (value,), (mechanism,), config,
                        datasets=(dataset,),
                    )
                    cells.append(
                        {
                            "key": f"{parameter}/{dataset}/{mechanism}/{value}",
                            "w2": result.points[0].w2_mean,
                            "seconds": time.monotonic() - began,
                            "reports": reports[dataset],
                        }
                    )
    wall = time.monotonic() - start
    tracer.uninstall()
    out = Path(args.out)
    if args.trace:
        tracer.dump(out.with_suffix(".spans"))
    out.write_text(
        json.dumps({"cells": cells, "wall_s": wall, "rss_mb": peak_rss_mb([os.getpid()])})
    )
    return 0


def check_cells(cells: list[dict], profile: str, config_seed: int) -> list[str]:
    """Failures: cells off the reference table, and breaks of the paper's ordering."""
    reference = json.loads(REFERENCE.read_text())[profile]["w2"][str(config_seed)]
    failures = []
    for cell in cells:
        expected = reference.get(cell["key"])
        if expected is None or not math.isclose(
            cell["w2"], expected, rel_tol=W2_RTOL, abs_tol=W2_ATOL
        ):
            failures.append(f"{cell['key']}: W2 {cell['w2']!r}, reference {expected!r}")
    # Figure 9: DAM never loses badly to MDSW, per panel and dataset (mean over the panel).
    means: dict[tuple, dict[str, list]] = {}
    for cell in cells:
        parameter, dataset, mechanism, _ = cell["key"].split("/")
        means.setdefault((parameter, dataset), {}).setdefault(mechanism, []).append(cell["w2"])
    for (parameter, dataset), series in means.items():
        dam, mdsw = np.mean(series["DAM"]), np.mean(series["MDSW"])
        if not dam <= 1.3 * mdsw + 0.01:
            failures.append(f"{parameter}/{dataset}: DAM {dam:.4f} > 1.3 x MDSW {mdsw:.4f} + 0.01")
    return failures


def _sweep_once(profile: str, config_seed: int, out: Path, *, trace: bool, setup_only=False):
    from common import Child

    args = ["--child", "--profile", profile, "--config-seed", str(config_seed), "--out", str(out)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    child = Child("sweep.py", *args)
    try:
        child.wait_ready()
        child.finish()
    except BaseException:
        child.kill()
        raise
    return child.setup_s


def run(seed: int, profile: str, trace: bool) -> tuple[dict, int, int]:
    """Returns ``(metrics, attempted, failed)`` for the workload."""
    from common import OUT, SETUP_REPEATS
    from tracing import load_spans

    import layers

    seeds = json.loads(REFERENCE.read_text())[profile]["config_seeds"]
    config_seed = seeds[seed % len(seeds)]
    out = OUT / "sweep.json"
    setups = [
        _sweep_once(profile, config_seed, out, trace=False, setup_only=True)
        for _ in range(SETUP_REPEATS - 1)
    ]
    setups.append(_sweep_once(profile, config_seed, out, trace=False))
    result = json.loads(out.read_text())
    cells = result["cells"]
    failures = check_cells(cells, profile, config_seed)
    for failure in failures:
        print(f"fig9-sweep check failed: {failure}", file=sys.stderr)
    attempted = len(cells) + len(PROFILES[profile]["panels"]) * len(DATASETS)
    wall = result["wall_s"]
    if not trace:
        # One operation is one mechanism's curves in both panels: single cells
        # are too uneven (EM stops early on some inputs, runs to its cap on others).
        per_mechanism: dict[str, float] = {}
        for cell in cells:
            mechanism = cell["key"].split("/")[2]
            per_mechanism[mechanism] = per_mechanism.get(mechanism, 0.0) + cell["seconds"]
        metrics = {
            "setup_s": float(np.median(setups)),
            "wall_s": wall,
            "rows_per_s": sum(cell["reports"] for cell in cells) / wall,
            "p50_ms": float(np.median(list(per_mechanism.values()))) * 1e3,
            "tail_ms": max(per_mechanism.values()) * 1e3,
            "peak_rss_mb": result["rss_mb"],
        }
        return metrics, attempted, len(failures)
    _sweep_once(profile, config_seed, out, trace=True)
    traced = json.loads(out.read_text())
    traced_failures = check_cells(traced["cells"], profile, config_seed)
    metrics = layers.sweep_layer_metrics(load_spans(out.with_suffix(".spans")))
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_wall_s"] = traced["wall_s"] - wall
    return metrics, 2 * attempted, len(failures) + len(traced_failures)


def make_reference() -> None:
    """Sweep every candidate config seed traced; keep the VARIANTS of most typical work.

    Work is counted, not timed: total EM and Sinkhorn iterations, each relative
    to its median over the candidates.  Takes about a minute per candidate.
    """
    from common import OUT, remove_out
    from tracing import load_spans

    import layers

    OUT.mkdir(parents=True)
    table = {}
    for profile in PROFILES:
        w2, work = {}, {}
        for config_seed in CANDIDATE_SEEDS:
            out = OUT / f"reference-{profile}-{config_seed}.json"
            _sweep_once(profile, config_seed, out, trace=True)
            cells = json.loads(out.read_text())["cells"]
            counts = layers.sweep_layer_metrics(load_spans(out.with_suffix(".spans")))
            work[config_seed] = (counts["core.em_iterations"], counts["metrics.sinkhorn_iterations"])
            w2[str(config_seed)] = {cell["key"]: cell["w2"] for cell in cells}
            print(f"{profile} config seed {config_seed}: EM, Sinkhorn iterations "
                  f"{work[config_seed]}", flush=True)
        medians = np.median(list(work.values()), axis=0)

        def distance(config_seed: int) -> float:
            return float(np.max(np.abs(np.array(work[config_seed]) / np.maximum(medians, 1) - 1)))

        chosen = sorted(sorted(work, key=distance)[:VARIANTS])
        print(f"{profile}: config seeds {chosen}, largest work distance "
              f"{max(map(distance, chosen)):.4f}", flush=True)
        table[profile] = {
            "config_seeds": chosen,
            "w2": {str(config_seed): w2[str(config_seed)] for config_seed in chosen},
        }
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    remove_out()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--config-seed", type=int, default=CANDIDATE_SEEDS[0])
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.make_reference:
        make_reference()
        return 0
    parser.error("pass --child or --make-reference")


if __name__ == "__main__":
    sys.exit(main())
