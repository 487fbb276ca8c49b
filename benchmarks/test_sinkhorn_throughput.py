"""Separable Sinkhorn W2 against the dense log-kernel solver.

For grids above the exact-LP limit the figure sweeps score every estimate with the
Sinkhorn ``W2`` (Section VII-C2).  :func:`repro.metrics.sinkhorn.sinkhorn_wasserstein`
runs it on the two ``d x d`` per-axis Gibbs kernels instead of the dense
``d² x d²`` log-kernel that :func:`repro.metrics.sinkhorn.sinkhorn_plan` builds.  This
bench asserts the two agree to 1e-12 relative with equal iteration counts, then times
both at the figure grid sides d=15 and d=20.

Results are recorded to ``benchmarks/results/sinkhorn_throughput.txt``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.domain import GridDistribution, GridSpec
from repro.metrics.sinkhorn import _grid_sinkhorn, sinkhorn_plan, sinkhorn_wasserstein
from repro.utils.histogram import pairwise_cell_distances

GRID_SIDES = (15, 20)
PAIRS = 3
REG = 0.01


def _best_of(callable_, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _pairs(d: int) -> list[tuple[GridDistribution, GridDistribution]]:
    """Truth-like and estimate-like grids, with zero-mass cells on the truth side."""
    rng = np.random.default_rng(d)
    grid = GridSpec.unit(d)
    pairs = []
    for _ in range(PAIRS):
        truth = rng.dirichlet(np.full(d * d, 0.3))
        truth[truth < np.quantile(truth, 0.2)] = 0.0
        estimate = rng.dirichlet(np.ones(d * d))
        pairs.append(
            (
                GridDistribution(grid, (truth / truth.sum()).reshape(d, d)),
                GridDistribution(grid, estimate.reshape(d, d)),
            )
        )
    return pairs


def _dense_sinkhorn(dist_a: GridDistribution, dist_b: GridDistribution):
    cost = pairwise_cell_distances(dist_a.grid.d, dist_a.grid.domain.bounds) ** 2
    _, result = sinkhorn_plan(dist_a.flat(), dist_b.flat(), cost, reg=REG * cost.max())
    return result


def test_sinkhorn_speedup(record_result):
    """Separable W2 matches the dense solver, then beats it at the figure grid sides."""
    lines = [f"Sinkhorn W2, reg={REG}, {PAIRS} grid pairs per side (best of 3)"]
    speedups = {}
    for d in GRID_SIDES:
        pairs = _pairs(d)
        for dist_a, dist_b in pairs:
            oracle = _dense_sinkhorn(dist_a, dist_b)
            separable = _grid_sinkhorn(dist_a, dist_b, p=2.0, reg=REG, max_iterations=2000)
            assert separable.iterations == oracle.iterations
            w2 = sinkhorn_wasserstein(dist_a, dist_b, reg=REG)
            assert abs(w2 - np.sqrt(oracle.cost)) <= 1e-12 * np.sqrt(oracle.cost)

        t_dense = _best_of(lambda: [_dense_sinkhorn(a, b) for a, b in pairs])
        t_separable = _best_of(lambda: [sinkhorn_wasserstein(a, b, reg=REG) for a, b in pairs])
        speedups[d] = t_dense / t_separable
        lines.append(
            f"d={d:2d}  dense log-kernel: {t_dense / PAIRS * 1e3:8.2f} ms/call   "
            f"separable: {t_separable / PAIRS * 1e3:7.2f} ms/call  [{speedups[d]:.1f}x]"
        )

    sinkhorn_speedup = speedups[15]
    record_result(
        "sinkhorn_throughput",
        "\n".join(lines),
        metrics={
            "sinkhorn_speedup": sinkhorn_speedup,
            "sinkhorn_speedup_d20": speedups[20],
        },
    )
    # The separable path does O(d³) work per half-step against the dense O(d⁴), and
    # the gap widens with d.
    assert sinkhorn_speedup >= 2.0, f"separable Sinkhorn only {sinkhorn_speedup:.1f}x faster"
    assert speedups[20] >= sinkhorn_speedup
