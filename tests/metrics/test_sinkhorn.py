"""Tests for repro.metrics.sinkhorn — entropic optimal transport."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.metrics import sinkhorn
from repro.metrics.sinkhorn import (
    _grid_sinkhorn,
    sinkhorn_distance,
    sinkhorn_plan,
    sinkhorn_wasserstein,
)
from repro.metrics.wasserstein import wasserstein2_grid, wasserstein_exact
from repro.utils.histogram import pairwise_cell_distances


@pytest.fixture
def simple_cost() -> np.ndarray:
    positions = np.arange(4, dtype=float)
    return np.abs(positions[:, None] - positions[None, :])


class TestSinkhornPlan:
    def test_plan_marginals(self, simple_cost):
        a = np.array([0.4, 0.3, 0.2, 0.1])
        b = np.array([0.1, 0.2, 0.3, 0.4])
        plan, result = sinkhorn_plan(a, b, simple_cost, reg=0.05)
        np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-5)
        np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-5)
        assert result.cost >= 0

    def test_identical_distributions_near_zero_cost(self, simple_cost):
        a = np.array([0.25, 0.25, 0.25, 0.25])
        cost = sinkhorn_distance(a, a, simple_cost, reg=0.01)
        assert cost == pytest.approx(0.0, abs=0.02)

    def test_zero_mass_bins_handled(self, simple_cost):
        a = np.array([0.5, 0.0, 0.5, 0.0])
        b = np.array([0.0, 0.5, 0.0, 0.5])
        plan, _ = sinkhorn_plan(a, b, simple_cost, reg=0.05)
        np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-3)
        np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-3)
        # Rows with zero mass stay exactly empty.
        assert plan[1].sum() == 0.0 and plan[3].sum() == 0.0

    def test_cost_approaches_exact_as_reg_shrinks(self, simple_cost):
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        exact = wasserstein_exact(a, b, simple_cost)
        loose = sinkhorn_distance(a, b, simple_cost, reg=0.5)
        tight = sinkhorn_distance(a, b, simple_cost, reg=0.01)
        assert abs(tight - exact) <= abs(loose - exact) + 1e-9
        assert tight == pytest.approx(exact, abs=0.05)

    def test_wrong_cost_shape_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn_plan(np.array([1.0]), np.array([0.5, 0.5]), np.zeros((2, 2)))

    def test_invalid_reg_rejected(self, simple_cost):
        a = np.array([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError):
            sinkhorn_plan(a, a, simple_cost, reg=0.0)


class TestSinkhornWasserstein:
    def test_matches_exact_on_small_grid(self, rng):
        grid = GridSpec.unit(4)
        a = GridDistribution(grid, rng.dirichlet(np.ones(16) * 3).reshape(4, 4))
        b = GridDistribution(grid, rng.dirichlet(np.ones(16) * 3).reshape(4, 4))
        exact = wasserstein2_grid(a, b)
        approx = sinkhorn_wasserstein(a, b, reg=0.005)
        assert approx == pytest.approx(exact, rel=0.2, abs=0.02)

    def test_symmetric(self, clustered_distribution, uniform_distribution):
        ab = sinkhorn_wasserstein(clustered_distribution, uniform_distribution)
        ba = sinkhorn_wasserstein(uniform_distribution, clustered_distribution)
        assert ab == pytest.approx(ba, rel=1e-3)

    def test_corner_to_corner_distance(self, unit_grid5):
        a = np.zeros((5, 5))
        a[0, 0] = 1.0
        b = np.zeros((5, 5))
        b[4, 4] = 1.0
        value = sinkhorn_wasserstein(
            GridDistribution(unit_grid5, a), GridDistribution(unit_grid5, b), reg=0.01
        )
        assert value == pytest.approx(np.hypot(0.8, 0.8), rel=0.05)

    def test_incompatible_grids_rejected(self, clustered_distribution):
        other = GridDistribution.uniform(GridSpec.unit(4))
        with pytest.raises(ValueError):
            sinkhorn_wasserstein(clustered_distribution, other)

    def test_monotone_in_separation(self, unit_grid5):
        """Moving the target mass farther increases the Sinkhorn distance."""
        source = np.zeros((5, 5))
        source[0, 0] = 1.0
        near = np.zeros((5, 5))
        near[0, 1] = 1.0
        far = np.zeros((5, 5))
        far[0, 4] = 1.0
        src = GridDistribution(unit_grid5, source)
        assert sinkhorn_wasserstein(src, GridDistribution(unit_grid5, near)) < sinkhorn_wasserstein(
            src, GridDistribution(unit_grid5, far)
        )


def _dense_oracle(dist_a, dist_b, *, p=2.0, reg=0.01):
    """The dense solver on the full ``d² x d²`` cost, as ``sinkhorn_wasserstein`` scales it."""
    cost = pairwise_cell_distances(dist_a.grid.d, dist_a.grid.domain.bounds) ** p
    scale = float(cost.max()) if cost.max() > 0 else 1.0
    _, result = sinkhorn_plan(dist_a.flat(), dist_b.flat(), cost, reg=reg * scale)
    return result


def _sparse_pair(grid, seed):
    """Two grid distributions with zero-mass cells on both sides, an empty row and column."""
    rng = np.random.default_rng(seed)
    d = grid.d
    a = rng.dirichlet(np.ones(d * d)).reshape(d, d)
    b = rng.dirichlet(np.full(d * d, 0.5)).reshape(d, d)
    if d > 1:
        a[rng.random((d, d)) < 0.25] = 0.0
        b[rng.random((d, d)) < 0.25] = 0.0
        a[d // 2, :] = 0.0
        b[:, d - 1] = 0.0
        a[0, 0] = b[0, 0] = 1.0  # keep both sides non-empty
    return GridDistribution(grid, a / a.sum()), GridDistribution(grid, b / b.sum())


class TestSeparableSinkhorn:
    """The per-axis-kernel W2 solver against the dense ``sinkhorn_plan`` oracle."""

    @pytest.mark.parametrize("d", [1, 2, 5, 13, 15, 20])
    @pytest.mark.parametrize(
        "domain",
        [SpatialDomain(0.0, 1.0, 0.0, 1.0), SpatialDomain(-3.0, 5.0, 10.0, 12.0)],
        ids=["unit", "rectangle"],
    )
    def test_matches_dense_solver(self, d, domain):
        grid = GridSpec(domain, d)
        dist_a, dist_b = _sparse_pair(grid, seed=d)
        oracle = _dense_oracle(dist_a, dist_b)
        separable = _grid_sinkhorn(dist_a, dist_b, p=2.0, reg=0.01, max_iterations=2000)
        assert separable.iterations == oracle.iterations
        assert separable.converged == oracle.converged
        expected = np.sqrt(oracle.cost)
        assert abs(sinkhorn_wasserstein(dist_a, dist_b) - expected) <= 1e-12 * max(expected, 1e-300)

    def test_iteration_cap_matches_dense_solver(self):
        dist_a, dist_b = _sparse_pair(GridSpec.unit(6), seed=3)
        cost = pairwise_cell_distances(6) ** 2
        _, oracle = sinkhorn_plan(
            dist_a.flat(), dist_b.flat(), cost, reg=0.01 * cost.max(), max_iterations=25
        )
        separable = _grid_sinkhorn(dist_a, dist_b, p=2.0, reg=0.01, max_iterations=25)
        assert (separable.iterations, separable.converged) == (25, False)
        assert separable.iterations == oracle.iterations
        assert separable.marginal_error == pytest.approx(oracle.marginal_error, rel=1e-9)
        assert separable.cost == pytest.approx(oracle.cost, rel=1e-12)

    def test_separable_path_never_builds_the_dense_cost(self, monkeypatch):
        def dense_solver_called(*args, **kwargs):
            raise AssertionError("p=2 W2 above the reg floor must not use sinkhorn_plan")

        monkeypatch.setattr(sinkhorn, "sinkhorn_plan", dense_solver_called)
        monkeypatch.setattr(sinkhorn, "pairwise_cell_distances", dense_solver_called)
        dist_a, dist_b = _sparse_pair(GridSpec.unit(8), seed=4)
        assert sinkhorn_wasserstein(dist_a, dist_b, reg=sinkhorn.SEPARABLE_REG_FLOOR) > 0

    @pytest.mark.parametrize(
        ("p", "reg"),
        [(1.0, 0.01), (2.0, 0.9 * sinkhorn.SEPARABLE_REG_FLOOR)],
        ids=["p1", "below-reg-floor"],
    )
    def test_other_settings_return_the_dense_result(self, p, reg):
        dist_a, dist_b = _sparse_pair(GridSpec.unit(5), seed=5)
        oracle = _dense_oracle(dist_a, dist_b, p=p, reg=reg)
        assert sinkhorn_wasserstein(dist_a, dist_b, p=p, reg=reg) == oracle.cost ** (1.0 / p)
