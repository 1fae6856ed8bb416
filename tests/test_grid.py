"""Time-grid construction: uniform half, geometric clustering, node lookup."""

import math

import numpy as np
import pytest

from qbsde import build_grid, default_gap


def test_nodes_strictly_increasing_and_bounded(grid):
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(grid.T - grid.gap, rel=1e-15)


def test_default_gap_is_2_pow_neg20():
    assert default_gap(1.0) == pytest.approx(2.0**-20, rel=1e-15)
    assert default_gap(3.0) == pytest.approx(3.0 * 2.0**-20, rel=1e-15)


def test_uniform_half_spacing(grid):
    half = grid.half_index
    uniform_dt = np.diff(grid.nodes[: half + 1])
    assert np.allclose(uniform_dt, grid.T / 64.0, rtol=1e-12)
    assert grid.nodes[half] == pytest.approx(grid.T / 2.0, rel=1e-15)


def test_geometric_clustering_ratio(grid):
    # Distances from T shrink by the ratio after the midpoint (the last
    # step may be shorter where the gap cuts the ladder).
    dist = grid.T - grid.nodes[grid.half_index:]
    ratios = dist[1:-1] / dist[:-2]
    assert np.allclose(ratios, grid.ratio, rtol=1e-12)


def test_max_step_is_quarter_horizon(grid):
    # First post-midpoint node sits at T - (T/2) * ratio, so the widest
    # interval is T/4 at the default ratio regardless of n_coarse.
    assert float(np.max(grid.dt)) == pytest.approx(grid.T / 4.0, rel=1e-12)


def test_clock_depth(grid):
    assert grid.clock_depth == pytest.approx(math.log(2.0**19), rel=1e-12)


def test_horizon_scaling():
    g = build_grid(2.0, 32)
    assert g.nodes[-1] == pytest.approx(2.0 - default_gap(2.0), rel=1e-15)
    assert g.half_index == 16
    assert float(np.max(g.dt)) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"T": 0.0, "n_coarse": 8},
        {"T": -1.0, "n_coarse": 8},
        {"T": math.inf, "n_coarse": 8},
        {"T": 1.0, "n_coarse": 1},
        {"T": 1.0, "n_coarse": 8, "ratio": 0.0},
        {"T": 1.0, "n_coarse": 8, "ratio": 1.0},
        {"T": math.nan, "n_coarse": 8},
        {"T": 1.0, "n_coarse": 8.0},
    ],
)
def test_build_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        build_grid(**kwargs)


def test_nodes_are_read_only(grid):
    with pytest.raises(ValueError):
        grid.nodes[0] = 1.0
