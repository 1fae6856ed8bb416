"""Brownian ensembles: shape, determinism, moments."""

import math

import numpy as np
import pytest

from qbsde import build_grid, sample_paths
from qbsde.core import philox_stream


def test_shapes_and_origin(ens_small, grid):
    assert ens_small.wiener.shape == (2000, grid.n_nodes)
    assert ens_small.increments.shape == (2000, grid.n_intervals)
    assert np.all(ens_small.wiener[:, 0] == 0.0)


def test_sample_paths_rejects_a_bad_path_count(grid):
    for n in (0, -3, 2.5):
        with pytest.raises(ValueError, match="n_paths"):
            sample_paths(grid, n, seed=1)


def test_a_non_integer_seed_is_rejected(grid):
    # A float seed is not truncated to its integer part, and NaN fails by name.
    for seed in (1.5, 1.0, math.nan, "1", None):
        with pytest.raises(ValueError, match="seed"):
            sample_paths(grid, 10, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            philox_stream(seed, "increments")
    # Integer seeds, Python or numpy, keep their bits.
    ref = sample_paths(grid, 10, seed=1)
    for seed in (np.int64(1), np.uint32(1), np.int8(1)):
        ens = sample_paths(grid, 10, seed=seed)
        assert np.array_equal(ens.increments, ref.increments) and ens.seed == 1


def test_increments_consistent_with_paths(ens_small):
    # wiener is the cumulative sum of the increments (equal up to round-off)
    assert np.allclose(
        np.diff(ens_small.wiener, axis=1), ens_small.increments, atol=1e-12
    )


def test_same_seed_reproduces(grid):
    a = sample_paths(grid, 50, seed=123)
    b = sample_paths(grid, 50, seed=123)
    assert np.array_equal(a.wiener, b.wiener)


def test_different_seed_differs(grid):
    a = sample_paths(grid, 50, seed=123)
    b = sample_paths(grid, 50, seed=124)
    assert not np.array_equal(a.wiener, b.wiener)


def test_terminal_moments(ens_mid, grid):
    w_T = ens_mid.wiener[:, -1]
    t_end = float(grid.nodes[-1])
    n = w_T.size
    # W_{T-gap} ~ N(0, T-gap): mean within 4 SE, variance within 4 SE.
    assert abs(w_T.mean()) < 4.0 * np.sqrt(t_end / n)
    var = w_T.var(ddof=1)
    var_se = t_end * np.sqrt(2.0 / (n - 1))
    assert abs(var - t_end) < 4.0 * var_se


def test_increment_scaling(ens_mid, grid):
    # Each increment ~ N(0, dt): pooled standardized variance near 1.
    z = ens_mid.increments / np.sqrt(grid.dt)[None, :]
    assert abs(z.var(ddof=1) - 1.0) < 0.01


def test_w_half_and_terminal_views(ens_small, grid):
    assert np.array_equal(ens_small.w_half, ens_small.wiener[:, grid.half_index])
    assert np.array_equal(ens_small.w_terminal, ens_small.wiener[:, -1])


def test_philox_stream_keyed_by_parts():
    a = philox_stream(1, "x").standard_normal(4)
    b = philox_stream(1, "x").standard_normal(4)
    c = philox_stream(1, "y").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ensembles_on_different_grids_are_independent_objects():
    g1 = build_grid(1.0, 8)
    g2 = build_grid(1.0, 16)
    e1 = sample_paths(g1, 10, seed=5)
    e2 = sample_paths(g2, 10, seed=5)
    assert e1.wiener.shape != e2.wiener.shape
