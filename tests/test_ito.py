"""Ito integration: left-endpoint sums, aborted paths, terminal views."""

import numpy as np
import pytest

from qbsde import ito_integral


def test_unit_integrand_reproduces_path(ens_small, grid):
    pf = ito_integral(ens_small, np.ones(grid.n_intervals))
    assert np.allclose(pf.int_dw, ens_small.wiener, rtol=0, atol=1e-14)
    assert np.allclose(pf.quad_var, grid.nodes[None, :], rtol=1e-12, atol=1e-14)


def test_callable_integrand_matches_array(ens_small, grid):
    pf_arr = ito_integral(ens_small, np.full(grid.n_intervals, 0.7))
    pf_fun = ito_integral(ens_small, lambda t, w: np.full_like(w, 0.7))
    assert np.array_equal(pf_arr.int_dw, pf_fun.int_dw)


def test_integrand_shape_rejected(ens_small):
    with pytest.raises(ValueError):
        ito_integral(ens_small, np.ones(3))


def test_linear_in_integrand(ens_small, grid):
    pf1 = ito_integral(ens_small, np.full(grid.n_intervals, 2.0))
    pf2 = ito_integral(ens_small, np.ones(grid.n_intervals))
    assert np.allclose(pf1.int_dw, 2.0 * pf2.int_dw, rtol=1e-12, atol=1e-14)
    assert np.allclose(pf1.quad_var, 4.0 * pf2.quad_var, rtol=1e-12, atol=1e-14)


def test_nan_integrand_poisons_path(ens_small, grid):
    theta = np.ones((ens_small.n_paths, grid.n_intervals))
    theta[3, 10] = np.nan
    with pytest.warns(RuntimeWarning, match="not finite"):
        pf = ito_integral(ens_small, theta)
    assert pf.nan_flag[3] and pf.nan_flag.sum() == 1
    assert np.isnan(pf.int_dw[3, -1])
    assert np.isfinite(pf.int_dw[3, 10])  # clean before the bad interval
    assert np.all(np.isfinite(pf.int_dw[4]))


def test_terminal_views(ens_small, grid):
    pf = ito_integral(ens_small, np.ones(grid.n_intervals))
    assert np.array_equal(pf.terminal_int_dw, pf.int_dw[:, -1])
    assert np.array_equal(pf.terminal_quad_var, pf.quad_var[:, -1])
