"""Ito integration: left-endpoint sums, rejected integrands, terminal views."""

import numpy as np
import pytest

from qbsde import ito_integral


def _const(ens, grid, value):
    return np.full((ens.n_paths, grid.n_intervals), value)


def test_unit_integrand_reproduces_path(ens_small, grid):
    pf = ito_integral(ens_small, _const(ens_small, grid, 1.0))
    assert np.allclose(pf.int_dw, ens_small.wiener, rtol=0, atol=1e-14)
    assert np.allclose(pf.quad_var, grid.nodes[None, :], rtol=1e-12, atol=1e-14)


def test_integrand_shape_rejected(ens_small, grid):
    # Only the (n_paths, n_intervals) array is an integrand.
    for bad in (np.ones(3), np.ones(grid.n_intervals)):
        with pytest.raises(ValueError, match="shape"):
            ito_integral(ens_small, bad)
    with pytest.raises((TypeError, ValueError)):
        ito_integral(ens_small, lambda t, w: np.ones_like(w))


def test_linear_in_integrand(ens_small, grid):
    pf1 = ito_integral(ens_small, _const(ens_small, grid, 2.0))
    pf2 = ito_integral(ens_small, _const(ens_small, grid, 1.0))
    assert np.allclose(pf1.int_dw, 2.0 * pf2.int_dw, rtol=1e-12, atol=1e-14)
    assert np.allclose(pf1.quad_var, 4.0 * pf2.quad_var, rtol=1e-12, atol=1e-14)


def test_non_finite_integrand_rejected(ens_small, grid):
    for value in (np.nan, np.inf, -np.inf):
        theta = _const(ens_small, grid, 1.0)
        theta[3, 10] = value
        with pytest.raises(ValueError, match="finite"):
            ito_integral(ens_small, theta)


def test_terminal_views(ens_small, grid):
    pf = ito_integral(ens_small, _const(ens_small, grid, 1.0))
    assert np.array_equal(pf.terminal_int_dw, pf.int_dw[:, -1])
    assert np.array_equal(pf.terminal_quad_var, pf.quad_var[:, -1])
