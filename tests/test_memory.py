"""Peak memory of the paths x nodes builders, and the bits they keep.

A full ``(n_paths, n_nodes)`` array is kept only where it is a function's
output or the ensemble's own state; everything else is built in place or
one node at a time.  The first half bounds the ``tracemalloc`` peak of each
builder by its outputs plus a few columns (and a fixed allowance), below
one more full-width array.  The second half keeps the whole-matrix formulas
these builders used before and checks that every output byte is the same.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from qbsde import (
    build_grid,
    continuum,
    driver_residual,
    evaluate_mpr,
    ito_integral,
    lambda_at_nodes,
    mpr_alpha_arccos,
    mpr_constant,
    mpr_reverting,
    mpr_tilde,
    mpr_zero,
    philox_stream,
    psi_path,
    sample_paths,
    simulate_line_hit,
)
from qbsde import solver
from qbsde.catalog import _exposure, clock_coefficients

N_PATHS = 20000
#: Fine enough that one full-width array (148 columns) dwarfs the slack.
GRID = build_grid(1.0, 256)
COL = 8 * N_PATHS  # bytes of one float column
FULL = GRID.n_nodes * COL
#: Per-path temporaries a builder may hold: a few columns.
SLACK_COLS = 16
#: Fixed allocations: generator state, small per-node tables.
FIXED = 1 << 20
#: The line-hit engine tabulates its drift and weights over 60000 steps.
LINE_TABLES = 8 << 20
SEEDS = (20240817, 555)


def traced_peak(fn):
    """``(fn(), peak bytes allocated above the start while it ran)``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def assert_within(peak: int, outputs: int, fixed: int = FIXED) -> None:
    slack = SLACK_COLS * COL + fixed
    assert slack < FULL  # the bound admits no new full-width array
    assert peak <= outputs + slack, (
        f"peak {peak / COL:.1f} columns, outputs {outputs / COL:.1f}")


@pytest.fixture(scope="module")
def ens():
    # A warm-up call keeps first-use allocations out of the measurements.
    sample_paths(GRID, 10, seed=1)
    return sample_paths(GRID, N_PATHS, seed=SEEDS[0])


def test_sample_paths_scales_its_normals_in_place(ens):
    out, peak = traced_peak(lambda: sample_paths(GRID, N_PATHS, seed=7))
    assert_within(peak, out.increments.nbytes)


def test_w_terminal_needs_no_wiener_matrix(ens):
    fresh = sample_paths(GRID, N_PATHS, seed=8)
    w, peak = traced_peak(lambda: fresh.w_terminal)
    assert "wiener" not in vars(fresh)
    assert_within(peak, w.nbytes)
    assert w.tobytes() == fresh.wiener[:, -1].tobytes()


def test_ito_integral_sums_inside_its_outputs(ens):
    theta = np.full((N_PATHS, GRID.n_intervals), 0.5)
    pf, peak = traced_peak(lambda: ito_integral(ens, theta))
    assert_within(peak, pf.int_dw.nbytes + pf.quad_var.nbytes)


def test_continuum_builds_its_outputs_in_place(ens):
    triple, peak = traced_peak(lambda: continuum(mpr_constant(0.5), -1.0, 0.5, ens))
    extras = sum(v.nbytes for v in triple.extras.values() if isinstance(v, np.ndarray))
    outputs = triple.psi.nbytes + triple.z.nbytes + triple.d_w.nbytes + extras
    assert_within(peak, outputs, fixed=LINE_TABLES)


def test_driver_residual_telescopes_one_node_at_a_time(ens):
    triple = continuum(mpr_constant(0.5), -1.0, 0.5, ens)
    report, peak = traced_peak(lambda: driver_residual(triple))
    assert_within(peak, report.per_path.nbytes)


def test_psi_path_forms_each_target_at_its_node(ens):
    ens.wiener  # the ensemble's own state, kept on it
    spec = mpr_constant(0.5)
    triple, peak = traced_peak(lambda: psi_path(spec, -1.0, ens))
    tracks = 2 * triple.psi.nbytes  # evaluate_mpr's node tracks, read per node
    assert_within(peak, triple.psi.nbytes + triple.z.nbytes + tracks)


def test_level_premium_is_a_read_only_broadcast(ens):
    lam = lambda_at_nodes(mpr_constant(0.5), ens)
    assert lam.shape == (N_PATHS, GRID.n_nodes) and lam.strides == (0, 0)
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0, 0] = 1.0


# ---------------------------------------------------------------------------
# The same bits as the whole-matrix formulas
# ---------------------------------------------------------------------------


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.fixture(scope="module", params=SEEDS)
def small(request):
    return sample_paths(build_grid(1.0, 64), 3000, seed=request.param)


def reference_ito(ensemble, theta):
    grid = ensemble.grid
    int_dw = np.zeros((ensemble.n_paths, grid.n_nodes))
    quad_var = np.zeros_like(int_dw)
    np.cumsum(theta * ensemble.increments, axis=1, out=int_dw[:, 1:])
    np.cumsum(theta * theta * grid.dt, axis=1, out=quad_var[:, 1:])
    return int_dw, quad_var


def test_ito_integral_keeps_the_whole_matrix_bits(small):
    grid = small.grid
    rng = np.random.default_rng(small.seed)
    theta = rng.standard_normal((small.n_paths, grid.n_intervals))
    theta[:, 3] = -0.0  # signed zeros keep their sign through the sums
    pf = ito_integral(small, theta)
    int_dw, quad_var = reference_ito(small, theta)
    assert_same_bytes(pf.int_dw, int_dw)
    assert_same_bytes(pf.quad_var, quad_var)


def test_sample_paths_and_views_keep_their_bits(small):
    grid = small.grid
    z = philox_stream(small.seed, "increments").standard_normal(
        (small.n_paths, grid.n_intervals))
    assert_same_bytes(small.increments, z * np.sqrt(grid.dt))
    fresh = sample_paths(grid, small.n_paths, seed=small.seed)
    w_half, w_terminal = fresh.w_half, fresh.w_terminal  # before wiener exists
    assert_same_bytes(w_half, small.wiener[:, grid.half_index])
    assert_same_bytes(w_terminal, small.wiener[:, -1])


def reference_residual(triple):
    lam = np.array(lambda_at_nodes(triple.spec, triple.ensemble))
    dt = triple.ensemble.grid.dt[None, :]
    z = triple.z[:, :-1]
    gaps = (np.diff(triple.psi, axis=1) - z * triple.d_w
            - solver.bsde_drift(triple.q, z, lam[:, :-1]) * dt)
    return np.max(np.abs(np.cumsum(gaps, axis=1)), axis=1)


@pytest.mark.parametrize("make", [
    lambda ens: continuum(mpr_constant(0.5), -1.0, 0.5, ens),
    lambda ens: continuum(mpr_zero(), 0.5, 1.0, ens),
    lambda ens: psi_path(mpr_reverting(), -1.0, ens),
    lambda ens: psi_path(mpr_constant(0.5).with_scale(2.0), 0.5, ens),
])
def test_driver_residual_keeps_the_whole_matrix_bits(small, make):
    triple = make(small)
    assert_same_bytes(driver_residual(triple).per_path, reference_residual(triple))


def reference_continuum(spec, q, b_offset, ensemble, v_max):
    """The whole-matrix construction of ``psi``, ``z`` and ``d_w``."""
    grid = ensemble.grid
    T, n, nodes = grid.T, ensemble.n_paths, grid.nodes
    level = spec.law.level(spec)
    xi = math.exp(0.5 * q * (q - 1.0) * level**2 * T)
    c = b_offset + xi
    d = math.log(c / xi)
    v_nodes = solver._rho_clock(nodes, T)
    accrual = 0.5 * q * (q - 1.0) * level**2
    if b_offset == 0.0:
        psi_curve = (math.log(c) - accrual * nodes) / (1.0 - q)
        psi = np.broadcast_to(psi_curve, (n, grid.n_nodes)).copy()
        return psi, np.zeros((n, grid.n_nodes)), ensemble.increments
    in_range = v_nodes < v_max
    hits = simulate_line_hit(
        n, v_max=v_max, seed=ensemble.seed, stream=("continuum", b_offset, level, q),
        level=-d, drift_cum=lambda v: q * level * math.log1p(T * v) - 0.5 * v,
        checkpoints=v_nodes[in_range], weight_fn=lambda v: T / (1.0 + T * v))
    v_star = hits.u_exit
    tau_star = solver._rho_inverse(np.where(hits.censored, v_max, v_star), T)
    pos_nodes = np.full((n, grid.n_nodes), -d)
    pos_nodes[:, in_range] = hits.ckpt_pos.T
    censor_mask = hits.censored[:, None] & ~(v_nodes[None, :] < v_max)
    pos_nodes[censor_mask] = np.broadcast_to(hits.x_exit[:, None], pos_nodes.shape)[censor_mask]
    psi = (math.log(c) + pos_nodes - accrual * nodes[None, :]) / (1.0 - q)
    alive = v_nodes[None, :] < v_star[:, None]
    z = np.where(alive, (1.0 / (T - nodes))[None, :] / (1.0 - q), 0.0)
    d_w = np.zeros((n, grid.n_intervals))
    idx = np.flatnonzero(in_range)
    for j, col in enumerate(idx[:-1]):
        d_w[:, col] = hits.ckpt_wsum[j + 1]
    if idx.size and idx[-1] < grid.n_intervals:
        d_w[:, idx[-1]] = hits.ckpt_wsum[idx.size]
    rng = philox_stream(ensemble.seed, "continuum-tails", b_offset, level, q)
    t_cross = np.minimum(tau_star, T)
    gauss = rng.standard_normal((n, grid.n_intervals))
    for k in range(grid.n_intervals):
        remaining = np.clip(nodes[k + 1] - np.maximum(t_cross, nodes[k]), 0.0, None)
        d_w[:, k] += np.sqrt(remaining) * gauss[:, k]
    return psi, z, d_w


@pytest.mark.parametrize("v_max", [solver.CONTINUUM_V_MAX, 0.5])
@pytest.mark.parametrize("b_offset", [0.0, 0.5, 1.0])
def test_continuum_keeps_the_whole_matrix_bits(small, monkeypatch, b_offset, v_max):
    # A short clock horizon censors most paths; the tails then span rows of
    # several blocks.
    monkeypatch.setattr(solver, "CONTINUUM_V_MAX", v_max)
    monkeypatch.setattr(solver, "_TAIL_ROWS", 1000, raising=False)
    spec = mpr_constant(0.5)
    triple = continuum(spec, -1.0, b_offset, small)
    if b_offset and v_max == 0.5:
        assert triple.extras["censored"].mean() > 0.1
    for got, want in zip((triple.psi, triple.z, triple.d_w),
                         reference_continuum(spec, -1.0, b_offset, small, v_max)):
        assert_same_bytes(got, want)


def reference_tracks(fn):
    grid = fn.ensemble.grid
    alpha = 1.0 if fn.alpha is None else fn.alpha[:, None]
    coeff, drift = clock_coefficients(fn.spec, alpha)
    node_int_dw = np.zeros((fn.n_paths, grid.n_nodes))
    node_int2 = np.zeros((fn.n_paths, grid.n_nodes))
    u_at = np.minimum(grid.clock_nodes[:, None], fn.u_kill[None, :])
    first_late = grid.half_index + 1
    node_int_dw[:, first_late:], node_int2[:, first_late:] = _exposure(
        coeff, drift, fn.clock.ckpt_pos.T, u_at.T)
    return node_int_dw, node_int2


@pytest.mark.parametrize("spec", [mpr_alpha_arccos(-1.0), mpr_tilde(0.5).with_scale(0.5)])
def test_clock_tracks_keep_the_whole_matrix_bits(small, spec):
    fn = evaluate_mpr(spec, small)
    for got, want in zip((fn.node_int_dw, fn.node_int2), reference_tracks(fn)):
        assert_same_bytes(got, want)


# The clock kind's collinear late-node columns fall back a degree; that is
# criterion 9's known warning, not what this test measures.
@pytest.mark.filterwarnings("ignore:regression condition number")
@pytest.mark.parametrize("spec", [mpr_reverting(), mpr_alpha_arccos(-1.0)])
def test_psi_path_targets_keep_the_whole_matrix_bits(small, monkeypatch, spec):
    q = -1.0
    fits = []
    fit = solver._fit_conditional
    monkeypatch.setattr(solver, "_fit_conditional",
                        lambda cols, target: fits.append(target) or fit(cols, target))
    psi_path(spec, q, small)

    fn = evaluate_mpr(spec, small)
    value = np.exp(-q * (fn.int_lam_dw[:, None] - fn.node_int_dw)
                   - 0.5 * q * (fn.int_lam2[:, None] - fn.node_int2))
    grid = small.grid
    first_late = grid.half_index + 1
    want = []  # the Psi fits, in node order, before the Z fits
    for k in range(grid.n_nodes - 1):
        if spec.law.clock and k >= first_late:
            alive = fn.u_kill > grid.clock_nodes[k - first_late]
            if alive.sum() >= 50:
                want.append(value[alive, k])
        else:
            want.append(value[:, k])
    for got, target in zip(fits, want):
        assert_same_bytes(got, target)
    assert len(fits) > len(want)
