"""Opportunity-process estimators, representation, continuum and checks."""

import math
import warnings

import numpy as np
import pytest

from qbsde import (
    OpportunityEstimate,
    bsde_drift,
    constant_closed_form_triple,
    continuum,
    core,
    default_eps0,
    driver_residual,
    lambda_at_nodes,
    martingale_check,
    mpr_constant,
    mpr_nosol,
    mpr_reverting,
    mpr_sigma_gamma,
    mpr_zero,
    mult_rep,
    psi_conditional_profile,
    psi_path,
    psi_unconditional,
)

Q = -1.0
LEVEL = 0.5
#: Closed form Psi_0 = -(q/2) level^2 T at (q, level, T) = (-1, 0.5, 1).
PSI0_CONSTANT = 0.125


# ---------------------------------------------------------------------------
# Driver algebra
# ---------------------------------------------------------------------------


def test_bsde_drift_formula():
    z, lam = 0.7, -1.3
    assert bsde_drift(Q, z, lam) == pytest.approx(
        0.5 * Q * (z + lam) ** 2 - 0.5 * z * z, rel=1e-15
    )
    assert bsde_drift(0.0, z, lam) == pytest.approx(-0.5 * z * z, rel=1e-15)
    out = bsde_drift(Q, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert out.shape == (2,)


def test_default_eps0_positive():
    for q in (-8.0, -1.0, -0.1, 0.5):
        assert default_eps0(q) > 0.0


def test_opportunity_estimate_divergence_sentinel():
    with pytest.raises(ValueError):
        OpportunityEstimate(t=0.0, state=None, estimate=1.0, se=0.1,
                            diverged=True, n_inner=1, n_outer=1)


# ---------------------------------------------------------------------------
# Unconditional and conditional estimates
# ---------------------------------------------------------------------------


def test_psi_unconditional_zero_kind_exact(ens_small):
    est = psi_unconditional(mpr_zero(), Q, ens_small)
    assert est.estimate == 0.0 and est.se == 0.0 and not est.diverged


def test_psi_unconditional_q_zero_exact(ens_small):
    est = psi_unconditional(mpr_constant(LEVEL), 0.0, ens_small)
    assert est.estimate == 0.0 and est.se == 0.0


def test_psi_unconditional_constant_matches_closed_form(ens_mid):
    est = psi_unconditional(mpr_constant(LEVEL), Q, ens_mid)
    assert not est.diverged
    assert abs(est.estimate - PSI0_CONSTANT) <= max(3.0 * est.se, 0.01 * PSI0_CONSTANT)


def test_psi_unconditional_rejects_q_above_one(ens_small):
    for q in (1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="exposure power"):
            psi_unconditional(mpr_constant(LEVEL), q, ens_small)


def test_psi_unconditional_nosol_diverges(ens_mid):
    est = psi_unconditional(mpr_nosol(Q), Q, ens_mid)
    assert est.diverged and math.isinf(est.estimate)
    assert est.evidence is not None and est.evidence.diverged


def test_psi_unconditional_scaled_down_nosol_finite(ens_mid):
    est = psi_unconditional(mpr_nosol(Q).with_scale(0.5), Q, ens_mid)
    assert not est.diverged and math.isfinite(est.estimate)


def test_psi_conditional_rejects_kinds_without_midpoint_factorization():
    with pytest.raises(ValueError, match="midpoint factorization"):
        psi_conditional_profile(mpr_constant(LEVEL), Q, [0.0], n_inner=500,
                                seed=7)[0]


def test_psi_conditional_profile_rejects_bad_input():
    from qbsde import mpr_alpha_arccos, mpr_tilde

    spec = mpr_sigma_gamma(Q)
    for q, states, n_inner in ((math.nan, [0.0], 500), (0.5, [math.nan], 500),
                               (0.5, [0.0, math.inf], 500), (0.5, [0.0], 1)):
        with pytest.raises(ValueError):
            psi_conditional_profile(spec, q, states, n_inner=n_inner, seed=7)
    # An empty or non-1-d state grid fails before any engine runs.
    for spec in (mpr_sigma_gamma(Q), mpr_alpha_arccos(Q), mpr_tilde(0.5)):
        for states in ([], np.zeros((0, 2)), 0.0, [[0.0, 0.5]]):
            with pytest.raises(ValueError, match="non-empty 1-d"):
                psi_conditional_profile(spec, Q, states, n_inner=500, seed=7)


def test_psi_conditional_profile_alpha_bounds():
    from qbsde import mpr_alpha_arccos

    w_grid = np.array([-1.0, 0.0, 1.0]) * math.sqrt(0.5)
    ests = psi_conditional_profile(mpr_alpha_arccos(Q), Q, w_grid,
                                   n_inner=4000, seed=7)
    assert len(ests) == 3
    for e, w in zip(ests, w_grid):
        assert e.t == 0.5 and e.state == w
        assert e.lower_bound is not None  # analytic bound attaches at c=1
        assert e.estimate > e.lower_bound
    # Exposure grows as the midpoint state drops (alpha increases).
    assert ests[0].estimate > ests[-1].estimate


def test_arccos_bound_only_at_its_own_q():
    from qbsde import mpr_alpha_arccos

    # At q = 0 Psi is exactly 0; the cosine-law bound (0.347 at w = 0) holds
    # only at the construction's own q.
    est = psi_conditional_profile(mpr_alpha_arccos(Q), 0.0, [0.0], n_inner=500,
                                  seed=7)[0]
    assert est.lower_bound is None
    assert est.estimate == pytest.approx(0.0, abs=1e-12)


def test_psi_conditional_profile_sigma_has_no_analytic_bound():
    ests = psi_conditional_profile(mpr_sigma_gamma(Q), Q, np.array([0.0]),
                                   n_inner=2000, seed=7)
    assert ests[0].lower_bound is None


# ---------------------------------------------------------------------------
# Whole-path solutions
# ---------------------------------------------------------------------------


def test_constant_closed_form_triple_exact(ens_small, grid):
    spec = mpr_constant(LEVEL)
    triple = constant_closed_form_triple(spec, Q, ens_small)
    assert triple.psi[0, 0] == pytest.approx(PSI0_CONSTANT, rel=1e-15)
    curve = -0.5 * Q * LEVEL**2 * (1.0 - grid.nodes)
    assert np.allclose(triple.psi, curve[None, :], rtol=1e-12)
    # Z = 0 and the curve solves the ODE part exactly: zero residual.
    resid = driver_residual(triple, spec, Q)
    assert resid.median == pytest.approx(0.0, abs=1e-12)
    assert resid.p95 == pytest.approx(0.0, abs=1e-12)


def test_constant_closed_form_honors_scale(ens_small):
    spec = mpr_constant(LEVEL).with_scale(2.0)
    triple = constant_closed_form_triple(spec, Q, ens_small)
    assert triple.psi[0, 0] == pytest.approx(-0.5 * Q * 1.0, rel=1e-12)


def test_psi_path_constant_recovers_curve(ens_mid, grid):
    spec = mpr_constant(LEVEL)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degree fallback noise
        triple = psi_path(spec, Q, ens_mid)
    psi0 = float(triple.psi[:, 0].mean())
    assert abs(psi0 - PSI0_CONSTANT) <= 0.02 * PSI0_CONSTANT
    assert np.all(triple.psi[:, -1] == 0.0)
    curve = -0.5 * Q * LEVEL**2 * (1.0 - grid.nodes)
    fitted = triple.psi.mean(axis=0)
    assert float(np.max(np.abs(fitted - curve))) < 0.02


def test_psi_path_zero_kind_exact(ens_small):
    triple = psi_path(mpr_zero(), Q, ens_small)
    assert np.all(triple.psi == 0.0) and np.all(triple.z == 0.0)


def test_martingale_check_constant_triple(ens_mid):
    spec = mpr_constant(LEVEL)
    triple = constant_closed_form_triple(spec, Q, ens_mid)
    mean, se, stat = martingale_check(triple, spec, Q)
    assert stat.shape == (ens_mid.n_paths,)
    assert abs(mean - 1.0) <= 3.0 * se


def test_lambda_at_nodes_shapes_and_rejection(ens_small, grid):
    lam = lambda_at_nodes(mpr_reverting(), ens_small)
    assert lam.shape == (ens_small.n_paths, grid.n_nodes)
    assert np.allclose(np.abs(lam), np.sqrt(np.abs(ens_small.wiener)), rtol=1e-12)
    with pytest.raises(ValueError):
        lambda_at_nodes(mpr_nosol(Q), ens_small)


# ---------------------------------------------------------------------------
# Multiplicative representation
# ---------------------------------------------------------------------------


def test_mult_rep_constant_functional(ens_mid):
    res = mult_rep(1.0, 4.0, ens_mid)
    assert res.level_gap == pytest.approx(math.log(4.0), rel=1e-12)
    # Boundary-snapped reconstruction is exact on observed crossings.
    assert res.reconstruction_median == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < res.censored_fraction < 0.15
    obs = ~res.censored
    # rho(t) = t/(T(T-t)) maps (0, T) onto (0, inf): crossings stay inside.
    assert np.all(res.tau_c[obs] > 0.0) and np.all(res.tau_c[obs] < 1.0)
    assert np.all(np.isinf(res.tau_c[res.censored]))
    assert res.overshoot_median > 0.0
    mean, se = res.clock_exp_moment()
    # E[exp(rho(tau_c)/8)] = c/2 * ... = 2.0 for xi = 1, c = 4.
    assert abs(mean - 2.0) <= max(3.0 * se, 0.06)


def test_mult_rep_refinement_shrinks_overshoot(ens_small):
    coarse = mult_rep(1.0, 4.0, ens_small, dv=1e-3)
    fine = mult_rep(1.0, 4.0, ens_small, dv=2.5e-4)
    # Halving the position gap (dv/4) shrinks the raw-overshoot median
    # by at least 1.5x.
    assert coarse.overshoot_median / fine.overshoot_median >= 1.5


def _median_boot_se(x: np.ndarray, rng, n_boot: int = 200) -> float:
    meds = [np.median(x[rng.integers(0, x.size, x.size)]) for _ in range(n_boot)]
    return float(np.std(meds, ddof=1))


def test_mult_rep_skips_keep_the_euler_law(ens_mid, monkeypatch):
    # Skipping far from the level changes the draws, not the law: the
    # overshoot (set by the single steps near the level), the censored share
    # and the crossing-clock moment match the plain Euler chain's.
    skip = mult_rep(1.0, 4.0, ens_mid)
    monkeypatch.setattr(core, "SKIP_Z", math.inf)
    euler = mult_rep(1.0, 4.0, ens_mid)
    rng = np.random.default_rng(7)
    over = [r.overshoot_error[~r.censored] for r in (skip, euler)]
    se = math.hypot(*(_median_boot_se(x, rng) for x in over))
    assert abs(skip.overshoot_median - euler.overshoot_median) <= 2.0 * se
    p = 0.5 * (skip.censored_fraction + euler.censored_fraction)
    se = math.sqrt(2.0 * p * (1.0 - p) / ens_mid.n_paths)
    assert abs(skip.censored_fraction - euler.censored_fraction) <= 3.0 * se
    mean, se = skip.clock_exp_moment()
    assert abs(mean - 2.0) <= 4.0 * se


def test_mult_rep_rejects_unattainable_level(ens_small):
    with pytest.raises(ValueError):
        mult_rep(1.0, 0.5, ens_small)  # c below E[xi]
    for xi, c in ((1.0, math.nan), (math.nan, 2.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            mult_rep(xi, c, ens_small)


def test_mult_rep_rejects_nonconstant_xi(ens_small):
    with pytest.raises(ValueError):
        mult_rep(np.linspace(0.5, 1.5, ens_small.n_paths), 4.0, ens_small)


# ---------------------------------------------------------------------------
# The continuum of solutions
# ---------------------------------------------------------------------------


def test_continuum_zero_kind_b0_is_trivial(ens_small):
    triple = continuum(mpr_zero(), Q, 0.0, ens_small)
    assert np.all(triple.psi == 0.0)
    assert triple.extras["psi0"] == 0.0
    mean, se, _ = martingale_check(triple, mpr_zero(), Q)
    assert mean == pytest.approx(1.0, abs=1e-12)


def test_continuum_zero_kind_offset(ens_small):
    b = 0.5
    triple = continuum(mpr_zero(), Q, b, ens_small)
    # xi = 1 deterministically: psi0 = log(1 + b)/(1 - q).
    assert triple.extras["psi0"] == pytest.approx(math.log(1.5) / 2.0, rel=1e-12)
    mean, _, _ = martingale_check(triple, mpr_zero(), Q)
    assert mean == pytest.approx(1.0 / 1.5, rel=1e-12)  # xi/c exactly
    resid = driver_residual(triple, mpr_zero(), Q)
    assert resid.median <= 0.3 * math.sqrt(0.25)


def test_continuum_constant_kind_family(ens_mid):
    spec = mpr_constant(LEVEL)
    psi0s = []
    for b in (0.0, 0.5, 1.0):
        triple = continuum(spec, Q, b, ens_mid)
        xi = triple.extras["xi"]
        assert triple.extras["psi0"] == pytest.approx(
            math.log(xi + b) / (1.0 - Q), rel=1e-12
        )
        psi0s.append(triple.extras["psi0"])
        mean, se, _ = martingale_check(triple, spec, Q)
        if b == 0.0:
            assert abs(mean - 1.0) <= 3.0 * se
        else:
            assert mean + 3.0 * se < 1.0
    assert psi0s[0] == pytest.approx(PSI0_CONSTANT, rel=1e-12)
    assert psi0s == sorted(psi0s)


@pytest.mark.parametrize("b", [0.5, 1.0])
def test_continuum_martingale_mean_is_xi_over_c(ens_mid, b):
    # The statistic is e^{-d} = xi/c times a unit-mean Girsanov factor, so
    # a wrong variance of the reconstructed increments moves its mean.
    spec = mpr_constant(LEVEL)
    triple = continuum(spec, Q, b, ens_mid)
    xi = triple.extras["xi"]
    mean, se, _ = martingale_check(triple, spec, Q)
    assert abs(mean - xi / (xi + b)) <= 4.0 * se


def test_continuum_rejects_clock_kinds(ens_small):
    with pytest.raises(ValueError):
        continuum(mpr_nosol(Q), Q, 0.5, ens_small)


def test_continuum_rejects_negative_offset(ens_small):
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="b_offset"):
            continuum(mpr_zero(), Q, bad, ens_small)
