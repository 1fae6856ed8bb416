"""Opportunity-process estimators, representation, continuum and checks."""

import math
import warnings

import numpy as np
import pytest

from qbsde import (
    KINDS,
    TRAITS,
    OpportunityEstimate,
    alpha_from_w_half,
    bsde_drift,
    catalog,
    clock_coefficients,
    constant_closed_form_triple,
    continuum,
    core,
    default_eps0,
    default_gap,
    driver_residual,
    lambda_at_nodes,
    martingale_check,
    mpr_alpha_arccos,
    mpr_constant,
    mpr_nosol,
    mpr_reverting,
    mpr_scaled,
    mpr_sigma_gamma,
    mpr_tilde,
    mpr_zero,
    mult_rep,
    psi_conditional_profile,
    psi_path,
    psi_unconditional,
    scaled_params,
    simulate_two_sided_exit,
)
from qbsde.catalog import _entry_clock, _exposure

Q = -1.0
LEVEL = 0.5
#: Closed form Psi_0 = -(q/2) level^2 T at (q, level, T) = (-1, 0.5, 1).
PSI0_CONSTANT = 0.125
#: One construction of every kind with a midpoint statistic.
_MIDPOINT_SPECS = {
    "alpha_arccos": mpr_alpha_arccos(Q),
    "sigma_gamma": mpr_sigma_gamma(Q),
    "tilde": mpr_tilde(0.5),
    "scaled": mpr_scaled(Q, *scaled_params(Q, k=1.0, mode="below")),
}


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
        OpportunityEstimate(t=0.0, state=None, estimate=1.0, se=0.1, diverged=True)


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
        psi_conditional_profile(mpr_constant(LEVEL), Q, [0.0])[0]


def test_psi_conditional_profile_rejects_bad_input():
    from qbsde import mpr_alpha_arccos, mpr_tilde

    spec = mpr_sigma_gamma(Q)
    for q, states in ((math.nan, [0.0]), (0.5, [math.nan]), (0.5, [0.0, math.inf])):
        with pytest.raises(ValueError):
            psi_conditional_profile(spec, q, states)
    # An empty or non-1-d state grid fails before any engine runs.
    for spec in (mpr_sigma_gamma(Q), mpr_alpha_arccos(Q), mpr_tilde(0.5)):
        for states in ([], np.zeros((0, 2)), 0.0, [[0.0, 0.5]]):
            with pytest.raises(ValueError, match="non-empty 1-d"):
                psi_conditional_profile(spec, Q, states)


def test_psi_conditional_profile_alpha_bounds():
    from qbsde import mpr_alpha_arccos

    w_grid = np.array([-1.0, 0.0, 1.0]) * math.sqrt(0.5)
    ests = psi_conditional_profile(mpr_alpha_arccos(Q), Q, w_grid)
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
    est = psi_conditional_profile(mpr_alpha_arccos(Q), 0.0, [0.0])[0]
    assert est.lower_bound is None
    assert est.estimate == pytest.approx(0.0, abs=1e-12)


def _exit_moment(x: float, beta: float) -> float:
    """``cosh(x) E[exp(beta H)]`` for the driftless exit ``H`` from (-1, 1)."""
    if beta >= math.pi**2 / 8.0:
        return math.inf
    root = math.sqrt(2.0 * abs(beta))
    return math.cosh(x) / (math.cos(root) if beta > 0.0 else math.cosh(root))


#: Seed of the inner clocks in the conditional-profile oracle test.
ORACLE_SEED = 7
#: Inner clock paths per state in the conditional-profile oracle test.
ORACLE_INNER = 20000


def _inner_clock_profile(spec, states):
    """Monte Carlo ``Psi_{T/2}`` and its SE per state, on simulated inner clocks.

    ``ORACLE_INNER`` clock paths per state, to the default grid's clock
    depth: the cut kind stopped at each state's cut, the drifted kinds with
    each state's drift, the others on one driftless exit that every state
    shares.  The summands are the exposure map's exponential functional.
    """
    coeff, drift, _, u_sigma = _entry_clock(spec, states)
    u_max = math.log((spec.T / 2.0) / default_gap(spec.T))
    n = states.size * ORACLE_INNER
    if u_sigma is not None:
        exits = simulate_two_sided_exit(
            n, u_max=u_max, seed=ORACLE_SEED, stream=("cond-exit-cut",),
            stop_u=np.repeat(u_sigma, ORACLE_INNER))
    elif drift is not None:
        exits = simulate_two_sided_exit(
            n, u_max=u_max, seed=ORACLE_SEED, stream=("cond-exit-drift", spec.b),
            drift=np.repeat(drift, ORACLE_INNER))
    else:
        exits = simulate_two_sided_exit(
            ORACLE_INNER, u_max=u_max, seed=ORACLE_SEED, stream=("cond-exit",))
    int_dw, int2 = _exposure(
        coeff[:, None], None if drift is None else drift[:, None],
        exits.x_exit.reshape(-1, ORACLE_INNER), exits.u_exit.reshape(-1, ORACLE_INNER))
    values = np.exp(-Q * int_dw - 0.5 * Q * int2)
    mean = values.mean(axis=1)
    se = values.std(axis=1, ddof=1) / math.sqrt(ORACLE_INNER)
    return np.log(mean) / (1.0 - Q), se / (mean * (1.0 - Q))


@pytest.mark.parametrize("spec,skipped", [
    (mpr_alpha_arccos(Q).with_scale(0.5), ()),
    # alpha(w) >= 1/sqrt(2) at w <= -sqrt(0.5): the summand's second moment is
    # infinite there (2 lambda >= pi^2/8) and no standard error exists.
    (mpr_alpha_arccos(Q), (-2.0, -1.0)),
    (mpr_tilde(0.5), ()),
    # Below a cut clock time of 0.1 the Euler stop, floored to the step grid,
    # biases the simulated moment low: a cut at 0.0017 stops at 0.001, where
    # the moment is 1.00247 against 1.00427 at the cut.
    (mpr_sigma_gamma(Q).with_scale(0.5), (-2.0, -1.0)),
    (mpr_sigma_gamma(Q), (-2.0, -1.0)),
], ids=["alpha_arccos-0.5", "alpha_arccos-1", "tilde-0.5", "sigma_gamma-0.5",
        "sigma_gamma-1"])
def test_conditional_profile_matches_the_cosine_law(spec, skipped):
    # Girsanov removes the clock drift mu; then B_H = +-1 is independent of H,
    # so exp((1-q) Psi_{T/2}(w)) = cosh(a + mu) M(lambda - a mu - mu^2/2) with
    # a = -q c, lambda = -q c^2/2 and M the driftless exit's moment function.
    # The cut kind has no such closed form; simulated inner clocks check it.
    units = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    states = units * math.sqrt(0.5)
    ests = psi_conditional_profile(spec, Q, states)
    assert all(e.se == 0.0 and e.evidence is None for e in ests)
    mc, mc_se = _inner_clock_profile(spec, states)
    coeff, drift, _, u_sigma = _entry_clock(spec, states)
    drift = np.zeros(units.size) if drift is None else drift
    for i, (unit, est, c, mu) in enumerate(zip(units, ests, coeff, drift)):
        if u_sigma is not None:
            assert (u_sigma[i] < 0.1) == (unit in skipped)
        else:
            a, lam = -Q * c, -Q * c * c / 2.0
            second = _exit_moment(2.0 * a + mu, 2.0 * (lam - a * mu) - mu * mu / 2.0)
            assert math.isinf(second) == (unit in skipped)
            closed = math.log(_exit_moment(a + mu, lam - a * mu - mu * mu / 2.0))
            assert est.estimate == pytest.approx(closed / (1.0 - Q), rel=1e-12, abs=1e-14)
        if unit in skipped:
            continue
        assert abs(est.estimate - mc[i]) <= 4.0 * mc_se[i], (unit, est, mc[i], mc_se[i])


def test_the_profile_simulates_no_clock(monkeypatch):
    runs = []

    def counting(*args, **kwargs):
        runs.append(kwargs)
        return simulate_two_sided_exit(*args, **kwargs)

    for module in (core, catalog):  # the two modules that build clocks
        monkeypatch.setattr(module, "simulate_two_sided_exit", counting)
    states = np.array([-1.0, 0.0, 1.0])
    for kind in KINDS:
        if TRAITS[kind].entry is not None:
            psi_conditional_profile(_MIDPOINT_SPECS[kind], Q, states)
    assert not runs


def test_the_profile_is_finite_infinite_or_raises_never_nan():
    states = np.array([-3.0, 3.0]) * math.sqrt(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The cut series holds for |a| <= 10: sigma_gamma up to scale 6.4.
        ests = psi_conditional_profile(mpr_sigma_gamma(Q).with_scale(6.0), Q, states)
        assert all(math.isfinite(e.estimate) and not e.diverged for e in ests)
        with pytest.raises(ValueError, match="a="):
            psi_conditional_profile(mpr_sigma_gamma(Q).with_scale(8.0), Q, states)
        # Past pi^2/8 the untruncated moment is infinite: alpha -> 1 at w -> -inf.
        low, high = psi_conditional_profile(mpr_alpha_arccos(Q).with_scale(20.0), Q, states)
        assert low.diverged and low.estimate == math.inf
        assert not high.diverged and math.isfinite(high.estimate)
        # Far in the tail the unit-scale arccos bound stays finite too.
        (far,) = psi_conditional_profile(mpr_alpha_arccos(Q), Q, [-40.0])
        assert far.diverged and math.isfinite(far.lower_bound)
        for spec in _MIDPOINT_SPECS.values():
            for scale in (0.5, 1.0, 8.0):
                ests = psi_conditional_profile(spec.with_scale(scale), 0.0, states)
                assert all(e.estimate == 0.0 and not e.diverged for e in ests)


def test_psi_conditional_profile_sigma_has_no_analytic_bound():
    ests = psi_conditional_profile(mpr_sigma_gamma(Q), Q, np.array([0.0]))
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
    resid = driver_residual(triple)
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


def test_triples_record_their_construction(ens_small):
    spec = mpr_constant(LEVEL)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degree fallback noise
        triples = [psi_path(spec, Q, ens_small), psi_path(mpr_zero(), 0.0, ens_small),
                   constant_closed_form_triple(spec, Q, ens_small),
                   continuum(spec, Q, 0.0, ens_small),
                   continuum(spec, Q, 0.5, ens_small)]
    specs = [spec, mpr_zero(), spec, spec, spec]
    qs = [Q, 0.0, Q, Q, Q]
    assert [t.spec for t in triples] == specs and [t.q for t in triples] == qs


def test_martingale_check_constant_triple(ens_mid):
    spec = mpr_constant(LEVEL)
    triple = constant_closed_form_triple(spec, Q, ens_mid)
    mean, se, stat = martingale_check(triple)
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
    mean, se, _ = martingale_check(triple)
    assert mean == pytest.approx(1.0, abs=1e-12)


def test_continuum_zero_kind_offset(ens_small):
    b = 0.5
    triple = continuum(mpr_zero(), Q, b, ens_small)
    # xi = 1 deterministically: psi0 = log(1 + b)/(1 - q).
    assert triple.extras["psi0"] == pytest.approx(math.log(1.5) / 2.0, rel=1e-12)
    mean, _, _ = martingale_check(triple)
    assert mean == pytest.approx(1.0 / 1.5, rel=1e-12)  # xi/c exactly
    resid = driver_residual(triple)
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
        mean, se, _ = martingale_check(triple)
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
    mean, se, _ = martingale_check(triple)
    assert abs(mean - xi / (xi + b)) <= 4.0 * se


def test_continuum_rejects_clock_kinds(ens_small):
    with pytest.raises(ValueError):
        continuum(mpr_nosol(Q), Q, 0.5, ens_small)


def test_continuum_rejects_negative_offset(ens_small):
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="b_offset"):
            continuum(mpr_zero(), Q, bad, ens_small)
