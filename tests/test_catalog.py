"""Premium catalog: threshold formula, constructors, functional evaluation."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from qbsde import (
    KINDS,
    TRAITS,
    MprSpec,
    SigmaSampler,
    alpha_from_w_half,
    clock_coefficients,
    evaluate_mpr,
    kq_numeric,
    kq_threshold,
    lambda_at_nodes,
    mpr_alpha_arccos,
    mpr_constant,
    mpr_nosol,
    mpr_reverting,
    mpr_scaled,
    mpr_sigma_gamma,
    mpr_tilde,
    mpr_zero,
    scaled_params,
)
from qbsde.bmo import _spec_record
from qbsde.catalog import _log_exit_moment
from qbsde.cli import ExperimentConfig, build_spec
from qbsde.solver import (
    constant_closed_form_triple,
    continuum,
    psi_conditional_profile,
)


# ---------------------------------------------------------------------------
# Threshold formula
# ---------------------------------------------------------------------------


def test_kq_threshold_reference_point():
    # q = -1: (q - sqrt(q^2 - q))^2 / 2 = (1 + sqrt(2))^2 / 2 = (3 + 2 sqrt 2)/2.
    assert kq_threshold(-1.0) == pytest.approx((3.0 + 2.0 * math.sqrt(2.0)) / 2.0,
                                               rel=1e-15)


def test_kq_threshold_dominates_degenerate_order():
    for q in np.linspace(-8.0, -0.05, 40):
        assert kq_threshold(float(q)) > -q / 2.0


def test_kq_threshold_rejects_nonnegative_q():
    with pytest.raises(ValueError):
        kq_threshold(0.0)
    with pytest.raises(ValueError):
        kq_threshold(0.5)
    for q in (-math.inf, math.nan, math.inf, -1e200):
        with pytest.raises(ValueError, match="finite q < 0"):
            kq_threshold(q)
    # q^2 - q is finite at -1e154 but the threshold itself overflows, as the
    # numeric minimum does; at -1e200 both reject q^2 - q.
    assert kq_threshold(-1e154) == math.inf == kq_numeric(-1e154)
    with pytest.raises(ValueError, match="finite q < 0"):
        kq_numeric(-1e200)


# ---------------------------------------------------------------------------
# Spec constructors
# ---------------------------------------------------------------------------


def test_constructors_cover_catalog():
    specs = [
        mpr_zero(), mpr_constant(0.5), mpr_reverting(), mpr_nosol(-1.0),
        mpr_alpha_arccos(-1.0), mpr_sigma_gamma(-1.0), mpr_tilde(0.5),
        mpr_scaled(-1.0, *scaled_params(-1.0, mode="critical")),
    ]
    assert sorted(s.kind for s in specs) == sorted(KINDS)
    for s in specs:
        assert s.T == 1.0 and s.c_scale == 1.0


def test_with_scale_returns_new_frozen_spec():
    base = mpr_nosol(-1.0)
    scaled = base.with_scale(0.5)
    assert scaled.c_scale == 0.5 and base.c_scale == 1.0
    assert scaled.kind == base.kind
    with pytest.raises(Exception):
        scaled.c_scale = 2.0  # frozen dataclass


@pytest.mark.parametrize(
    "build",
    [
        lambda: mpr_nosol(0.5),
        lambda: mpr_alpha_arccos(0.0),
        lambda: mpr_sigma_gamma(1.0),
        lambda: mpr_constant(0.5, T=-1.0),
        lambda: mpr_scaled(0.5, 1.0, 1.0),
        # a field the kind does not read; any kind may carry a q
        lambda: MprSpec(kind="nosol", q=-1, a=2.0, level=7.0),
        lambda: MprSpec(kind="zero", q=-1, level=0.0),
        lambda: MprSpec(kind="tilde", b=0.5, a=1.0),
        lambda: MprSpec(kind="constant", level=0.5, b=0.5),
    ],
)
def test_constructor_domain_validation(build):
    with pytest.raises(ValueError):
        build()


def test_scaled_params_modes():
    q = -1.0
    kq = kq_threshold(q)
    a, b = scaled_params(q, mode="critical")
    # Boundary witness: kq / a^2 - b^2 / 2 = 1 exactly.
    assert kq / (a * a) - b * b / 2.0 == pytest.approx(1.0, rel=1e-12)
    a2, b2 = scaled_params(q, k=1.0, mode="below")
    # Tilted exposure order sits exactly at its critical value 1.
    order = q * b2 / a2 - q / (2.0 * a2 * a2) - b2 * b2 / 2.0
    assert order == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        scaled_params(q, k=kq + 1.0, mode="below")  # target beyond threshold
    with pytest.raises(ValueError):
        scaled_params(q, mode="below")  # below-mode needs a target


# ---------------------------------------------------------------------------
# Midpoint transforms
# ---------------------------------------------------------------------------


def test_alpha_from_w_half_anchors():
    a = alpha_from_w_half(np.array([0.0]), 1.0)
    assert a[0] == pytest.approx(0.5, rel=1e-12)
    a = alpha_from_w_half(np.array([-6.0, -1.0, 0.0, 1.0, 6.0]), 1.0)
    assert np.all(np.diff(a) < 0.0)  # decreasing in the midpoint state
    assert 0.0 <= a[-1] < a[0] < 1.0
    assert a[0] > 0.99  # deep negative state pushes alpha toward 1


def test_sigma_sampler_inverse_cdf():
    sampler = SigmaSampler(1.0)
    u = np.linspace(0.001, 0.999, 25)
    s = sampler.inverse_cdf(u)
    assert np.all((s > 0.5) & (s < 1.0))
    assert np.all(np.diff(s) > 0.0)
    assert np.allclose(sampler.cdf(s), u, atol=1e-9)
    # A variate outside [0, 1], NaN included, fails instead of mapping to T/2.
    for bad in (-0.1, 1.1, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sampler.inverse_cdf(bad)


def test_sigma_sampler_from_w_half_monotone():
    sampler = SigmaSampler(1.0)
    w = np.linspace(-3.0, 3.0, 11)
    s, u_sigma = sampler.from_w_half(w)
    assert np.all(np.diff(s) > 0.0)
    assert np.allclose(u_sigma, np.log(0.5 / (1.0 - s)), rtol=1e-12)
    # A NaN state fails instead of a cut at the clock origin.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sampler.from_w_half(np.array([math.nan]))


def test_sigma_sampler_matches_probability_transform(ens_mid):
    # sigma = F^-1(Phi(sqrt(2/T) W_{T/2})) should be uniform through the CDF.
    sampler = SigmaSampler(1.0)
    s, _ = sampler.from_w_half(ens_mid.w_half)
    u = sampler.cdf(s)
    ks = stats.kstest(u, "uniform")
    assert ks.pvalue > 1e-4


# ---------------------------------------------------------------------------
# Functional evaluation
# ---------------------------------------------------------------------------


def test_evaluate_zero(ens_small):
    fn = evaluate_mpr(mpr_zero(), ens_small)
    assert np.all(fn.int_lam_dw == 0.0) and np.all(fn.int_lam2 == 0.0)
    assert np.all(fn.summand_power(-1.0) == 1.0)


def test_evaluate_constant_identities(ens_small, grid):
    level = 0.5
    fn = evaluate_mpr(mpr_constant(level), ens_small)
    t_end = float(grid.nodes[-1])
    assert np.allclose(fn.int_lam2, level**2 * t_end, rtol=1e-12)
    assert np.allclose(fn.int_lam_dw, level * ens_small.wiener[:, -1], rtol=1e-12)


def test_evaluate_reverting_matches_direct_integral(ens_small, grid):
    fn = evaluate_mpr(mpr_reverting(), ens_small)
    w_left = ens_small.wiener[:, :-1]
    lam = -np.sign(w_left) * np.sqrt(np.abs(w_left))
    assert np.allclose(fn.int_lam2, np.sum(lam**2 * grid.dt, axis=1), rtol=1e-12)
    # lambda^2 = |W|: exposure equals the time integral of |W|.
    assert np.allclose(
        fn.int_lam2, np.sum(np.abs(w_left) * grid.dt, axis=1), rtol=1e-12
    )


def _coefficients(fn):
    """Clock coefficient and drift of a clock kind's functionals."""
    return clock_coefficients(fn.spec, 1.0 if fn.alpha is None else fn.alpha)


@pytest.mark.parametrize("make", [mpr_nosol, mpr_alpha_arccos, mpr_sigma_gamma])
def test_clock_kind_exposure_identity(make, ens_small, grid):
    spec = make(-1.0)
    fn = evaluate_mpr(spec, ens_small)
    coeff, _ = _coefficients(fn)
    # The clock change of variables makes the exposure exactly coeff^2 * u
    # and the Ito integral coeff times the clock state where it dies.
    assert np.allclose(fn.int_lam2, coeff**2 * fn.u_kill, rtol=1e-12)
    assert np.allclose(fn.int_lam_dw, coeff * fn.clock.x_exit, rtol=1e-12)
    assert np.array_equal(fn.u_kill, fn.clock.u_exit)
    assert np.all(fn.u_kill <= grid.clock_depth + 1e-9)
    assert np.all(fn.u_kill >= 0.0)


def test_nosol_coefficient_value(ens_small):
    fn = evaluate_mpr(mpr_nosol(-1.0), ens_small)
    assert _coefficients(fn) == (pytest.approx(math.pi / 2.0, rel=1e-12), None)


def test_alpha_kind_couples_to_midpoint(ens_small):
    fn = evaluate_mpr(mpr_alpha_arccos(-1.0), ens_small)
    assert np.allclose(
        _coefficients(fn)[0], math.pi * fn.alpha / 2.0, rtol=1e-12
    )
    assert np.array_equal(fn.alpha, alpha_from_w_half(ens_small.w_half, 1.0))


def test_sigma_kind_cuts_at_sampled_time(ens_small):
    fn = evaluate_mpr(mpr_sigma_gamma(-1.0), ens_small)
    # The cut retires every path at or before its sampled clock image.
    assert np.all(fn.u_kill <= fn.u_sigma + 1e-9)
    cut = ~fn.clock.exited & ~fn.clock.censored
    assert cut.any()  # some paths are cut before exiting
    assert np.all(np.abs(fn.clock.x_exit[cut]) < 1.0)


def test_tilde_drift(ens_mid):
    spec = mpr_tilde(0.5)
    fn = evaluate_mpr(spec, ens_mid)
    coeff, drift = _coefficients(fn)
    assert np.allclose(drift, 0.5 * math.pi * fn.alpha / math.sqrt(8.0),
                       rtol=1e-12)
    # The exposure reads the Brownian part of the drifted clock line.
    assert np.allclose(fn.int_lam_dw, coeff * (fn.clock.x_exit - drift * fn.u_kill),
                       rtol=1e-12)


def test_spec_grid_horizon_mismatch_rejected(ens_small):
    with pytest.raises(ValueError, match="horizon"):
        evaluate_mpr(mpr_constant(0.5, T=2.0), ens_small)


def test_node_tracks_cumulate_to_terminal(ens_small, grid):
    fn = evaluate_mpr(mpr_constant(0.5), ens_small)
    assert np.allclose(fn.node_int2[:, -1], fn.int_lam2, rtol=1e-12)
    assert np.allclose(fn.node_int_dw[:, -1], fn.int_lam_dw, rtol=1e-12)
    fn_clock = evaluate_mpr(mpr_nosol(-1.0), ens_small)
    assert np.all(fn_clock.node_int2[:, : grid.half_index + 1] == 0.0)
    # Built on the first read, then kept.
    assert fn_clock.node_int2 is fn_clock.node_int2
    # Node track at the last node reaches the terminal integral up to the
    # final checkpoint rounding.
    gap = np.abs(fn_clock.node_int2[:, -1] - fn_clock.int_lam2)
    assert float(np.median(gap)) < 1e-2


# ---------------------------------------------------------------------------
# The kind trait table against the behaviour it describes
# ---------------------------------------------------------------------------

_A, _B = scaled_params(-1.0, mode="critical")
_SPECS = {
    "zero": mpr_zero(), "constant": mpr_constant(0.5), "reverting": mpr_reverting(),
    "nosol": mpr_nosol(-1.0), "alpha_arccos": mpr_alpha_arccos(-1.0),
    "sigma_gamma": mpr_sigma_gamma(-1.0), "tilde": mpr_tilde(_B),
    "scaled": mpr_scaled(-1.0, _A, _B),
}


def _rejects(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("kind", KINDS)
def test_trait_table_matches_behaviour(kind, ens_small):
    traits, spec = TRAITS[kind], _SPECS[kind]
    entry = None if traits.entry is None else traits.entry[0]
    fn = evaluate_mpr(spec, ens_small)
    assert (fn.alpha is not None) == (entry == "alpha")
    assert (fn.u_sigma is not None) == (entry == "u_sigma")
    # Independent of the table: a bounded kind's exposure is deterministic.
    assert (float(np.ptp(fn.int_lam2)) == 0.0) == traits.bounded

    assert _rejects(lambda: psi_conditional_profile(spec, -1.0, [0.0])[0]) == (
        entry is None)
    assert _rejects(lambda: continuum(spec, -1.0, 0.0, ens_small)) == (not traits.bounded)
    assert _rejects(lambda: constant_closed_form_triple(spec, -1.0, ens_small)) == (
        not traits.bounded)
    assert _rejects(lambda: lambda_at_nodes(spec, ens_small)) == traits.clock

    # Every field set: build_spec must pass on only the kind's own.
    cfg = ExperimentConfig(suite="classify", out=Path("unused"), spec_kind=kind,
                           spec_q=-1.0, spec_level=0.5, spec_a=_A, spec_b=_B)
    assert _spec_record(build_spec(cfg)) == _spec_record(spec)


@pytest.mark.parametrize("kind", KINDS)
def test_functionals_are_those_of_the_scaled_premium(kind, ens_small):
    unit = evaluate_mpr(_SPECS[kind], ens_small)
    for c in (0.5, 2.0, 1.5):
        fn = evaluate_mpr(_SPECS[kind].with_scale(c), ens_small)
        pairs = [(fn.int_lam_dw, c * unit.int_lam_dw),
                 (fn.node_int_dw, c * unit.node_int_dw),
                 (fn.int_lam2, c * c * unit.int_lam2),
                 (fn.node_int2, c * c * unit.node_int2)]
        if TRAITS[kind].clock:
            (coeff, drift), (unit_coeff, unit_drift) = map(_coefficients, (fn, unit))
            pairs.append((coeff, c * unit_coeff))
            # The scale multiplies the premium, not the clock it runs on.
            assert np.array_equal(fn.u_kill, unit.u_kill)
            assert np.array_equal(drift, unit_drift)
        for got, want in pairs:
            if c == 1.5:  # not a power of two: rounding may differ in the last bit
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            else:
                assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# The clock's exit moment E_0[exp(a X_{H^u} + lam H^u)]
# ---------------------------------------------------------------------------


#: The moment order at which the untruncated exit moment turns infinite.
_P8 = math.pi**2 / 8.0
#: The series' whole domain in the exponent ``a``.
_A_GRID = np.linspace(-10.0, 10.0, 21)


def _cosine_law(a: float, lam: float) -> float:
    """``log E_0[exp(a X_H + lam H)]`` for the untruncated exit, ``lam < pi^2/8``."""
    root = math.sqrt(2.0 * abs(lam))
    return math.log(math.cosh(a)) - math.log(
        math.cos(root) if lam >= 0.0 else math.cosh(root))


@pytest.fixture
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_exit_moment_starts_as_the_lognormal_moment(no_warnings):
    # Before the clock can reach a barrier, X_u is Gaussian: the log moment
    # is (lam + a^2/2) u.
    for a in _A_GRID:
        for lam in (-3.0, 0.0, 0.5, _P8, 5.0, 50.0):
            assert abs(_log_exit_moment(a, lam, 0.0)) <= 1e-11, (a, lam)
            assert abs(_log_exit_moment(a, lam, 1e-4) - (lam + a * a / 2.0) * 1e-4
                       ) <= 1e-11, (a, lam)


def test_exit_moment_grows_at_the_first_mode_past_the_threshold(no_warnings):
    # Past pi^2/8 the first sine mode grows like exp((lam - pi^2/8) u).  The
    # steady part decays relative to it like exp(-(lam - pi^2/8) u): at
    # lam - pi^2/8 = 1.5 and |a| <= 1 it moves the rate by less than 1e-6.
    for a in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for lam in (_P8 + 1.5, 5.0, 50.0):
            rate = (_log_exit_moment(a, lam, 13.2) - _log_exit_moment(a, lam, 8.0)) / 5.2
            assert abs(rate - (lam - _P8)) <= 1e-6, (a, lam)


def test_exit_moment_reproduces_the_cut_clock_values(no_warnings):
    # The unit-scale cut construction at q = -1 (a = pi/2, lam = pi^2/8, the
    # resonant mode) grows linearly in the cut depth u.
    for u, printed, digits in ((0.5, 2.7711, 4), (1.0, 4.7401, 4), (2.0, 8.6815, 4),
                               (4.0, 16.564, 3), (8.0, 32.330, 3)):
        value = math.exp(_log_exit_moment(math.pi / 2.0, _P8, u))
        assert round(value, digits) == printed, (u, value)
    # At scale 0.5 (a = pi/4, lam = pi^2/32) it levels off at the cosine law.
    plateau = math.exp(_log_exit_moment(math.pi / 4.0, _P8 / 4.0, 30.0))
    assert round(plateau, 5) == 1.87328
    assert abs(plateau - math.cosh(math.pi / 4.0) / math.cos(math.pi / 4.0)) <= 1e-7


def test_exit_moment_tends_to_the_cosine_law(no_warnings):
    for a in _A_GRID:
        for lam in (-3.0, -0.5, 0.0, 0.3, _P8 - 0.5):
            assert abs(_log_exit_moment(a, lam, 60.0) - _cosine_law(a, lam)) <= 1e-12
            assert _log_exit_moment(a, lam, math.inf) == pytest.approx(
                _cosine_law(a, lam), rel=1e-13, abs=1e-13)
    assert _log_exit_moment(0.3, _P8, math.inf) == math.inf
    assert _log_exit_moment(50.0, 0.0, math.inf) == pytest.approx(50.0 - math.log(2.0))


def test_exit_moment_is_continuous_across_the_resonance(no_warnings):
    # exprel keeps the resonant mode mu_0 = 0 smooth.
    for a in (0.0, math.pi / 2.0, 2.36, 10.0):
        for u in (1e-4, 1.0, 13.2):
            at = _log_exit_moment(a, _P8, u)
            for side in (-1e-9, 1e-9):
                assert abs(_log_exit_moment(a, _P8 * (1.0 + side), u) - at) <= 1e-7


def test_exit_moment_is_finite_or_raises(no_warnings):
    assert math.isfinite(_log_exit_moment(10.0, 200.0, 13.2))
    assert math.isfinite(_log_exit_moment(-10.0, 200.0, 13.2))
    for a in (10.5, -12.0, math.nan):
        with pytest.raises(ValueError, match="a="):
            _log_exit_moment(a, 1.0, 1.0)
    # A strongly negative order cancels the series below double precision.
    with pytest.raises(ValueError, match="lam="):
        _log_exit_moment(0.0, -1000.0, 1.0)
