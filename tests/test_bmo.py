"""Integrability analysis: norms, exponents, inequality checks, classifier."""

import math

import numpy as np
import pytest

from qbsde import (
    BOUNDED,
    KINDS,
    NO_SOLUTION,
    TRAITS,
    UNBOUNDED,
    apriori_bound,
    bmo_norm,
    classify,
    critical_exponent,
    dyn_exp_moment,
    evaluate_mpr,
    kq_curve,
    kq_numeric,
    kq_threshold,
    mpr_alpha_arccos,
    mpr_constant,
    mpr_nosol,
    mpr_reverting,
    mpr_scaled,
    mpr_sigma_gamma,
    mpr_tilde,
    mpr_zero,
    reverse_holder,
    reverting_rh_lower,
    sample_paths,
    scaled_params,
    scaled_tilted_order,
    sigma_cut_lower_bound,
)
from qbsde.bmo import STATE_GROWTH_RATIO, _profile_growth

Q = -1.0


# ---------------------------------------------------------------------------
# Threshold arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [-4.0, -1.0, -0.2, -1e90, -1e150])
def test_kq_numeric_agrees_with_closed_form(q):
    # Relative: q^2 - q nears the double range at the last two, where the
    # unscaled objective overflowed inside the optimizer.
    assert kq_numeric(q) == pytest.approx(kq_threshold(q), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [0.0, 0.5, math.nan, -math.inf, -1e300])
def test_kq_numeric_rejects_a_bad_q(q):
    # Non-finite or overflowing powers fail by name, before the optimizer.
    with pytest.raises(ValueError, match="q"):
        kq_numeric(q)


def test_kq_curve_structure():
    rows = kq_curve(np.array([0.25, 0.5, 0.75]))
    for p, q, k in rows:
        assert q == pytest.approx(p / (p - 1.0), rel=1e-15)
        assert k == pytest.approx(kq_threshold(q), rel=1e-15)
    assert rows[0][2] < rows[1][2] < rows[2][2]
    with pytest.raises(ValueError):
        kq_curve(np.array([1.0]))


def test_scaled_tilted_order_certificates():
    below = mpr_scaled(Q, *scaled_params(Q, k=1.0, mode="below"))
    assert scaled_tilted_order(below) == pytest.approx(1.0, rel=1e-10)
    critical = mpr_scaled(Q, *scaled_params(Q, mode="critical"))
    assert scaled_tilted_order(critical) < 1.0


# ---------------------------------------------------------------------------
# Analytic lower bounds
# ---------------------------------------------------------------------------


def test_reverting_rh_lower_values_and_domain():
    assert reverting_rh_lower(0.0, 0.0, Q, 1.0) == 1.0
    w = np.array([-2.0, 0.0, 2.0])
    vals = reverting_rh_lower(0.25, w, Q, 1.0)
    assert np.allclose(vals, np.exp(-Q * 0.75 * np.abs(w) / 2.0), rtol=1e-12)
    with pytest.raises(ValueError):
        reverting_rh_lower(-0.1, 0.0, Q, 1.0)
    with pytest.raises(ValueError):
        reverting_rh_lower(1.0, 0.0, Q, 1.0)
    with pytest.raises(ValueError, match="t=nan"):
        reverting_rh_lower(math.nan, 0.0, Q, 1.0)
    # A non-finite power or state fails rather than returning NaN or inf.
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite q"):
            reverting_rh_lower(0.5, w, q, 1.0)
    for bad in (math.nan, math.inf, np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="finite states"):
            reverting_rh_lower(0.5, bad, Q, 1.0)


def test_sigma_cut_lower_bound():
    # The linear-growth bound of the unit scale.
    u = 2.0
    s = -Q * math.pi / (2.0 * math.sqrt(-Q))
    expected = max(math.exp(-s) * ((math.pi**2 / 4.0) * u - 1.75), 1e-300)
    assert sigma_cut_lower_bound(u, Q) == pytest.approx(expected, rel=1e-12)
    # Floor kicks in where the bracket would go negative.
    assert sigma_cut_lower_bound(0.1, Q) == 1e-300
    for q in (0.0, 0.5, math.nan, -math.inf):
        with pytest.raises(ValueError, match="got q="):
            sigma_cut_lower_bound(u, q)


# ---------------------------------------------------------------------------
# Norm and dynamic moments
# ---------------------------------------------------------------------------


def test_bmo_norm_zero_kind(ens_small):
    # Zero premium has exactly zero quadratic exposure.
    est = bmo_norm(mpr_zero(), ens_small)
    assert est.estimate == 0.0 and not est.unbounded


def test_bmo_norm_rejects_a_bad_bin_count(ens_small):
    # Zero bins do not quietly become one, and a fractional count fails by name.
    for spec in (mpr_zero(), mpr_constant(0.5)):
        for bad in (0, -1, 2.5, 1.0, math.nan, "4"):
            with pytest.raises(ValueError, match="max_bins"):
                bmo_norm(spec, ens_small, max_bins=bad)
    assert bmo_norm(mpr_constant(0.5), ens_small, max_bins=np.int64(1)).cells


def test_bmo_norm_constant_kind(ens_mid):
    # sup_t E[int_t^T level^2 ds | F_t] = level^2 T at t = 0.
    est = bmo_norm(mpr_constant(0.5), ens_mid)
    assert not est.unbounded
    assert est.estimate == pytest.approx(0.25, rel=0.05)


def test_bmo_norm_reverting_finite_but_growing(ens_mid):
    est = bmo_norm(mpr_reverting(), ens_mid)
    # |W| exposure: finite family-restricted estimate, growth-flagged.
    assert est.unbounded
    assert math.isinf(est.estimate)
    assert est.growth_note is not None


def test_dyn_exp_moment_constant_all_finite(ens_mid):
    dyn = dyn_exp_moment(mpr_constant(0.5), ens_mid, k=1.0)
    assert dyn.cells
    assert not dyn.diverged
    assert math.isfinite(dyn.estimate)
    assert dyn.as_row() == (1.0, dyn.estimate, False)
    for k in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="moment order"):
            dyn_exp_moment(mpr_constant(0.5), ens_mid, k=k)


def test_dyn_exp_moment_nosol_top_cell_diverges(ens_mid):
    dyn = dyn_exp_moment(mpr_nosol(Q), ens_mid, k=1.0)
    assert dyn.diverged
    assert math.isinf(dyn.estimate)
    assert dyn.worst_cell is not None
    assert dyn.evidence is not None and dyn.evidence.diverged


# ---------------------------------------------------------------------------
# Critical exponent brackets
# ---------------------------------------------------------------------------


def test_critical_exponent_zero_kind_infinite(ens_small):
    ce = critical_exponent(mpr_zero(), ens_small)
    assert ce.infinite and math.isinf(ce.hi)
    ks = [k for (k, _, _) in ce.probes]
    assert ks == sorted(ks)


def test_critical_exponent_nosol_brackets_half(ens_mid):
    ce = critical_exponent(mpr_nosol(Q), ens_mid)
    assert not ce.infinite
    assert ce.lo <= 0.5 <= ce.hi
    assert ce.hi / ce.lo <= 1.5  # bisection tightened the bracket


# ---------------------------------------------------------------------------
# The restricted stopping family
# ---------------------------------------------------------------------------

_A, _B = scaled_params(Q, mode="critical")
_KIND_SPECS = {
    "zero": mpr_zero(), "constant": mpr_constant(0.5), "reverting": mpr_reverting(),
    "nosol": mpr_nosol(Q), "alpha_arccos": mpr_alpha_arccos(Q),
    "sigma_gamma": mpr_sigma_gamma(Q), "tilde": mpr_tilde(0.5),
    "scaled": mpr_scaled(Q, _A, _B),
}


@pytest.mark.parametrize("kind", KINDS)
def test_cells_come_from_one_stopping_family(kind, ens_small):
    spec, grid = _KIND_SPECS[kind], ens_small.grid
    clock = TRAITS[kind].clock
    # The family written out from the grid: the nodes nearest 0, T/4, T/2,
    # 3T/4 for grid kinds; 0, the T/2 entry and clock-line nodes before the
    # last for clock kinds.
    if clock:
        early = {0.0, grid.T / 2.0}
        late_nodes = set(grid.nodes[grid.half_index + 1:-1])
    else:
        early = {float(grid.nodes[np.argmin(np.abs(grid.nodes - t))])
                 for t in (0.0, grid.T / 4.0, grid.T / 2.0, 3.0 * grid.T / 4.0)}
        late_nodes = set()
    fn = evaluate_mpr(spec, ens_small)
    for name, cells, n_late in (
        ("bmo_norm", bmo_norm(spec, ens_small).cells, 4),
        ("dyn_exp_moment", dyn_exp_moment(spec, ens_small, 0.25).cells, 4),
        ("reverse_holder", reverse_holder(spec, Q, ens_small).cells, 2),
    ):
        times = {c.time for c in cells}
        assert times <= early | late_nodes, name
        late = sorted(times - early)
        assert len(late) <= n_late, name
        # The cut retires all but a few sigma_gamma paths before the first
        # clock-line node, too few for a cell.
        assert bool(late) == (clock and kind != "sigma_gamma"), name
        for t in late:
            j = int(np.flatnonzero(grid.nodes == t)[0]) - (grid.half_index + 1)
            n_alive = int(np.count_nonzero(fn.u_kill > grid.clock_nodes[j]))
            member = [c for c in cells if c.time == t
                      and not c.statistic.endswith("-edge")]
            assert sum(c.count for c in member) <= n_alive, name
            if name == "bmo_norm":  # retired paths have no exposure left
                assert all(np.all(c.samples > 0.0) for c in member)


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,verdict",
    [
        (mpr_zero(), "Bounded"),
        (mpr_constant(0.5), "Bounded"),
        (mpr_nosol(-1.0).with_scale(0.5), "Bounded"),
        (mpr_reverting(), "Unbounded"),
    ],
)
def test_reverse_holder_verdicts(spec, verdict, ens_mid):
    rh = reverse_holder(spec, Q, ens_mid)
    assert rh.verdict == verdict


def test_reverse_holder_accepts_positive_q(ens_mid):
    rh = reverse_holder(mpr_constant(0.5), 0.5, ens_mid)
    assert rh.verdict == "Bounded"
    for q in (1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="exposure power"):
            reverse_holder(mpr_constant(0.5), q, ens_mid)


def test_apriori_bound_trivial_at_q_zero(ens_small):
    chk = apriori_bound(mpr_constant(0.5), 0.0, ens_small)
    assert chk.status == "pass" and chk.upper == 0.0


def test_apriori_bound_constant_passes(ens_mid):
    chk = apriori_bound(mpr_constant(0.5), 0.5, ens_mid)
    assert chk.status == "pass"
    assert chk.upper > 0.0
    assert chk.max_upper_violation <= 1e-12
    assert chk.max_lower_violation <= 1e-12


def test_apriori_bound_skips_when_smallness_fails(ens_mid):
    chk = apriori_bound(mpr_nosol(Q), 0.5, ens_mid)
    assert chk.status == "skipped"
    assert chk.gamma_tilde * chk.eta_sq >= 1.0


def test_apriori_bound_rejects_negative_q(ens_small):
    with pytest.raises(ValueError):
        apriori_bound(mpr_constant(0.5), -0.5, ens_small)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_bounded_kinds(ens_mid):
    cls = classify(mpr_zero(), Q, ens_mid, with_exponent=False)
    assert cls.verdict == BOUNDED
    cls = classify(mpr_constant(0.5), Q, ens_mid, with_exponent=False)
    assert cls.verdict == BOUNDED


def test_classify_nosol_full_scale(ens_mid):
    cls = classify(mpr_nosol(Q), Q, ens_mid, with_exponent=False)
    assert cls.verdict == NO_SOLUTION
    assert any(e["test"] == "summand-divergence" and e["outcome"] == "diverged"
               for e in cls.evidence)


def test_classify_reverting_unbounded(ens_mid):
    cls = classify(mpr_reverting(), Q, ens_mid, with_exponent=False)
    assert cls.verdict == UNBOUNDED


def test_classify_scaled_certificate_needs_matching_q(ens_mid):
    spec = mpr_scaled(Q, *scaled_params(Q, mode="critical"))
    cls = classify(spec, Q, ens_mid, with_exponent=False)
    assert cls.verdict == BOUNDED
    assert any(e["test"] == "construction-certificate" for e in cls.evidence)
    # At a different ambient q the certificate must not be used.
    cls_other = classify(spec, -0.5, ens_mid, with_exponent=False)
    assert not any(e["test"] == "construction-certificate" for e in cls_other.evidence)


def test_classify_exponent_interval_when_requested(ens_mid):
    cls = classify(mpr_nosol(Q).with_scale(0.5), Q, ens_mid)
    assert cls.exponent_interval is not None
    lo, hi = cls.exponent_interval
    assert lo <= hi
    assert cls.threshold_side in ("below k_q", "above k_q", "straddles k_q")
    assert cls.k_q == kq_threshold(Q)
    record = cls.to_json_record()
    assert record["verdict"] == cls.verdict


def test_classify_arccos_at_positive_q(ens_small):
    # The arccos bound needs sqrt(-q); at an ambient q > 0 it must not be
    # attached, and the classification goes through.
    cls = classify(mpr_alpha_arccos(Q), 0.5, ens_small, with_exponent=False)
    assert cls.verdict in (BOUNDED, UNBOUNDED, NO_SOLUTION)


def test_classify_rejects_q_at_one(ens_small):
    for q in (1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="exposure power"):
            classify(mpr_zero(), q, ens_small)


@pytest.mark.parametrize("spec,scale,ratio", [
    (mpr_alpha_arccos(Q), 0.5, 1.5067803),
    (mpr_alpha_arccos(Q), 1.0, 15.8197544),
    (mpr_alpha_arccos(Q), 1.5, math.inf),
    (mpr_sigma_gamma(Q), 0.5, 1.3554512),
    (mpr_sigma_gamma(Q), 1.0, 3.0326016),
    (mpr_sigma_gamma(Q), 1.5, 10.1865857),
    (mpr_tilde(0.5), 1.0, 1.6863895),
])
def test_profile_growth_margin_is_exact(spec, scale, ratio):
    # The profile is exact, so the edge-over-median ratio is a property of
    # the construction: pinned with no seed, as is its side of the threshold.
    grows, detail = _profile_growth(spec.with_scale(scale), Q)
    if math.isinf(ratio):
        assert detail["edge_over_median"] == "inf" and detail["diverged_state"]
    else:
        assert abs(detail["edge_over_median"] - ratio) <= 1e-6
    assert grows == (ratio >= STATE_GROWTH_RATIO)


@pytest.mark.parametrize("seed", [20240817, 555])
def test_scaled_reverting_is_not_bmo_at_any_scale(grid, seed):
    # The scaled premium's remaining exposure grows like c^2 (T - t) |W_t|,
    # so the growth checks must fire below unit scale too.
    ens = sample_paths(grid, 20000, seed=seed)
    for scale in (0.5, 0.75):
        spec = mpr_reverting().with_scale(scale)
        est = bmo_norm(spec, ens)
        assert est.unbounded and math.isinf(est.estimate)
        assert reverse_holder(spec, -1.0, ens).verdict == "Unbounded"
