"""Acceptance suite: the eleven primary criteria, one test and one line each.

Every test prints exactly one ``[PASS]``/``[FAIL]`` verdict line directly to
the terminal (bypassing pytest's capture), then asserts, so a plain
``pytest -v`` run shows the eleven lines inline:

    [PASS] criterion 01 threshold formula: ...
    ...
    [PASS] criterion 11 threshold curve data: ...

Criteria 2-8 and 10 run at the production scale of 100 000 paths on the
default grid (horizon 1, 64 coarse steps); criterion 9 and the whole-path
regression of criterion 3 use 20 000 paths, where their estimators are
already well inside tolerance.  Expected wall time for the module is
dominated by criterion 5's eighteen classifications (a few minutes); the
criterion's own budget assertion is 15 minutes.
"""

import math
import time
import warnings

import numpy as np
import pytest

from qbsde import (
    apriori_bound,
    build_grid,
    classify,
    continuum,
    critical_exponent,
    driver_residual,
    exit_time_exp_moment,
    hitting_time,
    kq_curve,
    kq_numeric,
    kq_threshold,
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
    reverse_holder,
    reverting_rh_lower,
    sample_paths,
    scaled_params,
    sigma_cut_lower_bound,
    SigmaSampler,
)

BASE_SEED = 20240817
REPLICATE_SEED = 555
N_PRODUCTION = 100_000
N_MID = 20_000
Q = -1.0
LEVEL = 0.5
#: Closed form -(q/2) level^2 T at (q, level, T) = (-1, 0.5, 1).
PSI0_CONSTANT = 0.125


@pytest.fixture(scope="module")
def grid():
    return build_grid(1.0, 64)


@pytest.fixture(scope="module")
def big(grid):
    return sample_paths(grid, N_PRODUCTION, seed=BASE_SEED)


@pytest.fixture(scope="module")
def mid(grid):
    return sample_paths(grid, N_MID, seed=BASE_SEED)


def verdict_line(capsys, num: int, name: str, passed: bool, detail: str):
    """Print the criterion's verdict through pytest's capture, then assert."""
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. Threshold formula: closed form vs numeric curvature-split minimization
# ---------------------------------------------------------------------------


def test_criterion_01_threshold_formula(capsys):
    qs = np.linspace(-8.0, -0.1, 20)
    gap = max(abs(kq_threshold(q) - kq_numeric(q)) for q in qs)
    dominates = all(kq_threshold(q) > -q / 2.0 for q in qs)
    verdict_line(
        capsys, 1, "threshold formula",
        gap <= 1e-10 and dominates,
        f"max |closed - numeric| = {gap:.2e} <= 1e-10 over 20 orders in "
        f"[-8, -0.1]; threshold > -q/2 at every point: {dominates}",
    )


# ---------------------------------------------------------------------------
# 2. Exit-clock exponential moments vs the cosine law
# ---------------------------------------------------------------------------


def test_criterion_02_exit_clock_moments(big, capsys):
    clock = hitting_time(big)
    worst = 0.0
    bits = []
    for c in (0.3, 0.5, 0.7):
        mean, _ = exit_time_exp_moment(clock, c)
        target = 1.0 / math.cos(c * math.pi / 2.0)
        rel = abs(mean - target) / target
        worst = max(worst, rel)
        bits.append(f"c={c}: {mean:.4f} vs {target:.4f}")
    verdict_line(
        capsys, 2, "exit-clock exponential moments",
        worst <= 0.02,
        f"{'; '.join(bits)}; worst rel error {worst:.3%} <= 2% "
        f"at {N_PRODUCTION} paths",
    )


# ---------------------------------------------------------------------------
# 3. Constant-premium opportunity process vs the Gaussian closed form
# ---------------------------------------------------------------------------


def test_criterion_03_constant_premium_process(big, mid, grid, capsys):
    spec = mpr_constant(LEVEL)
    est = psi_unconditional(spec, Q, big)
    rel_unc = abs(est.estimate - PSI0_CONSTANT) / PSI0_CONSTANT

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degree-fallback noise
        triple = psi_path(spec, Q, mid)
    curve = PSI0_CONSTANT * (1.0 - grid.nodes)
    sup_gap = float(np.max(np.abs(triple.psi.mean(axis=0) - curve)))

    verdict_line(
        capsys, 3, "constant-premium opportunity process",
        rel_unc <= 0.01 and sup_gap <= 0.02 * PSI0_CONSTANT,
        f"initial value {est.estimate:.6f} vs {PSI0_CONSTANT} "
        f"(rel {rel_unc:.3%} <= 1%); whole-path sup gap {sup_gap:.5f} "
        f"<= 2% of the initial value ({0.02 * PSI0_CONSTANT:.4f})",
    )


# ---------------------------------------------------------------------------
# 4. Degeneracy detection: divergent at unit scale, finite at half scale
# ---------------------------------------------------------------------------


def test_criterion_04_degeneracy_detection(big, capsys):
    full = psi_unconditional(mpr_nosol(Q), Q, big)
    half = psi_unconditional(mpr_nosol(Q).with_scale(0.5), Q, big)
    verdict_line(
        capsys, 4, "degeneracy detection",
        full.diverged and not half.diverged and math.isfinite(half.estimate),
        f"unit scale diverged={full.diverged}; half scale "
        f"diverged={half.diverged} with finite estimate {half.estimate:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. Verdict matrix: three constructions x three scales x two seeds
# ---------------------------------------------------------------------------

EXPECTED_MATRIX = {
    "nosol": ("BoundedSolution", "NoSolution", "NoSolution"),
    "alpha_arccos": ("BoundedSolution", "UnboundedSolution", "NoSolution"),
    "sigma_gamma": ("BoundedSolution", "UnboundedSolution",
                    "UnboundedSolution"),
}


def test_criterion_05_verdict_matrix(grid, big, capsys):
    builders = {
        "nosol": mpr_nosol(Q),
        "alpha_arccos": mpr_alpha_arccos(Q),
        "sigma_gamma": mpr_sigma_gamma(Q),
    }
    start = time.monotonic()
    mismatches = []
    for seed in (BASE_SEED, REPLICATE_SEED):
        ens = big if seed == BASE_SEED else sample_paths(
            grid, N_PRODUCTION, seed=seed)
        for kind, base in builders.items():
            got = tuple(
                classify(base.with_scale(c), Q, ens,
                         with_exponent=False).verdict
                for c in (0.5, 1.0, 1.5)
            )
            if got != EXPECTED_MATRIX[kind]:
                mismatches.append(f"seed {seed} {kind}: {got}")
    elapsed = time.monotonic() - start
    cells = "; ".join(
        f"{kind}: {'/'.join(v[0] for v in row)}"
        for kind, row in EXPECTED_MATRIX.items()
    )
    verdict_line(
        capsys, 5, "verdict matrix",
        not mismatches and elapsed <= 900.0,
        (f"all 9 cells ({cells}) reproduced on both seeds in {elapsed:.0f}s "
         f"<= 900s at {N_PRODUCTION} paths") if not mismatches
        else f"mismatches: {mismatches} ({elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 6. Continuum of distinct solutions indexed by the offset b
# ---------------------------------------------------------------------------


def test_criterion_06_solution_continuum(big, grid, capsys):
    spec = mpr_constant(LEVEL)
    # The discrete driver residual is dominated by the largest grid step.
    tol = 0.3 * math.sqrt(float(np.max(grid.dt)))
    closed_ok = mart_ok = resid_ok = True
    psi0s = []
    bits = []
    for b in (0.0, 0.5, 1.0):
        triple = continuum(spec, Q, b, big)
        psi0 = triple.extras["psi0"]
        closed = math.log(triple.extras["xi"] + b) / (1.0 - Q)
        mean, se, _ = martingale_check(triple)
        resid = driver_residual(triple)
        psi0s.append(psi0)
        closed_ok &= abs(psi0 - closed) <= 1e-12
        band = max(3.0 * se, 1e-12)
        if b == 0.0:
            mart_ok &= abs(mean - 1.0) <= band  # exact martingale only here
        else:
            mart_ok &= mean + band < 1.0  # strict supermartingale defect
        resid_ok &= resid.median <= tol
        bits.append(f"b={b:g}: psi0={psi0:.4f} mart={mean:.4f}+-{se:.4f} "
                    f"resid={resid.median:.3f}")
    increasing = psi0s[0] < psi0s[1] < psi0s[2]
    verdict_line(
        capsys, 6, "solution continuum",
        closed_ok and mart_ok and resid_ok and increasing,
        f"{'; '.join(bits)}; initial values match log(xi+b)/(1-q) to 1e-12 "
        f"and increase; martingale test passes only at b=0; residual "
        f"medians <= {tol:.3f}",
    )


# ---------------------------------------------------------------------------
# 7. Multiplicative representation of a constant functional
# ---------------------------------------------------------------------------


def test_criterion_07_multiplicative_representation(big, capsys):
    # Two step refinements from the contract maximum: 1e-3 -> 2.5e-4.
    coarse = mult_rep(1.0, 4.0, big, dv=1e-3)
    fine = mult_rep(1.0, 4.0, big, dv=2.5e-4)
    moment, _ = fine.clock_exp_moment()
    target = 2.0  # sqrt(c / level) = sqrt(4 / 1)
    rel = abs(moment - target) / target
    ratio = coarse.overshoot_median / fine.overshoot_median
    verdict_line(
        capsys, 7, "multiplicative representation",
        fine.reconstruction_median < 1e-3 and rel <= 0.03 and ratio >= 1.5,
        f"reconstruction median {fine.reconstruction_median:.2e} < 1e-3 at "
        f"refined step; crossing-clock moment {moment:.4f} vs {target} "
        f"(rel {rel:.3%} <= 3%); overshoot self-convergence x{ratio:.2f} "
        f">= 1.5 per 4x step refinement",
    )


# ---------------------------------------------------------------------------
# 8. Critical-exponent brackets for three regimes
# ---------------------------------------------------------------------------


def test_criterion_08_critical_exponent_brackets(big, capsys):
    ce_drift = critical_exponent(mpr_tilde(0.5), big)
    ce_degen = critical_exponent(mpr_nosol(Q), big)
    ce_const = critical_exponent(mpr_constant(LEVEL), big)
    drift_ok = (not ce_drift.infinite
                and ce_drift.lo <= 9.0 / 8.0 <= ce_drift.hi)
    degen_ok = (not ce_degen.infinite
                and ce_degen.lo <= -Q / 2.0 <= ce_degen.hi)
    verdict_line(
        capsys, 8, "critical exponent brackets",
        drift_ok and degen_ok and ce_const.infinite,
        f"drifted-clock bracket [{ce_drift.lo:.4f}, {ce_drift.hi:.4f}] "
        f"contains 9/8; degenerate-construction bracket "
        f"[{ce_degen.lo:.4f}, {ce_degen.hi:.4f}] contains -q/2 = 0.5; "
        f"constant premium flagged infinite={ce_const.infinite}",
    )


# ---------------------------------------------------------------------------
# 9. Boundedness across the catalog for exposure powers in [0, 1)
# ---------------------------------------------------------------------------


def catalog_specs():
    return [
        mpr_zero(),
        mpr_constant(LEVEL),
        mpr_reverting(),
        mpr_nosol(Q),
        mpr_alpha_arccos(Q),
        mpr_sigma_gamma(Q),
        mpr_tilde(0.5),
        mpr_scaled(Q, *scaled_params(Q, k=1.0, mode="below")),
    ]


def test_criterion_09_small_power_boundedness(mid, capsys):
    bad = []
    passes_at_half = 0
    zero_exact = True
    for q in (0.0, 0.5):
        for spec in catalog_specs():
            chk = apriori_bound(spec, q, mid)
            rh = reverse_holder(spec, q, mid)
            # A skip is sanctioned exactly when the smallness condition
            # gamma~ ||eta||^2 < 1 fails; "fail" is the only bad status.
            if chk.status not in ("pass", "skipped") or rh.verdict != "Bounded":
                bad.append(f"q={q} {spec.kind}: {chk.status}/{rh.verdict}")
            if q == 0.5 and chk.status == "pass":
                passes_at_half += 1
            if q == 0.0:
                est = psi_unconditional(spec, q, mid)
                triple = psi_path(spec, q, mid)
                zero_exact &= (est.estimate == 0.0 and est.se == 0.0
                               and np.all(triple.psi == 0.0))
    verdict_line(
        capsys, 9, "small-power boundedness",
        not bad and passes_at_half >= 4 and zero_exact,
        (f"all 8 catalog specs Bounded with a priori status pass/skipped at "
         f"q in {{0, 0.5}}; {passes_at_half} genuine bound passes at q=0.5; "
         f"q=0 solution identically zero: {zero_exact}") if not bad
        else f"violations: {bad}",
    )


# ---------------------------------------------------------------------------
# 10. Unboundedness witnesses: per-bin lower bounds and midpoint profiles
# ---------------------------------------------------------------------------


def test_criterion_10_unboundedness_witnesses(big, capsys):
    # (a) mean-reverting premium: every conditional bin must clear the
    # analytic bound exp(-q (T-t) |w| / 2) within 3 standard errors.
    rh = reverse_holder(mpr_reverting(), Q, big)
    binned = [c for c in rh.cells if not math.isnan(c.center)]
    holds = sum(
        c.mean + 3.0 * c.se >= reverting_rh_lower(c.time, c.center, Q, 1.0)
        for c in binned
    )
    bins_ok = holds == len(binned) and len(binned) >= 100
    revert_unbounded = rh.verdict == "Unbounded"

    # (b, c) midpoint profiles over a symmetric conditioning grid.
    w_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * math.sqrt(0.5)
    arccos_prof = psi_conditional_profile(mpr_alpha_arccos(Q), Q, w_grid)
    est_a = [e.estimate for e in arccos_prof]
    arccos_ok = (
        all(e.lower_bound is not None and e.estimate >= e.lower_bound
            for e in arccos_prof)
        and all(a > b for a, b in zip(est_a, est_a[1:]))  # grows toward w<0
    )

    cut_prof = psi_conditional_profile(mpr_sigma_gamma(Q), Q, w_grid)
    _, u_cut = SigmaSampler(1.0).from_w_half(w_grid)
    # The cut construction's linear-growth bound only exceeds the trivial
    # value 1 at extreme cut depths; clipped at 1 it asserts positivity.
    lb_cut = np.log(np.maximum(sigma_cut_lower_bound(u_cut, Q), 1.0)) / (1.0 - Q)
    est_c = [e.estimate for e in cut_prof]
    cut_ok = (
        all(e.estimate >= lb for e, lb in zip(cut_prof, lb_cut))
        and all(a < b for a, b in zip(est_c, est_c[1:]))  # grows toward w>0
    )

    verdict_line(
        capsys, 10, "unboundedness witnesses",
        bins_ok and revert_unbounded and arccos_ok and cut_ok,
        f"mean-reverting: {holds}/{len(binned)} bins clear the analytic "
        f"bound (verdict {rh.verdict}); arccos-scale profile "
        f"{est_a[0]:.3f}..{est_a[-1]:.3f} above bounds, growing toward "
        f"negative states; cut-clock profile {est_c[0]:.3f}..{est_c[-1]:.3f} "
        f"above bounds, growing toward positive states",
    )


# ---------------------------------------------------------------------------
# 11. Threshold curve data: the emitted (p, q, k_q) grid
# ---------------------------------------------------------------------------


def test_criterion_11_threshold_curve_data(capsys):
    p_grid = np.arange(1, 100) / 100.0
    rows = kq_curve(p_grid)
    ks = [k for (_, _, k) in rows]
    structure = (
        len(rows) == 99
        and all(k > 0.0 for k in ks)
        and all(b > a for a, b in zip(ks, ks[1:]))
    )
    ident = max(
        max(abs(q - p / (p - 1.0)), abs(k - kq_threshold(q)))
        for (p, q, k) in rows
    )
    verdict_line(
        capsys, 11, "threshold curve data",
        structure and ident <= 1e-12,
        f"99 points positive and strictly increasing in p; conjugate-power "
        f"and closed-form identities hold to {ident:.2e} <= 1e-12",
    )
