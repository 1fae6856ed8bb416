"""Opportunity-process solver for the power-utility quadratic BSDE.

The log opportunity process ``Psi`` solves

    d Psi_t = Z_t dW_t + [ (q/2) (Z_t + lambda_t)^2 - Z_t^2 / 2 ] dt,
    Psi_T = 0,

for an exposure power ``q < 1`` (``q = p / (p - 1)`` for a utility power
``p < 1``, ``p != 0``).  Its explicit solution is

    Psi_t = (1 - q)^{-1} log E[ E(-lambda . W)_{t,T}^q | F_t ],

which this module estimates unconditionally at 0, conditionally at ``T/2``
(one-dimensional inner expectation over the exposure clock), and along whole
paths by least-squares regression.  It also constructs the multiplicative
martingale representation behind the non-uniqueness mechanism, the resulting
continuum of distinct square-integrable solutions indexed by a nonnegative
offset, and pathwise BSDE residual and martingale checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from qbsde.core import (
    DEFAULT_DV,
    PathEnsemble,
    default_gap,
    philox_stream,
    simulate_line_hit,
    simulate_two_sided_exit,
)
from qbsde.catalog import (
    KINDS,
    TRAITS,
    MprFunctionals,
    MprSpec,
    SigmaSampler,
    alpha_from_w_half,
    _checked_functionals,
    clock_coefficients,
    evaluate_mpr,
    lambda_at_nodes,
)
from qbsde.heavytail import MIN_SAMPLES, DivergenceEvidence, divergence_verdict

__all__ = [
    "OpportunityEstimate",
    "SolutionTriple",
    "MultRepResult",
    "ResidualReport",
    "bsde_drift",
    "default_eps0",
    "psi_unconditional",
    "psi_conditional_profile",
    "psi_path",
    "constant_closed_form_triple",
    "mult_rep",
    "continuum",
    "driver_residual",
    "martingale_check",
]


# ---------------------------------------------------------------------------
# Driver forms
# ---------------------------------------------------------------------------


def bsde_drift(q: float, z, lam):
    """The ``dt`` coefficient of the Psi dynamics: ``(q/2)(z+lam)^2 - z^2/2``."""
    return 0.5 * q * (z + lam) ** 2 - 0.5 * z**2


def default_eps0(q: float) -> float:
    """Default Young-inequality parameter for the driver growth bound.

    For ``q < 0`` this is the minimizing value ``sqrt(-q (1 - q))``; for
    ``q in (0, 1)`` the bound's lambda constant is ``q/(1-q)`` and any
    ``eps0 >= q (1 - q)`` validates it, so ``max(q, 1/2) * (1 - q)`` is used;
    ``q = 0`` needs no trade-off and gets ``1/2``.
    """
    if q < 0.0:
        return math.sqrt(-q * (1.0 - q))
    if q == 0.0:
        return 0.5
    return max(q, 0.5) * (1.0 - q)


def _require_power(q: float) -> None:
    """Reject an exposure power outside the finite range ``q < 1``."""
    if not (math.isfinite(q) and q < 1.0):
        raise ValueError(f"exposure power must be finite with q < 1, got {q!r}")


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


@dataclass
class OpportunityEstimate:
    """Point estimate of ``Psi`` at one time with one conditioning state.

    ``state`` is ``None`` for the unconditional estimate and the conditioning
    midpoint driver value for the ``T/2`` estimates.  When ``diverged`` is
    set the estimate is the ``+inf`` sentinel, never a spuriously finite
    mean, and ``evidence`` carries the tail measurements behind the verdict.
    """

    t: float
    state: float | None
    estimate: float
    se: float
    diverged: bool
    n_inner: int
    n_outer: int
    lower_bound: float | None = None
    evidence: DivergenceEvidence | None = None

    def __post_init__(self) -> None:
        if self.diverged and not math.isinf(self.estimate):
            raise ValueError("divergence flag requires the +inf sentinel estimate")


@dataclass
class SolutionTriple:
    """A candidate solution ``(Psi, Z, N=0)`` sampled at the grid nodes.

    ``psi`` and ``z`` are ``(n_paths, n_nodes)``; ``z`` at the final node is
    unused padding (a ``Z`` value belongs to the interval to its right).
    ``d_w`` holds the Brownian increments of the probability space the
    triple actually lives on — the ensemble's increments for grid-based
    constructions, reconstructed clock increments for the continuum — so
    residual and martingale checks integrate against the right noise.  The
    orthogonal martingale component is identically zero in the Brownian
    filtration.
    """

    ensemble: PathEnsemble
    psi: np.ndarray
    z: np.ndarray
    d_w: np.ndarray
    extras: dict = field(default_factory=dict)


@dataclass
class MultRepResult:
    """Multiplicative representation ``xi = c * E(alpha^c . W)_T`` data.

    The integrand is ``1/(T-t)`` until the crossing time ``tau_c`` and the
    representation integrand of the conditional-expectation martingale
    afterwards (identically zero for a constant functional).  Errors are
    pathwise ``|xi - c E(alpha^c . W)_T|``: ``reconstruction_error`` uses the
    boundary-snapped crossing state (the exact value of a continuous path at
    a hitting time), while ``overshoot_error`` keeps the raw end-of-step
    state and decays like the square root of the clock step — the
    self-convergence diagnostic.  ``tau_c`` is ``+inf`` for paths whose
    crossing lies beyond the simulated clock horizon (``censored``).
    """

    c: float
    xi: float
    level_gap: float
    tau_c: np.ndarray
    v_exit: np.ndarray
    censored: np.ndarray
    reconstruction_error: np.ndarray
    overshoot_error: np.ndarray
    dv: float
    v_max: float
    # distance of censored paths above the barrier, for analytic closure
    censor_height: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    @property
    def censored_fraction(self) -> float:
        return float(np.mean(self.censored))

    @property
    def reconstruction_median(self) -> float:
        """Median reconstruction error over paths whose crossing was observed.

        Censored paths carry NaN errors by construction (no crossing state
        exists to reconstruct from); they are excluded here and accounted for
        via :attr:`censored_fraction` instead.
        """
        return float(np.nanmedian(self.reconstruction_error))

    @property
    def overshoot_median(self) -> float:
        """Median raw-overshoot error over observed crossings."""
        return float(np.nanmedian(self.overshoot_error))

    def clock_exp_moment(self) -> tuple[float, float]:
        """``E[exp(rho(tau_c)/8)]`` with analytic closure of censored paths.

        A path still above the barrier at the clock horizon, at distance
        ``h`` from it, contributes ``exp(v_max/8) * exp(h/2)``: the
        first-passage transform of the remaining crossing for drift ``-1/2``
        at argument ``1/8`` equals ``exp(h/2)`` exactly, so the closure is
        unbiased rather than a truncation.
        """
        vals = np.where(
            self.censored,
            math.exp(self.v_max / 8.0) * np.exp(0.5 * self.censor_height),
            np.exp(self.v_exit / 8.0),
        )
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


@dataclass
class ResidualReport:
    """Pathwise BSDE residual summary: max-over-nodes |accumulated gap|."""

    per_path: np.ndarray
    median: float
    p95: float


# ---------------------------------------------------------------------------
# Psi estimates
# ---------------------------------------------------------------------------


def _log_mean_estimate(
    values: np.ndarray, q: float, *, t: float, state: float | None,
    n_inner: int, n_outer: int, lower_bound: float | None = None,
    check_divergence: bool = False,
) -> OpportunityEstimate:
    """Delta-method estimate of ``log(mean)/(1-q)`` with divergence guard."""
    evidence = None
    if check_divergence:
        evidence = divergence_verdict(values)
        if evidence.diverged:
            return OpportunityEstimate(
                t=t, state=state, estimate=math.inf, se=math.nan, diverged=True,
                n_inner=n_inner, n_outer=n_outer, lower_bound=lower_bound,
                evidence=evidence,
            )
    m = float(values.mean())
    se_m = float(values.std(ddof=1) / math.sqrt(values.size))
    est = math.log(m) / (1.0 - q)
    se = se_m / (m * (1.0 - q))
    return OpportunityEstimate(
        t=t, state=state, estimate=est, se=abs(se), diverged=False,
        n_inner=n_inner, n_outer=n_outer, lower_bound=lower_bound,
        evidence=evidence,
    )


def psi_unconditional(
    spec: MprSpec,
    q: float,
    ensemble: PathEnsemble,
    *,
    functionals: MprFunctionals | None = None,
) -> OpportunityEstimate:
    """Monte Carlo estimate of ``Psi_0 = log E[E(-lambda.W)_T^q] / (1-q)``.

    The standard error is the delta-method image of the summand mean's
    error on the log scale.  For ``q < 0`` the summands are screened by the
    paired tail heuristic; a divergence verdict yields the ``+inf`` sentinel
    with the evidence attached instead of a meaningless finite average.
    """
    _require_power(q)
    if q == 0.0:
        return OpportunityEstimate(
            t=0.0, state=None, estimate=0.0, se=0.0, diverged=False,
            n_inner=1, n_outer=ensemble.n_paths,
        )
    fn = _checked_functionals(spec, ensemble, functionals, need_nodes=False)
    values = fn.summand_power(q)
    return _log_mean_estimate(
        values, q, t=0.0, state=None, n_inner=1, n_outer=ensemble.n_paths,
        check_divergence=q < 0.0,
    )


def _conditional_values(
    spec: MprSpec,
    q: float,
    w_half: np.ndarray,
    n_inner: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inner summands of ``exp((1-q) Psi_{T/2})`` per conditioning state.

    Returns ``(values, lower_bounds)`` where ``values`` is
    ``(n_states, n_inner)``.  All states share one clock simulation whenever
    the construction allows it (undrifted exits), so profiles across a state
    grid are monotone up to shared-noise fluctuations only.
    """
    entry = TRAITS[spec.kind].entry
    if entry is None:
        halft_kinds = tuple(k for k in KINDS if TRAITS[k].entry is not None)
        raise ValueError(
            f"kind {spec.kind!r} has no midpoint factorization; conditional "
            f"estimates exist for kinds {halft_kinds}"
        )
    if n_inner < 2:
        raise ValueError(f"n_inner={n_inner!r}: a standard error needs 2 inner paths")
    if q < 0.0 and n_inner < MIN_SAMPLES:
        raise ValueError(
            f"n_inner={n_inner!r}: a divergence verdict needs at least "
            f"{MIN_SAMPLES} inner paths"
        )
    T = spec.T
    u_max = math.log((T / 2.0) / default_gap(T))  # the default grid's clock depth
    if entry[0] == "u_sigma":
        _, u_sigma = SigmaSampler(T).from_w_half(w_half)
        coeff, _ = clock_coefficients(spec)
        ck = np.unique(u_sigma)
        exits = simulate_two_sided_exit(
            n_inner, u_max=u_max, seed=seed, stream=("cond-exit",),
            checkpoints=ck,
        )
        values = np.empty((w_half.size, n_inner))
        for i, us in enumerate(u_sigma):
            slot = int(np.searchsorted(ck, us))
            x_at = exits.ckpt_pos[slot]  # exit state if retired before us
            u_eff = np.minimum(exits.u_exit, us)
            values[i] = np.exp(-q * coeff * x_at - 0.5 * q * coeff**2 * u_eff)
        return values, None
    coeff, drift = clock_coefficients(spec, alpha_from_w_half(w_half, T))
    if drift is not None:
        values = np.empty((w_half.size, n_inner))
        for i in range(w_half.size):
            mu = drift[i]
            exits = simulate_two_sided_exit(
                n_inner, u_max=u_max, seed=seed,
                stream=("cond-exit-drift", mu), drift=mu,
            )
            bm = exits.x_exit - mu * exits.u_exit
            values[i] = np.exp(
                -q * coeff[i] * bm - 0.5 * q * coeff[i] ** 2 * exits.u_exit
            )
        return values, None
    exits = simulate_two_sided_exit(
        n_inner, u_max=u_max, seed=seed, stream=("cond-exit",)
    )
    expo = (
        -q * coeff[:, None] * exits.x_exit[None, :]
        - 0.5 * q * (coeff[:, None] ** 2) * exits.u_exit[None, :]
    )
    lb = None
    if spec.c_scale == 1.0 and q == spec.q < 0.0:  # the cosine law at unit scale
        lb = (
            -math.pi * math.sqrt(-q) / 2.0
            - 0.5 * np.log(special.ndtr(math.sqrt(2.0 / T) * w_half))
        ) / (1.0 - q)
    return np.exp(expo), lb


def psi_conditional_profile(
    spec: MprSpec,
    q: float,
    w_half_grid: np.ndarray,
    *,
    n_inner: int = 4096,
    seed: int = 90210,
) -> list[OpportunityEstimate]:
    """Estimate ``Psi_{T/2}`` at each midpoint driver value in ``w_half_grid``.

    The midpoint state fixes the construction's conditioning quantity (the
    arccos scale or the cut time), after which ``exp((1-q) Psi_{T/2})`` is a
    one-dimensional expectation over the exposure clock, estimated by plain
    Monte Carlo on ``n_inner`` clock paths.  The inner clock is shared by every
    state and, through the engine's memo, by every call with the same
    ``n_inner`` and ``seed``; the drifted and cut kinds also need the same
    states.  For the arccos construction at unit scale and at its own ``q``
    the analytic lower bound ``[-pi sqrt(-q)/2 - log(Phi)/2] / (1-q)`` is
    attached.
    """
    _require_power(q)
    arr = np.asarray(w_half_grid, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(
            f"midpoint states must be a non-empty 1-d grid, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("midpoint states must be finite")
    values, lb = _conditional_values(spec, q, arr, n_inner, seed)
    return [
        _log_mean_estimate(
            values[i], q, t=spec.T / 2.0, state=float(arr[i]),
            n_inner=n_inner, n_outer=1,
            lower_bound=None if lb is None else float(lb[i]),
            check_divergence=q < 0.0,
        )
        for i in range(arr.size)
    ]


# ---------------------------------------------------------------------------
# Whole-path Psi by least-squares regression
# ---------------------------------------------------------------------------


#: Total degree of the polynomial basis in :func:`psi_path`'s regressions.
REGRESSION_DEGREE = 3


def _prep_state(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Winsorize (0.1% tails) and z-score state columns; drop degenerate ones.

    Leverage points of a raw cubic design dominate the fitted-coefficient
    noise, so states are clipped to their empirical bulk before the
    polynomial expansion (for fitting and evaluation alike).  Columns with no
    variation (e.g. the driver value at time 0) carry no information and are
    dropped, leaving the intercept-only projection: the plain mean.
    """
    out = []
    for c in columns:
        lo, hi = np.quantile(c, [0.001, 0.999])
        cc = np.clip(c, lo, hi)
        sd = float(cc.std())
        if sd < 1e-12:
            continue
        out.append((cc - float(cc.mean())) / sd)
    return out


def _poly_design(columns: list[np.ndarray], degree: int) -> np.ndarray:
    """Design matrix of monomials of total degree <= ``degree``."""
    n = columns[0].size
    feats = [np.ones(n)]
    if degree >= 1:
        pool = list(columns)
        feats.extend(pool)
        if degree >= 2:
            for i in range(len(pool)):
                for j in range(i, len(pool)):
                    feats.append(pool[i] * pool[j])
        if degree >= 3:
            for i in range(len(pool)):
                for j in range(i, len(pool)):
                    for k in range(j, len(pool)):
                        feats.append(pool[i] * pool[j] * pool[k])
    return np.column_stack(feats)


def _regress(design: np.ndarray, target: np.ndarray, columns: list[np.ndarray],
             degree: int) -> np.ndarray:
    """Least-squares fit with condition-number fallback to coarser bases."""
    while True:
        coef, _, _, sv = np.linalg.lstsq(design, target, rcond=None)
        cond = sv[0] / sv[-1] if sv.size and sv[-1] > 0 else math.inf
        if cond <= 1e12 or degree <= 1:
            return design @ coef
        degree -= 1
        warnings.warn(
            f"regression condition number {cond:.2e} exceeds 1e12; "
            f"falling back to degree {degree}",
            stacklevel=3,
        )
        design = _poly_design(columns, degree)


def _fit_conditional(columns: list[np.ndarray], target: np.ndarray) -> np.ndarray:
    """Project ``target`` on the polynomial span of the prepared state."""
    cols = _prep_state(columns)
    if not cols:
        return np.full(target.size, float(target.mean()))
    design = _poly_design(cols, REGRESSION_DEGREE)
    return _regress(design, target, cols, REGRESSION_DEGREE)


def psi_path(spec: MprSpec, q: float, ensemble: PathEnsemble) -> SolutionTriple:
    """Whole-path ``(Psi, Z)`` by least-squares conditional expectations.

    At each node the forward summand ``exp(-q I1(t,T) - (q/2) I2(t,T))`` is
    projected on a polynomial basis (total degree <= ``REGRESSION_DEGREE``)
    of the construction's state variables.  Grid kinds, and clock kinds up
    to the midpoint, use the driver value (plus ``alpha`` at the midpoint for
    the arccos-scaled kinds).  After the midpoint, clock kinds use the
    cumulative exposure integrals plus the midpoint statistic (``alpha`` or
    ``u_sigma``), fitted on the paths whose clock is still alive; retired
    paths' conditional value is exactly 1, so they are fixed at ``Psi = 0``
    rather than regressed.  ``Z`` is recovered per interval by projecting
    ``dPsi dW / dt`` on the driver value, or on the cumulative exposure
    integrals after the midpoint, and the terminal node is pinned to the
    contract value 0.
    """
    _require_power(q)
    grid = ensemble.grid
    n, m = ensemble.n_paths, grid.n_nodes
    if q == 0.0 or spec.kind == "zero":
        zeros = np.zeros((n, m))
        return SolutionTriple(
            ensemble=ensemble, psi=zeros, z=zeros.copy(),
            d_w=ensemble.increments,
        )

    fn = evaluate_mpr(spec, ensemble, need_nodes=True)
    node_i1, node_i2 = fn.node_int_dw, fn.node_int2
    value = np.exp(-q * (fn.int_lam_dw[:, None] - node_i1)
                   - 0.5 * q * (fn.int_lam2[:, None] - node_i2))

    wiener = ensemble.wiener
    clock_kind = TRAITS[spec.kind].clock
    first_late = grid.half_index + 1
    u_nodes = grid.clock_nodes

    psi = np.zeros((n, m))
    for k in range(m - 1):
        target = value[:, k]
        if clock_kind and k >= first_late:
            alive = fn.u_kill > u_nodes[k - first_late]
            cols_full = [node_i1[:, k], node_i2[:, k]]
            if fn.alpha is not None:
                cols_full.append(fn.alpha)
            if fn.u_sigma is not None:
                cols_full.append(fn.u_sigma)
            psi[:, k] = 0.0  # retired paths: conditional value exactly 1
            if int(alive.sum()) >= 50:
                cols = [c[alive] for c in cols_full]
                fitted = _fit_conditional(cols, target[alive])
                psi[alive, k] = np.log(np.maximum(fitted, 1e-12)) / (1.0 - q)
            elif alive.any():
                psi[alive, k] = math.log(max(target[alive].mean(), 1e-12)) / (1.0 - q)
        else:
            cols = [wiener[:, k]]
            if clock_kind and grid.nodes[k] == grid.T / 2.0 and fn.alpha is not None:
                cols.append(fn.alpha)
            fitted = _fit_conditional(cols, target)
            psi[:, k] = np.log(np.maximum(fitted, 1e-12)) / (1.0 - q)
    psi[:, -1] = 0.0

    dt = grid.dt
    z = np.zeros((n, m))
    for k in range(m - 1):
        zi_target = (psi[:, k + 1] - psi[:, k]) * ensemble.increments[:, k] / dt[k]
        if clock_kind and k >= first_late:
            alive = fn.u_kill > u_nodes[k - first_late]
            if int(alive.sum()) >= 50:
                cols = [node_i1[alive, k], node_i2[alive, k]]
                z[alive, k] = _fit_conditional(cols, zi_target[alive])
        else:
            cols = [wiener[:, k]]
            z[:, k] = _fit_conditional(cols, zi_target)

    return SolutionTriple(ensemble=ensemble, psi=psi, z=z, d_w=ensemble.increments)


def constant_closed_form_triple(
    spec: MprSpec, q: float, ensemble: PathEnsemble
) -> SolutionTriple:
    """Exact triple for a constant premium: ``Psi_t = -(q/2) l^2 (T-t)``, ``Z = 0``.

    With a deterministic exposure the conditional expectation is a pure
    Gaussian moment, the log opportunity process is deterministic and linear
    in time, and the martingale representation carries no ``dW`` term.
    """
    if not TRAITS[spec.kind].bounded:
        raise ValueError("closed-form triple exists for the constant and zero kinds")
    _require_power(q)
    level = spec.c_scale * spec.level if spec.kind == "constant" else 0.0
    grid = ensemble.grid
    psi_curve = -0.5 * q * level**2 * (grid.T - grid.nodes)
    psi = np.broadcast_to(psi_curve, (ensemble.n_paths, grid.n_nodes)).copy()
    z = np.zeros_like(psi)
    return SolutionTriple(ensemble=ensemble, psi=psi, z=z, d_w=ensemble.increments)


# ---------------------------------------------------------------------------
# Multiplicative representation
# ---------------------------------------------------------------------------


def _rho_clock(t: np.ndarray | float, T: float):
    """Time change ``rho(t) = t / (T (T - t))`` of the horizon-weighted integral."""
    return t / (T * (T - t))


def _rho_inverse(v: np.ndarray, T: float) -> np.ndarray:
    return v * T**2 / (1.0 + v * T)


#: Clock horizon of :func:`mult_rep`'s line-hit simulation.
MULT_REP_V_MAX = 8.0


def mult_rep(
    xi,
    c: float,
    ensemble: PathEnsemble,
    *,
    dv: float = DEFAULT_DV,
) -> MultRepResult:
    """Multiplicative representation ``xi = c E(alpha^c . W)_T`` for constant ``xi``.

    The integrand is ``alpha^c_t = 1/(T-t)`` until the stopped clock BM (the
    horizon-weighted stochastic integral, Brownian in the clock
    ``rho(t) = t/(T(T-t))``) first touches the moving boundary
    ``v/2 + log(xi/c)``, and the conditional-expectation integrand — zero
    for constant ``xi`` — afterwards.  Only a constant functional is
    supported: a path-dependent ``xi`` needs its conditional-expectation
    martingale at every node, which no generic estimator here provides.
    """
    xi_arr = np.asarray(xi, dtype=np.float64)
    if xi_arr.ndim > 0:
        if (xi_arr.size != ensemble.n_paths
                or not np.ptp(xi_arr) <= 1e-12 * abs(xi_arr[0])):  # NaN fails too
            raise ValueError(
                "only constant functionals are supported: pass a scalar or a "
                "constant per-path array"
            )
        xi_val = float(xi_arr.flat[0])
    else:
        xi_val = float(xi_arr)
    if not (math.isfinite(xi_val) and math.isfinite(c)):
        raise ValueError(
            f"the functional and c must be finite, got xi={xi_val!r}, c={c!r}")
    if xi_val <= 0.0:
        raise ValueError(f"the functional must be positive, got {xi_val!r}")
    # E[xi] = xi exactly (zero standard error), so the supermartingale
    # obstruction rejects any c strictly below it.
    if c < xi_val:
        raise ValueError(
            f"c={c!r} is below E[xi]={xi_val!r} (exact for a constant xi): no "
            "supermartingale representation exists for c < E[xi]"
        )
    grid = ensemble.grid
    T = grid.T
    n = ensemble.n_paths
    d = math.log(c / xi_val)

    if d == 0.0:
        zeros = np.zeros(n)
        return MultRepResult(
            c=c, xi=xi_val, level_gap=0.0, tau_c=zeros.copy(), v_exit=zeros.copy(),
            censored=np.zeros(n, dtype=bool),
            reconstruction_error=np.abs(xi_val - c) * np.ones(n),
            overshoot_error=zeros.copy(), dv=dv, v_max=MULT_REP_V_MAX,
            censor_height=zeros.copy(),
        )

    hits = simulate_line_hit(
        n, dv=dv, v_max=MULT_REP_V_MAX, seed=ensemble.seed,
        stream=("mrep", c, xi_val), level=-d, drift_cum=lambda v: -0.5 * v,
    )
    v_exit = hits.u_exit
    tau = np.where(hits.censored, math.inf, _rho_inverse(v_exit, T))

    # c * E(alpha^c . W)_T = c * exp(state at the stopped clock time), where
    # the state is the drift-adjusted clock BM minus half its quadratic
    # variation; snapped state = -d exactly at a detected crossing.
    recon = np.where(hits.censored, math.nan, np.abs(xi_val - c * np.exp(hits.x_exit)))
    over = np.where(hits.censored, math.nan, np.abs(xi_val - c * np.exp(hits.raw_end)))
    return MultRepResult(
        c=c, xi=xi_val, level_gap=d, tau_c=tau, v_exit=v_exit,
        censored=hits.censored,
        reconstruction_error=recon, overshoot_error=over, dv=dv,
        v_max=MULT_REP_V_MAX,
        censor_height=np.where(hits.censored, hits.x_exit + d, 0.0),
    )


# ---------------------------------------------------------------------------
# Continuum of solutions
# ---------------------------------------------------------------------------


#: Clock horizon of :func:`continuum`'s line-hit simulation.
CONTINUUM_V_MAX = 60.0


def continuum(
    spec: MprSpec,
    q: float,
    b_offset: float,
    ensemble: PathEnsemble,
) -> SolutionTriple:
    """One member of the continuum of square-integrable solutions.

    For a premium with pathwise-bounded quadratic exposure the functional
    ``xi = exp((q(q-1)/2) int lambda^2 dt)`` is bounded; representing it
    under the tilted measure with constant ``c = b_offset + E~[xi]`` and
    mapping back yields a solution with ``Psi^b_0 = log(c)/(1-q)`` — equal
    to the explicit solution's value only at ``b_offset = 0``.  Supported
    premiums are the catalog's pathwise-bounded-exposure kinds (zero and
    constant), for which ``xi`` is deterministic.

    The returned triple lives on its own clock-simulated probability space:
    ``d_w`` holds Brownian increments reconstructed from the clock path up
    to the boundary crossing (weight ``T/(1+Tv)`` per clock shell) plus
    fresh Gaussian tails beyond it, and ``extras`` carries the crossing data
    and the exact martingale-test statistic
    ``E([(1-q)Z^b - q lambda] . W)_T`` per path.
    """
    _require_power(q)
    if not TRAITS[spec.kind].bounded:
        bounded_kinds = tuple(k for k in KINDS if TRAITS[k].bounded)
        raise ValueError(
            f"kind {spec.kind!r} does not have pathwise-bounded quadratic "
            f"exposure; the continuum construction needs one of {bounded_kinds}"
        )
    if not (math.isfinite(b_offset) and b_offset >= 0.0):
        raise ValueError(f"b_offset must be finite and nonnegative, got {b_offset!r}")
    grid = ensemble.grid
    T = grid.T
    n = ensemble.n_paths
    level = spec.c_scale * spec.level if spec.kind == "constant" else 0.0
    xi = math.exp(0.5 * q * (q - 1.0) * level**2 * T)
    c = b_offset + xi
    d = math.log(c / xi)
    nodes = grid.nodes
    v_nodes = _rho_clock(nodes, T)
    dt = grid.dt

    accrual = 0.5 * q * (q - 1.0) * level**2  # d/dt of the log-functional accrual

    if b_offset == 0.0:
        # Boundary already touched at v = 0: everything is deterministic.
        psi_curve = (math.log(c) - accrual * nodes) / (1.0 - q)
        psi = np.broadcast_to(psi_curve, (n, grid.n_nodes)).copy()
        z = np.zeros((n, grid.n_nodes))
        d_w = ensemble.increments
        w_T = ensemble.w_terminal
        mart = np.exp(-q * level * w_T - 0.5 * q**2 * level**2 * T)
        return SolutionTriple(
            ensemble=ensemble, psi=psi, z=z, d_w=d_w,
            extras={
                "psi0": math.log(c) / (1.0 - q), "c": c, "xi": xi,
                "v_star": np.zeros(n), "tau_star": np.zeros(n),
                "censored": np.zeros(n, dtype=bool), "martingale_stat": mart,
            },
        )

    # Under the physical measure the boundary process is
    # B_v + q*level*log(1+Tv) - v/2: the log term is the Girsanov drift of
    # the representation measure's clock BM, and is exactly what makes the
    # triple below satisfy the dynamics with Z = (T-t)^{-1}/(1-q).
    v_max = CONTINUUM_V_MAX
    in_range = v_nodes < v_max
    ck = v_nodes[in_range]
    weight = lambda v: T / (1.0 + T * v)  # noqa: E731  (dW = weight(v) dB_v)
    hits = simulate_line_hit(
        n, v_max=v_max, seed=ensemble.seed,
        stream=("continuum", b_offset, level, q),
        level=-d,
        drift_cum=lambda v: q * level * math.log1p(T * v) - 0.5 * v,
        checkpoints=ck, weight_fn=weight,
    )
    v_star = hits.u_exit
    tau_star = _rho_inverse(np.where(hits.censored, v_max, v_star), T)

    # Node values of the stopped boundary process D(v ^ v*).
    pos_nodes = np.full((n, grid.n_nodes), -d)
    pos_nodes[:, in_range] = hits.ckpt_pos.T
    censor_mask = hits.censored[:, None] & ~ (v_nodes[None, :] < v_max)
    pos_nodes[censor_mask] = np.broadcast_to(
        hits.x_exit[:, None], pos_nodes.shape
    )[censor_mask]

    psi = (math.log(c) + pos_nodes - accrual * nodes[None, :]) / (1.0 - q)
    alive = v_nodes[None, :] < v_star[:, None]
    z = np.where(alive, (1.0 / (T - nodes))[None, :] / (1.0 - q), 0.0)

    # Brownian increments: clock-accumulated within [t_k, t_{k+1}] while the
    # path lives, fresh Gaussians for the remainder (independent of the
    # frozen construction by the strong Markov property).
    d_w = np.zeros((n, grid.n_intervals))
    idx = np.flatnonzero(in_range)
    for j, col in enumerate(idx[:-1]):
        d_w[:, col] = hits.ckpt_wsum[j + 1]
    if idx.size:
        last = idx[-1]
        if last < grid.n_intervals:
            d_w[:, last] = hits.ckpt_wsum[idx.size]
    rng = philox_stream(ensemble.seed, "continuum-tails", b_offset, level, q)
    t_cross = np.minimum(tau_star, T)
    gauss = rng.standard_normal((n, grid.n_intervals))
    for k in range(grid.n_intervals):
        t0, t1 = nodes[k], nodes[k + 1]
        remaining = np.clip(t1 - np.maximum(t_cross, t0), 0.0, None)
        d_w[:, k] += np.sqrt(remaining) * gauss[:, k]

    # Martingale statistic E([(1-q)Z - q lambda] . W)_T.  With the snapped
    # crossing state the clock part telescopes exactly:
    # A - B/2 = -d - q*level*W_T - (q*level)^2 T / 2 pathwise, so the
    # statistic is e^{-d} times a unit-mean Girsanov factor.  Censored paths
    # cross almost surely beyond the horizon with the same telescoped value,
    # so they are closed with the crossing state -d as well (exact, not a
    # truncation).
    w_T = d_w.sum(axis=1)
    log_growth = np.log1p(T * v_star)  # v_star is the horizon for censored paths
    int_alpha_dw = -d + 0.5 * v_star - q * level * log_growth
    quad = v_star - 2.0 * q * level * log_growth + q**2 * level**2 * T
    mart = np.exp(int_alpha_dw - q * level * w_T - 0.5 * quad)

    return SolutionTriple(
        ensemble=ensemble, psi=psi, z=z, d_w=d_w,
        extras={
            "psi0": math.log(c) / (1.0 - q), "c": c, "xi": xi,
            "v_star": v_star, "tau_star": tau_star, "censored": hits.censored,
            "martingale_stat": mart,
        },
    )


# ---------------------------------------------------------------------------
# Residual and martingale checks
# ---------------------------------------------------------------------------


def driver_residual(triple: SolutionTriple, spec: MprSpec, q: float) -> ResidualReport:
    """Pathwise BSDE residual of a triple against the dynamics.

    Telescopes ``Psi_k - Psi_0 - sum(Z dW + drift dt)`` along the grid and
    reports the maximum absolute gap per path with median / 95th-percentile
    summaries.  Works for any triple whose premium has grid-resident values
    (zero, constant, reverting); the continuum triple carries its own
    reconstructed increments in ``d_w``.
    """
    grid = triple.ensemble.grid
    lam = lambda_at_nodes(spec, triple.ensemble)
    dt = grid.dt[None, :]
    z = triple.z[:, :-1]
    gaps = (
        np.diff(triple.psi, axis=1)
        - z * triple.d_w
        - bsde_drift(q, z, lam[:, :-1]) * dt
    )
    cum = np.cumsum(gaps, axis=1)
    per_path = np.max(np.abs(cum), axis=1)
    return ResidualReport(
        per_path=per_path,
        median=float(np.median(per_path)),
        p95=float(np.quantile(per_path, 0.95)),
    )


def martingale_check(
    triple: SolutionTriple, spec: MprSpec, q: float
) -> tuple[float, float, np.ndarray]:
    """Mean and SE of ``E([(1-q)Z - q lambda] . W)_T`` for a triple.

    The statistic equals 1 in expectation exactly when the candidate triple
    is the solution whose associated utility process is a true martingale;
    the continuum members with positive offset fall strictly below 1.  Uses
    the exact clock-computed statistic when the triple carries one,
    otherwise the discrete grid approximation.
    """
    stat = triple.extras.get("martingale_stat")
    if stat is None:
        lam = lambda_at_nodes(spec, triple.ensemble)[:, :-1]
        z = triple.z[:, :-1]
        integrand = (1.0 - q) * z - q * lam
        dt = triple.ensemble.grid.dt[None, :]
        stat = np.exp(
            np.sum(integrand * triple.d_w, axis=1)
            - 0.5 * np.sum(integrand**2 * dt, axis=1)
        )
    return (
        float(stat.mean()),
        float(stat.std(ddof=1) / math.sqrt(stat.size)),
        stat,
    )
