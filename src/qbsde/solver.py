"""Opportunity-process solver for the power-utility quadratic BSDE.

The log opportunity process ``Psi`` solves

    d Psi_t = Z_t dW_t + [ (q/2) (Z_t + lambda_t)^2 - Z_t^2 / 2 ] dt,
    Psi_T = 0,

for an exposure power ``q < 1`` (``q = p / (p - 1)`` for a utility power
``p < 1``, ``p != 0``).  Its explicit solution is

    Psi_t = (1 - q)^{-1} log E[ E(-lambda . W)_{t,T}^q | F_t ],

which this module estimates unconditionally at 0, evaluates exactly at
``T/2`` given the midpoint state (an exit moment of the exposure clock), and
estimates along whole paths by least-squares regression.  It also constructs the multiplicative
martingale representation behind the non-uniqueness mechanism, the resulting
continuum of distinct square-integrable solutions indexed by a nonnegative
offset, and pathwise BSDE residual and martingale checks.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations_with_replacement

import numpy as np

from qbsde.core import DEFAULT_DV, PathEnsemble, philox_stream, simulate_line_hit
from qbsde.catalog import (
    KINDS,
    TRAITS,
    MprSpec,
    _entry_clock,
    _log_exit_moment,
    evaluate_mpr,
    lambda_at_nodes,
)
from qbsde.heavytail import DivergenceEvidence, divergence_verdict

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
    """Value of ``Psi`` at one time with one conditioning state.

    ``state`` is ``None`` for the unconditional estimate and the conditioning
    midpoint driver value for the ``T/2`` values.  When ``diverged`` is set
    the estimate is the ``+inf`` sentinel, never a spuriously finite mean.
    A Monte Carlo estimate carries its standard error and, when screened,
    the tail measurements behind the verdict in ``evidence``; an exact value
    has ``se = 0`` and ``evidence = None``.
    """

    t: float
    state: float | None
    estimate: float
    se: float
    diverged: bool
    lower_bound: float | None = None
    evidence: DivergenceEvidence | None = None

    def __post_init__(self) -> None:
        if self.diverged and not math.isinf(self.estimate):
            raise ValueError("divergence flag requires the +inf sentinel estimate")


@dataclass
class SolutionTriple:
    """A candidate solution ``(Psi, Z, N=0)`` sampled at the grid nodes.

    ``spec`` and ``q`` name the premium and exposure power whose BSDE the
    triple solves; the residual and martingale checks read them from here.
    ``psi`` and ``z`` are ``(n_paths, n_nodes)``; ``z`` at the final node is
    unused padding (a ``Z`` value belongs to the interval to its right).
    ``d_w`` holds the Brownian increments of the probability space the
    triple actually lives on — the ensemble's increments for grid-based
    constructions, reconstructed clock increments for the continuum — so
    residual and martingale checks integrate against the right noise.  The
    orthogonal martingale component is identically zero in the Brownian
    filtration.
    """

    spec: MprSpec
    q: float
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


def psi_unconditional(
    spec: MprSpec, q: float, ensemble: PathEnsemble
) -> OpportunityEstimate:
    """Monte Carlo estimate of ``Psi_0 = log E[E(-lambda.W)_T^q] / (1-q)``.

    The standard error is the delta-method image of the summand mean's
    error on the log scale.  For ``q < 0`` the summands are screened by the
    paired tail heuristic; a divergence verdict yields the ``+inf`` sentinel
    with the evidence attached instead of a meaningless finite average.
    """
    _require_power(q)
    if q == 0.0:
        return OpportunityEstimate(t=0.0, state=None, estimate=0.0, se=0.0,
                                   diverged=False)
    values = evaluate_mpr(spec, ensemble).summand_power(q)
    evidence = divergence_verdict(values) if q < 0.0 else None
    if evidence is not None and evidence.diverged:
        return OpportunityEstimate(t=0.0, state=None, estimate=math.inf, se=math.nan,
                                   diverged=True, evidence=evidence)
    m = float(values.mean())
    se_m = float(values.std(ddof=1) / math.sqrt(values.size))
    return OpportunityEstimate(
        t=0.0, state=None, estimate=math.log(m) / (1.0 - q),
        se=abs(se_m / (m * (1.0 - q))), diverged=False, evidence=evidence)


def psi_conditional_profile(
    spec: MprSpec, q: float, w_half_grid: np.ndarray
) -> list[OpportunityEstimate]:
    """Exact ``Psi_{T/2}`` at each midpoint driver value in ``w_half_grid``.

    The midpoint state fixes the construction's conditioning quantity (the
    arccos scale or the cut time), after which ``exp((1-q) Psi_{T/2})`` is
    the clock's exit moment ``E_0[exp(a X_{H^u} + lam H^u)]`` in closed
    form, with ``a = -q coeff`` and ``lam = -q coeff^2/2``; a clock drift
    ``mu`` shifts them by Girsanov to ``(a + mu, lam - a mu - mu^2/2)``.  The
    cut kind stops the clock at ``u_sigma``, the others never.  Every value
    has ``se = 0``; an infinite moment is the ``+inf`` sentinel.  The law's
    ``profile_bound``, where the kind has one, is each ``lower_bound``.
    """
    _require_power(q)
    arr = np.asarray(w_half_grid, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(
            f"midpoint states must be a non-empty 1-d grid, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("midpoint states must be finite")
    if spec.law.entry is None:
        halft_kinds = tuple(k for k in KINDS if TRAITS[k].entry is not None)
        raise ValueError(
            f"kind {spec.kind!r} has no midpoint factorization; conditional "
            f"estimates exist for kinds {halft_kinds}"
        )
    coeff, drift, _, u_sigma = _entry_clock(spec, arr)
    a, lam = -q * coeff, -0.5 * q * coeff * coeff
    if drift is not None:
        a, lam = a + drift, lam - a * drift - 0.5 * drift * drift
    u = np.full(arr.size, math.inf) if u_sigma is None else u_sigma
    bound = spec.law.profile_bound
    lb = None if bound is None else bound(spec, q, arr)
    log_m = map(_log_exit_moment, a.tolist(), lam.tolist(), u.tolist())
    return [
        OpportunityEstimate(
            t=spec.T / 2.0, state=float(w), estimate=m / (1.0 - q), se=0.0,
            diverged=math.isinf(m), lower_bound=None if lb is None else float(lb[i]))
        for i, (w, m) in enumerate(zip(arr, log_m))
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
    feats = [np.ones(columns[0].size)]
    for d in range(1, degree + 1):
        feats += [reduce(operator.mul, (columns[i] for i in idx))
                  for idx in combinations_with_replacement(range(len(columns)), d)]
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
    if q == 0.0 or spec.law.null:
        zeros = np.zeros((n, m))
        return SolutionTriple(
            spec=spec, q=q, ensemble=ensemble, psi=zeros, z=zeros.copy(),
            d_w=ensemble.increments,
        )

    fn = evaluate_mpr(spec, ensemble)
    node_i1, node_i2 = fn.node_int_dw, fn.node_int2

    wiener = ensemble.wiener
    clock_kind = spec.law.clock
    entry_cols = [] if spec.law.entry is None else [getattr(fn, spec.law.entry[0])]
    first_late = grid.half_index + 1
    u_nodes = grid.clock_nodes

    psi = np.zeros((n, m))
    for k in range(m - 1):
        # The forward summand from node k, formed when node k is fitted.
        target = np.exp(-q * (fn.int_lam_dw - node_i1[:, k])
                        - 0.5 * q * (fn.int_lam2 - node_i2[:, k]))
        if clock_kind and k >= first_late:
            alive = fn.u_kill > u_nodes[k - first_late]
            cols_full = [node_i1[:, k], node_i2[:, k], *entry_cols]
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

    return SolutionTriple(spec=spec, q=q, ensemble=ensemble, psi=psi, z=z,
                          d_w=ensemble.increments)


def constant_closed_form_triple(
    spec: MprSpec, q: float, ensemble: PathEnsemble
) -> SolutionTriple:
    """Exact triple for a constant premium: ``Psi_t = -(q/2) l^2 (T-t)``, ``Z = 0``.

    With a deterministic exposure the conditional expectation is a pure
    Gaussian moment, the log opportunity process is deterministic and linear
    in time, and the martingale representation carries no ``dW`` term.
    """
    if not spec.law.bounded:
        raise ValueError("closed-form triple exists for the constant and zero kinds")
    _require_power(q)
    level = spec.law.level(spec)
    grid = ensemble.grid
    psi_curve = -0.5 * q * level**2 * (grid.T - grid.nodes)
    psi = np.broadcast_to(psi_curve, (ensemble.n_paths, grid.n_nodes)).copy()
    z = np.zeros_like(psi)
    return SolutionTriple(spec=spec, q=q, ensemble=ensemble, psi=psi, z=z,
                          d_w=ensemble.increments)


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

#: Rows per block of :func:`continuum`'s Gaussian tails.
_TAIL_ROWS = 4096


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
    if not spec.law.bounded:
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
    level = spec.law.level(spec)
    xi = math.exp(0.5 * q * (q - 1.0) * level**2 * T)
    c = b_offset + xi
    d = math.log(c / xi)
    nodes = grid.nodes
    v_nodes = _rho_clock(nodes, T)

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
            spec=spec, q=q, ensemble=ensemble, psi=psi, z=z, d_w=d_w,
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

    # Every (n, n_nodes) array below is an output, built in place or one
    # node at a time.  Brownian increments: clock-accumulated within
    # [t_k, t_{k+1}] while the path lives, fresh Gaussians for the remainder
    # (independent of the frozen construction by the strong Markov property).
    d_w = np.zeros((n, grid.n_intervals))
    idx = np.flatnonzero(in_range)
    for j, col in enumerate(idx[:-1]):
        d_w[:, col] = hits.ckpt_wsum[j + 1]
    if idx.size:
        last = idx[-1]
        if last < grid.n_intervals:
            d_w[:, last] = hits.ckpt_wsum[idx.size]
    hits.ckpt_wsum = None

    # psi from the node values of the stopped boundary process D(v ^ v*);
    # past the clock horizon a censored path keeps its state there.
    psi = np.full((n, grid.n_nodes), -d)
    psi[:, in_range] = hits.ckpt_pos.T
    hits.ckpt_pos = hits.ckpt_alive = None
    x_censored = hits.x_exit[hits.censored]
    for k in np.flatnonzero(~in_range):
        psi[hits.censored, k] = x_censored
    psi += math.log(c)
    psi -= accrual * nodes
    psi /= 1.0 - q
    z = np.zeros((n, grid.n_nodes))
    z_alive = (1.0 / (T - nodes)) / (1.0 - q)
    for k in range(grid.n_nodes):
        z[v_nodes[k] < v_star, k] = z_alive[k]

    # The tails come from one (n, n_intervals) Gaussian draw, taken in row
    # blocks: a row block of a Philox draw has the one-shot draw's bits.
    rng = philox_stream(ensemble.seed, "continuum-tails", b_offset, level, q)
    t_cross = np.minimum(tau_star, T)
    for r0 in range(0, n, _TAIL_ROWS):
        rows = slice(r0, min(r0 + _TAIL_ROWS, n))
        gauss = rng.standard_normal((rows.stop - r0, grid.n_intervals))
        for k in range(grid.n_intervals):
            t0, t1 = nodes[k], nodes[k + 1]
            remaining = np.clip(t1 - np.maximum(t_cross[rows], t0), 0.0, None)
            d_w[rows, k] += np.sqrt(remaining) * gauss[:, k]

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
        spec=spec, q=q, ensemble=ensemble, psi=psi, z=z, d_w=d_w,
        extras={
            "psi0": math.log(c) / (1.0 - q), "c": c, "xi": xi,
            "v_star": v_star, "tau_star": tau_star, "censored": hits.censored,
            "martingale_stat": mart,
        },
    )


# ---------------------------------------------------------------------------
# Residual and martingale checks
# ---------------------------------------------------------------------------


def driver_residual(triple: SolutionTriple) -> ResidualReport:
    """Pathwise BSDE residual of a triple against its own dynamics.

    Telescopes ``Psi_k - Psi_0 - sum(Z dW + drift dt)`` along the grid, with
    the driver of the triple's ``spec`` and ``q``, and reports the maximum
    absolute gap per path with median / 95th-percentile summaries.  Works
    for any triple whose premium has grid-resident values (zero, constant,
    reverting); the continuum triple carries its own reconstructed
    increments in ``d_w``.  The sum runs one node at a time from the first
    gap, so it keeps the bits of a whole-matrix cumulative sum with one
    column of memory.
    """
    grid = triple.ensemble.grid
    lam = lambda_at_nodes(triple.spec, triple.ensemble)
    psi, z, d_w = triple.psi, triple.z, triple.d_w

    def gap(k: int) -> np.ndarray:
        return ((psi[:, k + 1] - psi[:, k]) - z[:, k] * d_w[:, k]
                - bsde_drift(triple.q, z[:, k], lam[:, k]) * grid.dt[k])

    cum = gap(0)
    per_path = np.abs(cum)
    for k in range(1, grid.n_intervals):
        cum += gap(k)
        np.maximum(per_path, np.abs(cum), out=per_path)
    return ResidualReport(
        per_path=per_path,
        median=float(np.median(per_path)),
        p95=float(np.quantile(per_path, 0.95)),
    )


def martingale_check(triple: SolutionTriple) -> tuple[float, float, np.ndarray]:
    """Mean and SE of ``E([(1-q)Z - q lambda] . W)_T`` for a triple.

    The statistic equals 1 in expectation exactly when the candidate triple
    is the solution whose associated utility process is a true martingale;
    the continuum members with positive offset fall strictly below 1.  Uses
    the exact clock-computed statistic when the triple carries one,
    otherwise the discrete grid approximation with the triple's ``spec``
    and ``q``.
    """
    stat = triple.extras.get("martingale_stat")
    if stat is None:
        q = triple.q
        lam = lambda_at_nodes(triple.spec, triple.ensemble)[:, :-1]
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
