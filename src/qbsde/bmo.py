"""BMO analysis and solution classification for the exposure catalog.

Estimates BMO2 norms and dynamic exponential moments of the risk-premium
martingale over a restricted stopping family, brackets the critical moment
order by bisection, evaluates the sharp boundedness threshold ``k_q``, and
runs the reverse-Holder and a priori bound checks.  The classifier
combines these into one of three verdicts per (spec, q):
``BoundedSolution``, ``UnboundedSolution``, or ``NoSolution``.

The BMO norm, the dynamic exponential moments and the reverse-Holder
condition are all suprema of conditional expectations over the same
stopping times (Kazamaki, *Continuous Exponential Martingales and BMO*,
1994).  Suprema over all stopping times are not computable by simulation,
so every "sup" here is taken over one *restricted* family, built by
:func:`_family_cells` - deterministic grid times plus the construction's
own clock times, conditioned by binning on a midpoint statistic - and is
therefore a lower bound of the true value.  Conditioning on any measurable
statistic keeps the estimates honest: a binned mean is the conditional
expectation given a coarser sigma-field, which can only undershoot the
essential supremum of the finer one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from qbsde.core import PathEnsemble
from qbsde.catalog import (
    MprFunctionals,
    MprSpec,
    evaluate_mpr,
    kq_threshold,
)
from qbsde.heavytail import (
    GROWTH_FLOOR,
    HILL_CEILING,
    HILL_FAST_PATH,
    MIN_SAMPLES,
    DivergenceEvidence,
    divergence_verdict,
    growth_ratio,
    hill_estimator,
)
from qbsde.solver import (
    _require_power,
    default_eps0,
    psi_conditional_profile,
    psi_path,
    psi_unconditional,
)

__all__ = [
    "BOUNDED",
    "UNBOUNDED",
    "NO_SOLUTION",
    "BinCell",
    "NormEstimate",
    "DynMoment",
    "CriticalExponent",
    "RhCheck",
    "AprioriCheck",
    "Classification",
    "kq_numeric",
    "kq_curve",
    "scaled_tilted_order",
    "sigma_cut_lower_bound",
    "reverting_rh_lower",
    "bmo_norm",
    "dyn_exp_moment",
    "critical_exponent",
    "reverse_holder",
    "apriori_bound",
    "classify",
]

BOUNDED = "BoundedSolution"
UNBOUNDED = "UnboundedSolution"
NO_SOLUTION = "NoSolution"


def _spec_record(spec: MprSpec) -> dict:
    """Compact spec serialization for JSON evidence records."""
    return {k: v for k, v in asdict(spec).items() if v is not None}


#: Minimum samples per conditional bin.
MIN_BIN = 200
#: Maximum number of equal-count bins per family member.
MAX_BINS = 50
#: Bins per family member in the tail-decision cells of the dynamic moments.
DYN_BINS = 8
#: Probe ladder of :func:`critical_exponent`: the orders ``K_MIN * 2**j`` up
#: to ``K_MAX``, then geometric bisection until the bracket ratio reaches
#: ``STOP_RATIO`` or ``MAX_ITER`` steps have run.
K_MIN = 1.0 / 16.0
K_MAX = 64.0
STOP_RATIO = 1.25
MAX_ITER = 12
#: Mass of each edge bin pinned to the boundary of the conditioning state.
EDGE_FRACTION = 0.025
#: Minimum edge-bin size; below this the edge estimator is pure noise.
EDGE_MIN = 400
#: Growth sanity floor for edge cells (strict: constant cells sit exactly
#: at 1 and must not fire).
EDGE_GROWTH_FLOOR = 1.05
#: Conditional-mean ratio (extreme bin over median bin) read as state growth.
STATE_GROWTH_RATIO = 2.5
#: Relative jump of the max bin between half and full sample read as unstable.
STABILITY_TOL = 0.35
#: Slack factor on the linear-growth slope checks against analytic rates.
SLOPE_TOL = 0.4


# ---------------------------------------------------------------------------
# Threshold k_q
# ---------------------------------------------------------------------------


def kq_numeric(q: float) -> float:
    """Boundedness threshold by direct minimization over the split parameter.

    Minimizes ``(q^2 (1-q)/e - q + 2 q^2 - q e) / 2`` over ``e > 0``; the
    minimizer is ``s = sqrt(q^2 - q)`` and the minimum equals the closed form
    :func:`qbsde.catalog.kq_threshold`.  Kept as an independent numeric
    cross-check of that algebra.  The search runs over ``t = e / s`` on the
    objective divided by ``s^2``, term by term, so that neither the variable
    nor the objective leaves the double range at any valid ``q``: a finite
    ``q < 0`` with a finite ``q^2 - q``.

    ``scipy.optimize``, which nothing else in the package needs, is loaded
    on the first call with a valid ``q``, so ``import qbsde`` does not pay
    for it.
    """
    if not (-math.inf < q < 0.0 and math.isfinite(q * q - q)):
        raise ValueError(f"threshold defined for finite q < 0 with a finite "
                         f"q^2 - q, got {q!r}")
    from scipy import optimize

    s = math.sqrt(q * q - q)
    r = q / s

    def objective(t: float) -> float:
        return 0.5 * (r * r * ((1.0 - q) / s) / t - r / s + 2.0 * r * r - r * t)

    res = optimize.minimize_scalar(
        objective, bounds=(1e-8, 50.0), method="bounded", options={"xatol": 1e-13})
    return float(res.fun) * s * s


def kq_curve(p_values: np.ndarray) -> list[tuple[float, float, float]]:
    """Rows ``(p, q, k_q)`` for utility powers ``p`` in ``(0, 1)``.

    ``q = p/(p-1)`` is negative exactly on that range, where the sharp
    threshold applies.
    """
    rows = []
    for p in np.asarray(p_values, dtype=np.float64):
        p = float(p)
        if not 0.0 < p < 1.0:
            raise ValueError(f"utility power must lie in (0, 1), got {p!r}")
        q = p / (p - 1.0)
        rows.append((p, q, kq_threshold(q)))
    return rows


def scaled_tilted_order(spec: MprSpec) -> float:
    """Tilted exposure order ``q b/a - q/(2 a^2) - b^2/2`` of a scaled spec.

    Orders below 1 certify a bounded solution for the spec's own ``q``; the
    below-threshold witness construction lands exactly at 1 (critical under
    the tilt) and has an unbounded solution.
    """
    if spec.law.certificate is None:
        raise ValueError(f"tilted order defined for scaled specs, got {spec.kind!r}")
    return spec.law.certificate(spec)


# ---------------------------------------------------------------------------
# Analytic lower bounds used by the unboundedness checks
# ---------------------------------------------------------------------------


def reverting_rh_lower(t: float, w: np.ndarray | float, q: float, T: float):
    """Conditional reverse-Holder lower bound ``exp(-q (T-t) |w| / 2)``.

    For the mean-reverting premium the conditional tail factor given
    ``W_t = w`` is at least this value, which is unbounded in ``|w|`` - the
    mechanism behind its unbounded solution.
    """
    if not 0.0 <= t < T:
        raise ValueError(f"need 0 <= t < T, got t={t!r}")
    if not math.isfinite(q):
        raise ValueError(f"the bound needs a finite q, got q={q!r}")
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("the bound needs finite states")
    return np.exp(-q * (T - t) / 2.0 * np.abs(w))


def sigma_cut_lower_bound(u_cut: np.ndarray | float, q: float):
    """Lower bound for ``exp((1-q) Psi_{T/2})`` of the density-cut premium.

    At the critical (unit) scale the conditional inner mean given a cut
    depth ``u`` grows at least linearly: truncating the exit-time series to
    its leading term gives ``E[exp(rate * (H ^ u))] >= exp(-s) *
    ((pi^2/4) u - 7/4)`` with ``s = pi sqrt(-q) / 2`` the worst exit-state
    factor, valid once the bracket is positive; below it the bound is the
    floor ``1e-300``.  Other scales lack this linear growth and have no
    bound here.
    """
    if not (math.isfinite(q) and q < 0.0):
        raise ValueError(f"the cut bound needs a finite q < 0, got q={q!r}")
    u = np.asarray(u_cut, dtype=np.float64)
    s = -q * math.pi / (2.0 * math.sqrt(-q))
    linear = (math.pi ** 2 / 4.0) * u - 1.75
    return np.maximum(math.exp(-s) * linear, 1e-300)


# ---------------------------------------------------------------------------
# Conditional bins over the restricted stopping family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinCell:
    """One conditional-mean cell: a family member restricted to a state bin."""

    member: str
    statistic: str
    center: float
    count: int
    mean: float
    se: float
    time: float
    samples: np.ndarray = field(repr=False, compare=False)


def _cells_from_stat(
    member: str,
    stat_name: str,
    stat: np.ndarray | None,
    samples: np.ndarray,
    t: float,
    *,
    min_bin: int,
    max_bins: int,
    add_edges: bool = False,
) -> list[BinCell]:
    """Equal-count bins of ``samples`` on ``stat`` (single bin when flat).

    With ``add_edges``, two narrow value-bins pinned to the edges of the
    statistic's empirical support are appended (tagged ``<stat>-edge``).
    Equal-count bins wash out a thin sub-population sitting at the edge of
    the conditioning state; the edge bins isolate it so tail decisions see
    its conditional law rather than a mixture dominated by the body.
    """
    n = samples.size
    if n == 0:
        return []

    def cell(sel: np.ndarray, center: float, name: str = stat_name) -> BinCell:
        vals = samples[sel] if sel is not None else samples
        m = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        return BinCell(
            member=member, statistic=name, center=center,
            count=int(vals.size), mean=m, se=se, time=t, samples=vals,
        )

    flat = stat is None or float(np.ptp(stat)) < 1e-12
    n_bins = min(max_bins, n // min_bin)
    if flat or n_bins < 2:
        return [cell(None, math.nan)]
    edges = np.quantile(stat, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    which = np.searchsorted(edges, stat, side="right")
    cells = []
    for b in range(n_bins):
        sel = which == b
        cnt = int(np.count_nonzero(sel))
        if cnt < min_bin:
            continue
        cells.append(cell(sel, float(np.mean(stat[sel]))))
    if add_edges and n >= 2 * EDGE_MIN:
        for lo_side in (True, False):
            frac = EDGE_FRACTION if lo_side else 1.0 - EDGE_FRACTION
            cut = float(np.quantile(stat, frac))
            sel = (stat <= cut) if lo_side else (stat >= cut)
            if int(np.count_nonzero(sel)) >= EDGE_MIN:
                cells.append(cell(sel, float(np.mean(stat[sel])),
                                  name=f"{stat_name}-edge"))
    return cells or [cell(None, math.nan)]


def _grid_member_indices(ensemble: PathEnsemble) -> list[int]:
    grid = ensemble.grid
    times = [0.0, grid.T / 4.0, grid.T / 2.0, 3.0 * grid.T / 4.0]
    idx = sorted({int(np.argmin(np.abs(grid.nodes - t))) for t in times})
    return [k for k in idx if k < grid.n_nodes - 1]


def _late_member_indices(ensemble: PathEnsemble, n_members: int) -> list[int]:
    grid = ensemble.grid
    first = grid.half_index + 1
    last = grid.n_nodes - 2
    if last < first:
        return []
    step = max(1, (last - first) // max(1, n_members - 1))
    return sorted(set(range(first, last + 1, step)))


def _family_cells(
    spec: MprSpec,
    ensemble: PathEnsemble,
    fn: MprFunctionals,
    sample_at: Callable[[int], np.ndarray],
    *,
    n_late: int,
    min_bin: int,
    max_bins: int,
    add_edges: bool = False,
) -> list[BinCell]:
    """Conditional cells of per-path samples over the restricted stopping family.

    ``sample_at(k)`` is each path's sample for the member at grid node ``k``.
    Grid-resident kinds condition on ``W_t`` at the nodes nearest ``0, T/4,
    T/2, 3T/4``.  Clock kinds take ``t = 0``, the ``T/2`` entry binned on the
    construction's midpoint statistic, and ``n_late`` clock-line members
    after it, restricted to the paths still alive there and binned on the
    midpoint statistic (or the clock-line position when there is none).
    """
    grid = ensemble.grid

    def cells(t: float, name: str, stat, samples, member: str | None = None):
        return _cells_from_stat(
            member or f"t={t:.4g}", name, stat, samples, t,
            min_bin=min_bin, max_bins=max_bins, add_edges=add_edges,
        )

    if not spec.law.clock:
        out: list[BinCell] = []
        for k in _grid_member_indices(ensemble):
            stat = None if k == 0 else ensemble.wiener[:, k]
            out += cells(float(grid.nodes[k]), "driver-value", stat, sample_at(k))
        return out

    half_t = grid.T / 2.0
    entry_stat, entry_name = None, "none"
    if spec.law.entry is not None:
        entry_stat, entry_name = getattr(fn, spec.law.entry[0]), spec.law.entry[1]
    out = cells(0.0, "none", None, sample_at(0))
    out += cells(half_t, entry_name, entry_stat, sample_at(grid.half_index),
                 member=f"t={half_t:.4g} (entry)")
    first_late = grid.half_index + 1
    for k in _late_member_indices(ensemble, n_late):
        j = k - first_late
        alive = fn.u_kill > grid.clock_nodes[j]
        if np.count_nonzero(alive) < min_bin:
            continue
        if entry_stat is not None:
            stat, name = entry_stat[alive], entry_name
        else:
            stat, name = fn.clock.ckpt_pos[j][alive], "clock-position"
        out += cells(float(grid.nodes[k]), name, stat, sample_at(k)[alive])
    return out


def _abs_state_slope(cells: list[BinCell], transform=None) -> dict[str, float]:
    """Least-squares slope of (transformed) bin means against ``|center|``.

    Fitted on the outer half of the bins (by ``|center|``), where the
    asymptotic linear growth dominates the conditional mean.
    """
    pts = [(abs(c.center), c.mean) for c in cells if not math.isnan(c.center)]
    if len(pts) < 4:
        return {"slope": 0.0, "n_bins": len(pts)}
    pts.sort()
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if transform is not None:
        ys = transform(ys)
    cut = np.median(xs)
    sel = xs >= cut
    if np.count_nonzero(sel) < 3:
        sel = np.ones_like(xs, dtype=bool)
    slope = float(np.polyfit(xs[sel], ys[sel], 1)[0])
    return {"slope": slope, "n_bins": int(np.count_nonzero(sel))}


# ---------------------------------------------------------------------------
# BMO2 norm over the restricted family
# ---------------------------------------------------------------------------


@dataclass
class NormEstimate:
    """Family-restricted estimate of ``sup_tau E[int_tau^T lambda^2 dt|F_tau]``.

    ``estimate`` is in squared-norm units (the BMO2 norm is its square
    root) and is a *lower bound*: the stopping family is restricted and the
    conditioning is binned.  ``unbounded`` flags conditional means that grow
    along an unbounded state grid (not BMO); the estimate is then ``inf``.
    The zero and constant premiums get their exact value.
    """

    estimate: float
    unbounded: bool
    cells: list[BinCell]
    growth_note: str | None = None


def bmo_norm(
    spec: MprSpec,
    ensemble: PathEnsemble,
    *,
    max_bins: int = MAX_BINS,
) -> NormEstimate:
    """Binned-conditional estimate of the squared BMO2 norm.

    The remaining exposure ``int_t^T lambda^2 ds`` is averaged per cell of
    the restricted stopping family (see :func:`_family_cells`; the clock
    kinds add four clock-line members after the entry), and the max cell
    mean estimates the family sup.  Where the kind's law has an exposure
    growth rate (the mean-reverting premium, whose scaled remaining exposure
    grows like ``c^2 (T - t) |W_t|``), a linear-growth check flags "not
    BMO" at any scale ``c``.  ``max_bins`` must be a positive integer.
    """
    if not (isinstance(max_bins, (int, np.integer)) and max_bins >= 1):
        raise ValueError(f"max_bins must be a positive integer, got {max_bins!r}")
    if spec.law.null:
        return NormEstimate(estimate=0.0, unbounded=False, cells=[])
    fn = evaluate_mpr(spec, ensemble)
    cells = _family_cells(
        spec, ensemble, fn, lambda k: fn.int_lam2 - fn.node_int2[:, k],
        n_late=4, min_bin=MIN_BIN, max_bins=max_bins,
    )

    if spec.law.level is not None:
        exact_value = spec.law.level(spec) ** 2 * ensemble.grid.T
        return NormEstimate(estimate=exact_value, unbounded=False, cells=cells)

    if spec.law.growth is not None:
        # A slope at the analytic growth rate of the conditional remaining
        # exposure on an unbounded state certifies an infinite norm.
        for member in sorted({c.member for c in cells}):
            mc = [c for c in cells if c.member == member]
            if not mc or math.isnan(mc[0].center):
                continue
            t = mc[0].time
            fit = _abs_state_slope(mc)
            rate = spec.law.growth(spec, t) * (1.0 - SLOPE_TOL)
            if fit["slope"] >= rate and rate > 0.0:
                note = (
                    f"conditional exposure at t={t:.4g} grows with slope "
                    f"{fit['slope']:.3f} >= c^2 (T-t)(1-tol)={rate:.3f} in |W_t|: not BMO"
                )
                return NormEstimate(
                    estimate=math.inf, unbounded=True, cells=cells, growth_note=note,
                )

    best = max(cells, key=lambda c: c.mean)
    return NormEstimate(estimate=best.mean, unbounded=False, cells=cells)


# ---------------------------------------------------------------------------
# Dynamic exponential moments and the critical order
# ---------------------------------------------------------------------------


def _bin_divergence(samples: np.ndarray, *, edge: bool = False) -> DivergenceEvidence:
    """Paired tail heuristic at bin scale.

    Same estimator pair and thresholds as the solver-side verdict, with two
    bin-size adaptations: the Hill tail fraction widens on small bins so the
    index keeps at least ~250 tail points when available, and the ceiling
    branch requires the index to sit below the ceiling by two standard
    errors.  Near-threshold moment orders sit within one Hill standard error
    of the ceiling, where the raw rule would flip on noise; requiring a
    decisive index keeps bisection brackets honest.  Growth corroboration is
    demanded on the fast path too - a power-looking tail alone is also what
    a stretched-tail finite sample produces at large orders.

    ``edge`` cells (narrow value-bins at the boundary of the conditioning
    state) get a different trade-off.  Inside such a bin the conditional
    tail is close to a single rate, so the Hill window widens to half the
    bin - the efficient estimator for a near-pure exponential rate - and
    the plain ceiling applies without the two-standard-error strictness.
    The growth floor drops to a sanity level: the divergent sub-population
    is thin by construction, so a modest realized growth is expected even
    when the conditional moment genuinely diverges, while exactly-flat cells
    (deterministic exposure) still sit at growth 1 and never fire.
    """
    x = np.asarray(samples, dtype=np.float64)
    tail_frac = 0.5 if edge else min(0.05, max(0.01, 250.0 / max(x.size, 1)))
    hill, hill_se, k = hill_estimator(x, tail_frac=tail_frac)
    growth = growth_ratio(x)
    if edge:
        if hill <= HILL_CEILING and growth >= EDGE_GROWTH_FLOOR:
            diverged, reason = True, (
                f"edge cell: hill={hill:.3f} <= {HILL_CEILING} with "
                f"growth={growth:.3f} >= {EDGE_GROWTH_FLOOR}"
            )
        else:
            diverged, reason = False, (
                f"edge cell: hill={hill:.3f} (se {hill_se:.3f}), "
                f"growth={growth:.3f}: no decisive divergence evidence"
            )
    elif hill <= HILL_FAST_PATH and growth >= GROWTH_FLOOR:
        diverged, reason = True, (
            f"hill={hill:.3f} <= {HILL_FAST_PATH} with growth={growth:.3f} "
            f">= {GROWTH_FLOOR}"
        )
    elif hill + 2.0 * hill_se <= HILL_CEILING and growth >= GROWTH_FLOOR:
        diverged, reason = True, (
            f"hill={hill:.3f}+2se decisively <= {HILL_CEILING} and "
            f"growth={growth:.3f} >= {GROWTH_FLOOR}"
        )
    else:
        diverged, reason = False, (
            f"hill={hill:.3f} (se {hill_se:.3f}), growth={growth:.3f}: "
            "no decisive divergence evidence"
        )
    return DivergenceEvidence(
        diverged=diverged, hill=hill, hill_se=hill_se, growth=growth,
        n=int(x.size), tail_k=k, reason=reason,
    )


@dataclass
class DynMoment:
    """One dynamic exponential moment ``sup_tau E[exp(k * remaining)|F_tau]``."""

    k: float
    estimate: float
    diverged: bool
    worst_cell: str | None
    evidence: DivergenceEvidence | None
    cells: list[BinCell]

    def as_row(self) -> tuple[float, float, bool]:
        return (self.k, self.estimate, self.diverged)


def _dyn_cells(
    spec: MprSpec, ensemble: PathEnsemble, fn: MprFunctionals
) -> list[BinCell]:
    """Remaining-exposure cells sized for tail decisions (few large bins).

    The zero premium has no exposure at any member: one unconditional cell.
    """
    big_bin = max(MIN_BIN, ensemble.n_paths // (2 * DYN_BINS))
    if spec.law.null:
        return _cells_from_stat("t=0", "none", None, fn.int_lam2, 0.0,
                                min_bin=big_bin, max_bins=DYN_BINS)
    return _family_cells(
        spec, ensemble, fn, lambda k: fn.int_lam2 - fn.node_int2[:, k],
        n_late=4, min_bin=big_bin, max_bins=DYN_BINS, add_edges=True,
    )


def dyn_exp_moment(
    spec: MprSpec,
    ensemble: PathEnsemble,
    k: float,
    *,
    _cells: list[BinCell] | None = None,
) -> DynMoment:
    """Family-restricted dynamic exponential moment of order ``k``.

    Each family/bin cell averages ``exp(k * remaining exposure)``; the cell
    samples are screened by the paired tail heuristic, and any diverging
    cell makes the whole moment diverged (+inf estimate).
    """
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"moment order must be finite and positive, got {k!r}")
    if _cells is None:
        _cells = _dyn_cells(spec, ensemble, evaluate_mpr(spec, ensemble))

    out_cells: list[BinCell] = []
    judged: list[tuple[DivergenceEvidence, BinCell]] = []
    sup = 0.0
    for c in _cells:
        expo = k * c.samples
        clipped = bool(np.any(expo > 700.0))
        vals = np.exp(np.minimum(expo, 700.0))
        m = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        cell = replace(c, mean=m, se=se, samples=vals)
        out_cells.append(cell)
        sup = max(sup, m)
        if c.count >= MIN_SAMPLES:
            ev = _bin_divergence(vals, edge=c.statistic.endswith("-edge"))
            if clipped:
                ev = replace(ev, diverged=True,
                             reason="exponent overflow: moment beyond double range")
            judged.append((ev, cell))
    # The worst cell: a diverged one before any other, then the largest mean
    # (the first cell wins ties).
    worst_ev, worst = max(judged, key=lambda j: (j[0].diverged, j[1].mean),
                          default=(None, None))
    diverged = worst_ev is not None and worst_ev.diverged
    if worst is None:
        label = None
    elif math.isnan(worst.center):
        label = worst.member
    else:
        label = f"{worst.member} @ {worst.center:.4g}"
    if spec.law.level is not None and not diverged:
        # Deterministic premium: the moment is an analytic value; the grid
        # quadrature only misses the truncation gap next to T.
        sup = math.exp(k * spec.law.level(spec) ** 2 * ensemble.grid.T)
    return DynMoment(
        k=float(k),
        estimate=math.inf if diverged else sup,
        diverged=diverged,
        worst_cell=label,
        evidence=worst_ev,
        cells=out_cells,
    )


@dataclass
class CriticalExponent:
    """Bisection bracket ``[lo, hi]`` for the critical moment order.

    ``infinite`` is set when no probed order up to ``K_MAX`` diverges; the
    probes (order, sup-estimate, diverged) are kept as the moment table.
    """

    lo: float
    hi: float
    infinite: bool
    probes: list[tuple[float, float, bool]]


def critical_exponent(spec: MprSpec, ensemble: PathEnsemble) -> CriticalExponent:
    """Bracket the critical exponential-moment order by bisection.

    Geometric probe ladder from ``K_MIN`` up to ``K_MAX``; on the first
    diverged order, geometric bisection between the last finite and first
    diverged order until the bracket ratio reaches ``STOP_RATIO`` (or
    ``MAX_ITER`` steps - heavy-tail Monte Carlo cannot resolve the threshold
    finer at this scale).  All probes reuse one set of exposure cells, so
    the recorded moment table is exactly monotone in the order.
    """
    fn = evaluate_mpr(spec, ensemble)
    # The critical order is set by the full remaining exposure; later
    # members condition on survival and can only be lighter.  Keeping the
    # t <= T/2 members concentrates the samples where the decision lives and
    # avoids noise-driven flips in near-threshold cells.
    cells = [c for c in _dyn_cells(spec, ensemble, fn)
             if c.time <= ensemble.grid.T / 2.0 + 1e-12]

    probes: dict[float, DynMoment] = {}

    def probe(k: float) -> DynMoment:
        if k not in probes:
            probes[k] = dyn_exp_moment(spec, ensemble, k, _cells=cells)
        return probes[k]

    def table() -> list[tuple[float, float, bool]]:
        # Flags are cumulative (once diverged, stays diverged): the shared
        # cells make means exactly monotone; the flag inherits that order.
        rows, seen = [], False
        for kk, ee, dd in sorted(p.as_row() for p in probes.values()):
            seen = seen or dd
            rows.append((kk, math.inf if seen else ee, seen))
        return rows

    # Geometric ladder up.
    lo = None
    hi = None
    k = K_MIN
    while k <= K_MAX * (1.0 + 1e-12):
        dm = probe(k)
        if dm.diverged:
            hi = k
            break
        lo = k
        k *= 2.0
    if hi is None:
        return CriticalExponent(lo=lo if lo is not None else K_MAX, hi=math.inf,
                                infinite=True, probes=table())
    if lo is None:
        # Even the smallest ladder order diverged; walk down for a floor.
        k = K_MIN / 2.0
        for _ in range(6):
            dm = probe(k)
            if not dm.diverged:
                lo = k
                break
            hi = k
            k /= 2.0
        if lo is None:
            return CriticalExponent(lo=0.0, hi=hi, infinite=False, probes=table())

    # Geometric bisection.
    for _ in range(MAX_ITER):
        if hi / lo <= STOP_RATIO:
            break
        mid = math.sqrt(lo * hi)
        if probe(mid).diverged:
            hi = mid
        else:
            lo = mid
    return CriticalExponent(lo=lo, hi=hi, infinite=False, probes=table())


# ---------------------------------------------------------------------------
# Reverse-Holder check
# ---------------------------------------------------------------------------


@dataclass
class RhCheck:
    """Verdict on the uniform conditional bound of tail density powers.

    ``Bounded`` when the max bin is stable across sample sizes with no
    divergent or growing cells; ``Unbounded`` when the extreme bins grow
    along the conditioning grid, their tails carry divergence evidence, or
    the max bin jumps with the sample size.
    """

    verdict: str
    max_cell: float
    cells: list[BinCell]
    top_evidence: DivergenceEvidence | None
    state_ratio: float
    instability: float
    slope: float | None = None
    slope_rate: float | None = None
    note: str | None = None


def reverse_holder(spec: MprSpec, q: float, ensemble: PathEnsemble) -> RhCheck:
    """Binned conditional reverse-Holder estimates over the stopping family.

    Defined for ``q < 1`` (the classical statement has ``q < 0``; for
    ``q`` in ``(0, 1)`` the same conditional means are bounded by 1 via
    Jensen and the check extends verbatim).  The sample at member ``t`` is
    the tail density power ``exp(-q (I1_T - I1_t) - q/2 (I2_T - I2_t))``,
    conditioned over the stopping family of :func:`_family_cells` with two
    clock-line members after the entry.  Bins hold at least
    ``max(MIN_BIN, n_paths // 50)`` samples.  Three evidence channels feed
    the verdict: growth of extreme bins along the conditioning grid, tail
    divergence of the strongest cell, and stability of the max bin between
    the half and full sample.
    """
    _require_power(q)
    if spec.law.null:
        return RhCheck(verdict="Bounded", max_cell=1.0, cells=[], top_evidence=None,
                       state_ratio=1.0, instability=0.0,
                       note="zero premium: conditional means are exactly 1")
    fn = evaluate_mpr(spec, ensemble)
    min_bin = max(MIN_BIN, ensemble.n_paths // 50)

    def tail_power(k: int) -> np.ndarray:
        r1 = fn.int_lam_dw - fn.node_int_dw[:, k]
        r2 = fn.int_lam2 - fn.node_int2[:, k]
        return np.exp(np.minimum(-q * r1 - 0.5 * q * r2, 700.0))

    cells = _family_cells(spec, ensemble, fn, tail_power, n_late=2,
                          min_bin=min_bin, max_bins=MAX_BINS)
    best = max(cells, key=lambda c: c.mean)

    # (i) tail divergence of the strongest cell.
    top_ev = divergence_verdict(best.samples) if best.count >= MIN_SAMPLES else None
    top_fires = bool(top_ev is not None and top_ev.diverged)

    # (ii) growth along the conditioning-state grid (extreme over median bin,
    # per family member; and the slope test against the law's exposure
    # growth rate, where the state is unbounded).
    state_ratio = 1.0
    slope = slope_rate = None
    members = sorted({c.member for c in cells})
    for member in members:
        mc = sorted((c for c in cells if c.member == member
                     and not math.isnan(c.center)), key=lambda c: c.center)
        if len(mc) < 4:
            continue
        means = np.array([c.mean for c in mc])
        med = float(np.median(means))
        if med > 0.0:
            edge = max(means[0], means[-1])
            state_ratio = max(state_ratio, edge / med)
        if spec.law.growth is not None:
            t = mc[0].time
            fit = _abs_state_slope(mc, transform=np.log)
            rate = -q * spec.law.growth(spec, t) / 2.0 * (1.0 - SLOPE_TOL)
            if slope is None or fit["slope"] > slope:
                slope, slope_rate = fit["slope"], rate
    slope_fires = bool(slope is not None and slope >= slope_rate > 0.0)

    # (iii) stability of the max bin across sample sizes.
    half = best.samples[: best.count // 2]
    half_mean = float(np.mean(half)) if half.size else best.mean
    instability = abs(best.mean / half_mean - 1.0) if half_mean > 0.0 else math.inf
    unstable = instability > STABILITY_TOL

    fires = top_fires or slope_fires or state_ratio >= STATE_GROWTH_RATIO or unstable
    notes = []
    if top_fires:
        notes.append("strongest cell carries tail divergence evidence")
    if slope_fires:
        notes.append(
            f"log bin means grow with slope {slope:.3f} >= {slope_rate:.3f} "
            "along an unbounded state"
        )
    if state_ratio >= STATE_GROWTH_RATIO:
        notes.append(f"extreme/median bin ratio {state_ratio:.2f}")
    if unstable:
        notes.append(f"max bin moved {instability:.0%} between half and full sample")
    return RhCheck(
        verdict="Unbounded" if fires else "Bounded",
        max_cell=best.mean,
        cells=cells,
        top_evidence=top_ev,
        state_ratio=state_ratio,
        instability=instability,
        slope=slope,
        slope_rate=slope_rate,
        note="; ".join(notes) if notes else None,
    )


# ---------------------------------------------------------------------------
# A priori bounds for q in [0, 1)
# ---------------------------------------------------------------------------


@dataclass
class AprioriCheck:
    """Whole-path bound check ``lower_k <= mean Psi_k <= upper``.

    Upper: ``-(1/g) log(1 - g ||eta||^2)`` with ``g = max(1, gamma)`` and
    ``||eta||^2`` the driver's quadratic-growth share of the (family-
    restricted) squared BMO norm.  Lower: ``-q/(2(1-q))`` times the mean
    remaining exposure (conditional Jensen, averaged).  Skipped when the
    smallness condition ``g ||eta||^2 < 1`` fails.
    """

    status: str  # "pass" | "fail" | "skipped"
    gamma_tilde: float
    eta_sq: float
    upper: float
    nodes: np.ndarray | None
    psi_curve: np.ndarray | None
    lower_curve: np.ndarray | None
    max_upper_violation: float
    max_lower_violation: float
    note: str | None = None


def apriori_bound(spec: MprSpec, q: float, ensemble: PathEnsemble) -> AprioriCheck:
    """A priori solution bounds for exposure powers ``q`` in ``[0, 1)``.

    The driver's growth bound splits as ``|F| <= eta_t^2 + (gamma/2) z^2``
    with ``eta_t^2 = C_q lambda_t^2``; John-Nirenberg then caps the solution
    whenever ``gamma~ ||eta||^2 < 1``.  The whole-path regression curve must
    sit below that cap and above the conditional-Jensen floor.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"a priori bounds cover q in [0, 1), got {q!r}")
    if q == 0.0:
        return AprioriCheck(
            status="pass", gamma_tilde=1.0, eta_sq=0.0, upper=0.0,
            nodes=None, psi_curve=None, lower_curve=None,
            max_upper_violation=0.0, max_lower_violation=0.0,
            note="q=0: the solution is exactly zero and both bounds are 0",
        )
    eps0 = default_eps0(q)
    c_q = 0.5 * max(q * (q - eps0) / eps0, q / (1.0 - q))
    gamma = 1.0 - q + eps0
    gamma_tilde = max(1.0, gamma)
    nrm = bmo_norm(spec, ensemble)
    eta_sq = c_q * nrm.estimate
    if not gamma_tilde * eta_sq < 1.0:
        return AprioriCheck(
            status="skipped", gamma_tilde=gamma_tilde, eta_sq=eta_sq,
            upper=math.inf, nodes=None, psi_curve=None, lower_curve=None,
            max_upper_violation=math.nan, max_lower_violation=math.nan,
            note="smallness condition fails: gamma~ * ||eta||^2 >= 1",
        )
    upper = -math.log(1.0 - gamma_tilde * eta_sq) / gamma_tilde

    triple = psi_path(spec, q, ensemble)
    psi_curve = triple.psi.mean(axis=0)
    se_curve = triple.psi.std(axis=0, ddof=1) / math.sqrt(ensemble.n_paths)
    fn = evaluate_mpr(spec, ensemble)
    remaining = np.mean(fn.int_lam2) - fn.node_int2.mean(axis=0)
    lower_curve = -q / (2.0 * (1.0 - q)) * remaining

    span = max(float(np.ptp(psi_curve)), float(np.ptp(lower_curve)), 1e-3)
    slack = 0.02 * span + 3.0 * se_curve
    up_viol = float(np.max(psi_curve - (upper + slack)))
    lo_viol = float(np.max((lower_curve - slack) - psi_curve))
    status = "pass" if max(up_viol, lo_viol) <= 0.0 else "fail"
    return AprioriCheck(
        status=status, gamma_tilde=gamma_tilde, eta_sq=eta_sq, upper=upper,
        nodes=ensemble.grid.nodes.copy(), psi_curve=psi_curve,
        lower_curve=lower_curve, max_upper_violation=up_viol,
        max_lower_violation=lo_viol,
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass
class Classification:
    """Solution-regime verdict with its named evidence trail."""

    verdict: str
    evidence: list[dict]
    k_q: float | None
    exponent_interval: tuple[float, float] | None
    threshold_side: str | None
    spec_record: dict
    q: float

    def __post_init__(self) -> None:
        if self.verdict not in (BOUNDED, UNBOUNDED, NO_SOLUTION):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_json_record(self) -> dict:
        lo_hi = None
        if self.exponent_interval is not None:
            lo, hi = self.exponent_interval
            lo_hi = [lo, "inf" if math.isinf(hi) else hi]
        return {
            "spec": self.spec_record,
            "q": self.q,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "k_q": self.k_q,
            "exponent_interval": lo_hi,
            "threshold_side": self.threshold_side,
        }


def _profile_growth(spec: MprSpec, q: float) -> tuple[bool, dict]:
    """Midpoint conditional-mean growth across a symmetric state grid.

    Compares ``exp((1-q) Psi_{T/2})`` at the grid edges against the median
    state; a diverged edge state or an edge/median ratio past the growth
    threshold is unboundedness evidence.  The profile is
    :func:`~qbsde.solver.psi_conditional_profile`'s exact one, so the
    verdict depends on the construction alone, never on a draw.
    """
    grid = np.array([-2.5, -1.25, 0.0, 1.25, 2.5]) * math.sqrt(spec.T / 2.0)
    estimates = psi_conditional_profile(spec, q, grid)
    # A diverged state's estimate is +inf, and so is its conditional mean.
    inner = [math.exp((1.0 - q) * est.estimate) for est in estimates]
    any_diverged = any(est.diverged for est in estimates)
    med = float(np.median([v for v in inner if math.isfinite(v)] or [1.0]))
    edge = max(inner[0], inner[-1])
    ratio = math.inf if math.isinf(edge) else (edge / med if med > 0 else math.inf)
    fires = any_diverged or ratio >= STATE_GROWTH_RATIO
    return fires, {
        "states": [float(s) for s in grid],
        "inner_means": ["inf" if math.isinf(v) else v for v in inner],
        "edge_over_median": "inf" if math.isinf(ratio) else ratio,
        "diverged_state": any_diverged,
    }


def classify(
    spec: MprSpec,
    q: float,
    ensemble: PathEnsemble,
    *,
    with_exponent: bool = True,
) -> Classification:
    """Classify the (spec, q) pair into the three solution regimes.

    ``NoSolution`` exactly when the unconditional summand mean carries a
    divergence verdict; otherwise ``Bounded``/``Unbounded`` per the
    reverse-Holder check plus midpoint conditional growth, with a kind that
    has a construction certificate (the scaled family) decided by it when
    the ambient ``q`` matches the spec's own (moment estimation cannot
    separate the critical boundary case - the certificate can).
    """
    _require_power(q)
    evidence: list[dict] = []
    est = psi_unconditional(spec, q, ensemble)
    ev = est.evidence
    evidence.append({
        "test": "summand-divergence",
        "outcome": "diverged" if est.diverged else "finite",
        "detail": None if ev is None else
        {"hill": ev.hill if math.isfinite(ev.hill) else "inf",
         "growth": ev.growth if math.isfinite(ev.growth) else "inf"},
    })

    k_q = kq_threshold(q) if q < 0.0 else None
    exponent = None
    side = None
    if with_exponent:
        ce = critical_exponent(spec, ensemble)
        exponent = (ce.lo, math.inf if ce.infinite else ce.hi)
        if k_q is not None:
            if exponent[1] < k_q:
                side = "below k_q"
            elif exponent[0] > k_q:
                side = "above k_q"
            else:
                side = "straddles k_q"
        evidence.append({
            "test": "critical-exponent",
            "outcome": "infinite" if ce.infinite else f"[{ce.lo:.4g}, {ce.hi:.4g}]",
            "detail": {"side_of_k_q": side},
        })

    def verdict(v: str) -> Classification:
        return Classification(
            verdict=v, evidence=evidence, k_q=k_q, exponent_interval=exponent,
            threshold_side=side, spec_record=_spec_record(spec), q=q)

    if est.diverged:
        return verdict(NO_SOLUTION)

    rh = reverse_holder(spec, q, ensemble)
    evidence.append({
        "test": "reverse-holder",
        "outcome": rh.verdict,
        "detail": {"max_cell": rh.max_cell, "state_ratio": rh.state_ratio,
                   "instability": rh.instability, "note": rh.note},
    })

    if spec.law.certificate is not None and spec.q == q:
        order = scaled_tilted_order(spec)
        certified_bounded = order < 1.0
        evidence.append({
            "test": "construction-certificate",
            "outcome": "bounded" if certified_bounded else "unbounded",
            "detail": {"tilted_order": order},
        })
        return verdict(BOUNDED if certified_bounded else UNBOUNDED)

    grows = False
    if spec.law.entry is not None:
        grows, detail = _profile_growth(spec, q)
        evidence.append({
            "test": "midpoint-conditional-growth",
            "outcome": "growing" if grows else "stable",
            "detail": detail,
        })

    return verdict(UNBOUNDED if (rh.verdict == "Unbounded" or grows) else BOUNDED)
