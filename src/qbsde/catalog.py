"""Catalog of market-price-of-risk processes and their path functionals.

Every catalog entry is described by a frozen :class:`MprSpec` and evaluated
against a path ensemble into an :class:`MprFunctionals`: the terminal (and
optionally per-node) values of ``integral lambda dW`` and
``integral lambda^2 dt``, plus whatever conditioning state the construction
carries (the midpoint path value, the arccos-transformed scale ``alpha``,
the density-sampled cut time ``sigma``, clock exit data).

Kinds
-----
``zero``
    No risk premium; every functional vanishes.
``constant``
    Constant level; closed forms exist for every downstream quantity.
``reverting``
    ``lambda_t = -sign(W_t) * sqrt(|W_t|)``: mean-reverting, unbounded, with
    pathwise-bounded increments of exposure but no BMO bound.
``nosol``
    Deterministic scale ``pi / (2 sqrt(-q (T-t)))`` switched on at ``T/2``
    and killed at the clock exit: total exposure is exactly critical, so the
    relevant exponential moment is infinite for the target power.
``alpha_arccos``
    Same construction scaled per path by ``alpha in [0, 1)``, an arccos
    transform of the midpoint state: solvable but with unbounded solution.
``sigma_gamma``
    The critical scale additionally cut at a time ``sigma`` sampled from a
    smooth terminal-concentrated density: every exponential moment of the
    exposure is finite yet the solution is still unbounded.
``tilde``
    Drifted-clock variant ``pi alpha / sqrt(8 (T-t))`` killed when the clock
    line ``B_u + b * (pi alpha / sqrt(8)) u`` leaves (-1, 1); the combined
    integral ``integral lambda (dW + b lambda dt)`` is pathwise bounded.
``scaled``
    ``(1/a)`` times the ``tilde`` entry — the family whose parameter modes
    witness both sides of the sharp moment threshold.

All singular integrands are evaluated in the logarithmic clock, never summed
on the raw time grid.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import integrate, special

from qbsde.core import (
    ClockExits,
    PathEnsemble,
    _array_key,
    _memoized,
    ito_integral,
    simulate_two_sided_exit,
)

__all__ = [
    "KINDS",
    "TRAITS",
    "KindTraits",
    "MprSpec",
    "MprFunctionals",
    "SigmaSampler",
    "mpr_zero",
    "mpr_constant",
    "mpr_reverting",
    "mpr_nosol",
    "mpr_alpha_arccos",
    "mpr_sigma_gamma",
    "mpr_tilde",
    "mpr_scaled",
    "scaled_params",
    "alpha_from_w_half",
    "clock_coefficients",
    "lambda_at_nodes",
    "evaluate_mpr",
    "kq_threshold",
]


@dataclass(frozen=True)
class KindTraits:
    """The facts about one catalog kind that more than one module reads.

    ``fields`` names the spec fields the kind requires; ``clock`` is set when
    the exposure lives in the exposure clock after ``T/2`` rather than on the
    time grid; ``entry`` is the midpoint statistic conditioning the
    construction, as ``(MprFunctionals attribute, label)``, or ``None``;
    ``drifted`` marks the drifted-clock kinds; ``bounded`` marks a
    pathwise-bounded quadratic exposure.
    """

    fields: tuple[str, ...]
    clock: bool
    entry: tuple[str, str] | None
    drifted: bool
    bounded: bool


_ARCCOS = ("alpha", "arccos-scale")
_CUT = ("u_sigma", "cut-clock")

TRAITS: dict[str, KindTraits] = {
    # kind                     fields           clock  entry     drifted bounded
    "zero": KindTraits(        (),              False, None,     False,  True),
    "constant": KindTraits(    ("level",),      False, None,     False,  True),
    "reverting": KindTraits(   (),              False, None,     False,  False),
    "nosol": KindTraits(       ("q",),          True,  None,     False,  False),
    "alpha_arccos": KindTraits(("q",),          True,  _ARCCOS,  False,  False),
    "sigma_gamma": KindTraits( ("q",),          True,  _CUT,     False,  False),
    "tilde": KindTraits(       ("b",),          True,  _ARCCOS,  True,   False),
    "scaled": KindTraits(      ("q", "a", "b"), True,  _ARCCOS,  True,   False),
}

KINDS = tuple(TRAITS)


def kq_threshold(q: float) -> float:
    """Sharp dynamic exponential-moment threshold ``(q - sqrt(q^2 - q))^2 / 2``.

    For exposure orders strictly above this value there is a BMO risk premium
    whose solution is unbounded; strictly below it every such premium yields
    a bounded solution.  Defined for ``q < 0``.
    """
    if not q < 0.0:
        raise ValueError(f"threshold defined for q < 0, got {q!r}")
    return 0.5 * (q - math.sqrt(q * q - q)) ** 2


@dataclass(frozen=True)
class MprSpec:
    """Immutable description of one market-price-of-risk process."""

    kind: str
    T: float = 1.0
    q: float | None = None
    level: float | None = None
    a: float | None = None
    b: float | None = None
    c_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be finite and positive, got {self.T!r}")
        if not (math.isfinite(self.c_scale)):
            raise ValueError(f"c_scale must be finite, got {self.c_scale!r}")
        fields = TRAITS[self.kind].fields
        if "q" in fields:
            if self.q is None or not (math.isfinite(self.q) and self.q < 0.0):
                raise ValueError(f"kind {self.kind!r} requires q < 0, got {self.q!r}")
        if "level" in fields:
            if self.level is None or not math.isfinite(self.level):
                raise ValueError("constant kind requires a finite level")
        if "b" in fields:
            if self.b is None or not math.isfinite(self.b):
                raise ValueError(f"kind {self.kind!r} requires a finite drift slope b")
        if "a" in fields:
            if self.a is None or not (math.isfinite(self.a) and self.a > 0.0):
                raise ValueError(f"scaled kind requires a > 0, got {self.a!r}")

    def with_scale(self, c_scale: float) -> "MprSpec":
        return replace(self, c_scale=float(c_scale))


def mpr_zero(T: float = 1.0) -> MprSpec:
    return MprSpec(kind="zero", T=T)


def mpr_constant(level: float, T: float = 1.0) -> MprSpec:
    return MprSpec(kind="constant", T=T, level=float(level))


def mpr_reverting() -> MprSpec:
    return MprSpec(kind="reverting")


def mpr_nosol(q: float) -> MprSpec:
    return MprSpec(kind="nosol", q=float(q))


def mpr_alpha_arccos(q: float) -> MprSpec:
    return MprSpec(kind="alpha_arccos", q=float(q))


def mpr_sigma_gamma(q: float) -> MprSpec:
    return MprSpec(kind="sigma_gamma", q=float(q))


def mpr_tilde(b: float) -> MprSpec:
    return MprSpec(kind="tilde", b=float(b))


def mpr_scaled(q: float, a: float, b: float) -> MprSpec:
    return MprSpec(kind="scaled", q=float(q), a=float(a), b=float(b))


def scaled_params(q: float, k: float | None = None, *, mode: str) -> tuple[float, float]:
    """Solve the scaled-family parameters ``(a, b)`` for a target regime.

    ``mode`` is keyword-required and names the regime.  ``mode="below"``:
    the scaled premium's moment threshold strictly exceeds ``k`` (which must
    satisfy ``k < kq_threshold(q)``) while the solution is unbounded — the
    below-threshold witness.  The tilted exposure order then lands exactly
    at its own critical value (``q b / a - q / (2 a^2) - b^2 / 2 = 1``).

    ``mode="critical"`` (``k`` is not read): the moment threshold equals
    ``kq_threshold(q)`` exactly (``kq/a^2 - b^2/2 = 1``) with a bounded
    solution — the boundary witness certificate.
    """
    if not q < 0.0:
        raise ValueError(f"scaled params require q < 0, got {q!r}")
    kq = kq_threshold(q)
    if mode == "below":
        if k is None:
            raise ValueError("mode 'below' requires a target order k")
        if not 0.0 < k < kq:
            raise ValueError(f"target k must lie in (0, kq={kq!r}), got {k!r}")
        s_k = (k - (q * q - q / 2.0)) / (-q)
        a_max_sq = (q * q - q - s_k * s_k) / 2.0 if s_k > 0.0 else (q * q - q) / 2.0
        a = math.sqrt(a_max_sq / 2.0)
        root = math.sqrt(q * q - q - 2.0 * a * a)
        b = (q - root) / a
        threshold = q * q - q / 2.0 + (-q) * root
        if not threshold > k:
            raise AssertionError("scaled parameter solve failed the threshold check")
        return a, b
    if mode == "critical":
        a = math.sqrt(kq) / 2.0
        b = math.sqrt(2.0 * kq / (a * a) - 2.0)
        return a, b
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# The sigma sampler
# ---------------------------------------------------------------------------


#: Distinct midpoint-state vectors whose cut :meth:`SigmaSampler.from_w_half`
#: keeps: one Table 2 seed's ensemble and profile grid, for two seeds.
SIGMA_MEMO_SIZE = 4

_sigma_memo: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()


class SigmaSampler:
    """Sampler for the terminal-concentrated cut time ``sigma``.

    The cut time has density ``f(s) = c0 * exp(-1/(T-s))`` on ``(T/2, T)``;
    the normalizer ``c0`` is computed by adaptive quadrature of the
    substituted integrand ``u^-2 exp(-u)`` on ``[2/T, inf)`` (truncated where
    the integrand tail drops below 1e-14, relative tolerance 1e-10), and the
    inverse CDF is resolved by bisection to 1e-12 in the time variable.
    Sampling maps the midpoint state through the Gaussian CDF (a uniform
    variate by the probability integral transform) and inverts.
    """

    def __init__(self, T: float = 1.0):
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"T must be finite and positive, got {T!r}")
        self.T = float(T)
        self.y_lo = 2.0 / self.T

    @staticmethod
    def _integrand(u: float) -> float:
        return math.exp(-u) / (u * u)

    @cached_property
    def c0(self) -> float:
        upper = max(self.y_lo * 2.0, 4.0)
        while self._integrand(upper) >= 1e-14:
            upper *= 2.0
        value, _ = integrate.quad(
            self._integrand, self.y_lo, upper, epsrel=1e-10, limit=200
        )
        return 1.0 / value

    def _tail(self, y: np.ndarray | float) -> np.ndarray | float:
        """``integral_y^inf u^-2 exp(-u) du`` via the exponential integral."""
        return special.expn(2, y) / y

    def cdf(self, s: np.ndarray | float) -> np.ndarray | float:
        """CDF of ``sigma`` on ``(T/2, T)``."""
        s = np.asarray(s, dtype=np.float64)
        if np.any(s <= self.T / 2.0) or np.any(s >= self.T):
            raise ValueError("sigma CDF domain is (T/2, T)")
        return 1.0 - self.c0 * self._tail(1.0 / (self.T - s))

    def inverse_cdf(self, u: np.ndarray | float) -> np.ndarray:
        """Inverse CDF by bisection, resolved to 1e-12 in the time variable."""
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        if np.any((u < 0.0) | (u > 1.0)):
            raise ValueError("uniform variates must lie in [0, 1]")
        target = (1.0 - np.clip(u, 0.0, 1.0 - 1e-16)) / self.c0
        lo = np.full(u.shape, self.y_lo)
        hi = np.full(u.shape, max(2.0 * self.y_lo, 4.0))
        # Expand until the tail at hi is below every target.
        while np.any(self._tail(hi) > target):
            hi = np.where(self._tail(hi) > target, hi * 2.0, hi)
        # Bisect in y = 1/(T-s); |ds| = |dy|/y^2 <= |dy| * (T/2)^2 / ... is
        # controlled by iterating until the s-bracket closes below 1e-12.
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            too_high = self._tail(mid) > target  # tail decreasing: move right
            lo = np.where(too_high, mid, lo)
            hi = np.where(too_high, hi, mid)
            s_width = np.max(1.0 / lo - 1.0 / hi)
            if s_width < 1e-12:
                break
        y = 0.5 * (lo + hi)
        return self.T - 1.0 / y

    def from_w_half(self, w_half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map midpoint states to ``(sigma, u_sigma)``.

        ``u_sigma = log((T/2)/(T - sigma))`` is the clock image of the cut.
        Every ``sigma_gamma`` functional and cut-kind profile of an ensemble
        maps the same states, so the last :data:`SIGMA_MEMO_SIZE` results are
        memoized on ``T`` and the states' float64 bytes, like the two-sided
        exits; a repeat returns the same read-only arrays.
        """
        key = (self.T, _array_key(w_half))
        return _memoized(_sigma_memo, SIGMA_MEMO_SIZE, key, lambda: self._cut(w_half))

    def _cut(self, w_half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = special.ndtr(np.sqrt(2.0 / self.T) * np.asarray(w_half, np.float64))
        sigma = self.inverse_cdf(u)
        u_sigma = np.log((self.T / 2.0) / (self.T - sigma))
        return sigma, u_sigma


def alpha_from_w_half(w_half: np.ndarray, T: float) -> np.ndarray:
    """Arccos-transformed per-path scale in ``[0, 1)``.

    ``alpha = (2/pi) arccos(sqrt(Phi(sqrt(2/T) W_{T/2})))`` — an
    ``F_{T/2}``-measurable deterministic map of the midpoint state.
    """
    phi = special.ndtr(np.sqrt(2.0 / T) * np.asarray(w_half, np.float64))
    return (2.0 / math.pi) * np.arccos(np.sqrt(phi))


def clock_coefficients(
    spec: MprSpec, alpha: float | np.ndarray = 1.0
) -> tuple[float | np.ndarray, float | np.ndarray | None]:
    """Clock coefficient and clock drift ``(coeff, drift)`` of a clock kind.

    In the exposure clock ``integral lambda dW = coeff * B_H`` and
    ``integral lambda^2 dt = coeff^2 * H`` for the premium scaled by the
    spec's ``c_scale``, with ``alpha`` the arccos scale (1 for the unscaled
    kinds).  The drifted kinds' clock line carries the drift
    ``b * pi alpha / sqrt(8)``, which the premium scale leaves alone; the
    other kinds return ``drift = None``.
    """
    cs = spec.c_scale
    if not TRAITS[spec.kind].drifted:
        return cs * math.pi * alpha / (2.0 * math.sqrt(-spec.q)), None
    unit_coeff = math.pi * alpha / math.sqrt(8.0)
    coeff = unit_coeff / spec.a if spec.kind == "scaled" else unit_coeff
    return cs * coeff, spec.b * unit_coeff


def lambda_at_nodes(spec: MprSpec, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path values of the scaled risk premium at the grid nodes.

    Only the grid-resident kinds have a meaningful pointwise value on the
    time grid; the clock constructions are singular at the horizon and all
    of their integrals are computed in the clock, so asking for node values
    is rejected rather than silently aliased.
    """
    grid = ensemble.grid
    n = ensemble.n_paths
    if spec.kind == "zero":
        return np.zeros((n, grid.n_nodes))
    if spec.kind == "constant":
        return np.full((n, grid.n_nodes), spec.c_scale * spec.level)
    if spec.kind == "reverting":
        w = ensemble.wiener
        return spec.c_scale * (-np.sign(w) * np.sqrt(np.abs(w)))
    raise ValueError(
        f"kind {spec.kind!r} has no grid-resident pointwise values; its "
        "integrals live in the exposure clock"
    )


# ---------------------------------------------------------------------------
# Evaluated functionals
# ---------------------------------------------------------------------------


@dataclass
class MprFunctionals:
    """Path functionals of one spec along one ensemble.

    ``int_lam_dw`` and ``int_lam2`` are the terminal values of
    ``integral lambda dW`` (physical-measure Brownian) and
    ``integral lambda^2 dt`` for the premium scaled by the spec's
    ``c_scale``, and so are the node tracks.
    For clock-driven kinds the exposure dies at clock time ``u_kill`` (exit,
    cut, or censoring); ``clock`` is the two-sided exit it was read from
    (its ``x_exit`` the clock-line state at ``u_kill``), and
    :func:`clock_coefficients` gives the coefficient and drift that map the
    clock onto the exposure.  ``alpha`` / ``u_sigma`` carry the midpoint
    conditioning.  When built with ``need_nodes=True``, ``node_int_dw`` /
    ``node_int2`` hold cumulative integrals at every grid node (zeros before
    the construction switches on).
    """

    spec: MprSpec
    ensemble: PathEnsemble
    int_lam_dw: np.ndarray
    int_lam2: np.ndarray
    alpha: np.ndarray | None = None
    u_sigma: np.ndarray | None = None
    u_kill: np.ndarray | None = None
    clock: ClockExits | None = None
    node_int_dw: np.ndarray | None = None
    node_int2: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.ensemble.n_paths

    def summand_power(self, q: float) -> np.ndarray:
        """Per-path ``E(-lambda . W)_T ** q`` summands.

        These are the Monte Carlo summands whose mean is the unconditional
        exponential functional deciding solvability.
        """
        return np.exp(-q * self.int_lam_dw - 0.5 * q * self.int_lam2)


def evaluate_mpr(
    spec: MprSpec,
    ensemble: PathEnsemble,
    *,
    need_nodes: bool = False,
) -> MprFunctionals:
    """Evaluate a catalog spec along an ensemble.

    Grid-resident kinds (``zero`` among them) integrate on the time grid;
    clock kinds run the
    bridge-corrected clock engine on an independent stream keyed by the
    ensemble seed (legitimate because the post-midpoint driver increments
    are independent of the midpoint state, whose functionals ``alpha`` /
    ``sigma`` are computed from the stored ensemble bit-exactly).  The
    undrifted, uncut kinds read the ensemble's shared
    :attr:`~qbsde.core.PathEnsemble.clock_exit`.
    """
    if spec.T != ensemble.grid.T:
        raise ValueError(
            f"spec horizon T={spec.T!r} does not match grid T={ensemble.grid.T!r}"
        )
    grid = ensemble.grid
    w_half = ensemble.w_half
    n = ensemble.n_paths

    if not TRAITS[spec.kind].clock:
        pf = ito_integral(ensemble, lambda_at_nodes(spec, ensemble)[:, :-1])
        return MprFunctionals(
            spec=spec,
            ensemble=ensemble,
            int_lam_dw=pf.terminal_int_dw,
            int_lam2=pf.terminal_quad_var,
            node_int_dw=pf.int_dw if need_nodes else None,
            node_int2=pf.quad_var if need_nodes else None,
        )

    # --- clock kinds ------------------------------------------------------
    checkpoints = grid.clock_nodes if need_nodes else None
    entry = TRAITS[spec.kind].entry
    alpha = alpha_from_w_half(w_half, grid.T) if entry == _ARCCOS else None
    u_sigma = None
    if entry == _CUT:
        _, u_sigma = SigmaSampler(grid.T).from_w_half(w_half)
    coeff, drift = clock_coefficients(spec, 1.0 if alpha is None else alpha)
    if alpha is None:
        coeff = np.full(n, coeff)

    if u_sigma is not None:
        exits = simulate_two_sided_exit(
            n,
            u_max=grid.clock_depth,
            seed=ensemble.seed,
            stream=("hit-cut",),
            stop_u=u_sigma,
            checkpoints=checkpoints,
        )
    elif drift is not None:
        exits = simulate_two_sided_exit(
            n,
            u_max=grid.clock_depth,
            seed=ensemble.seed,
            stream=("hit-drift", spec.b),
            drift=drift,
            checkpoints=checkpoints,
        )
    else:
        exits = ensemble.clock_exit

    u_kill = exits.u_exit
    # Brownian-part state at the kill time: the engine's state minus the
    # deterministic drift accrued up to it.
    bm_state = exits.x_exit - (drift * u_kill if drift is not None else 0.0)
    int_lam_dw = coeff * bm_state
    int_lam2 = coeff * coeff * u_kill

    node_int_dw = node_int2 = None
    if need_nodes:
        node_int_dw = np.zeros((n, grid.n_nodes))
        node_int2 = np.zeros((n, grid.n_nodes))
        u_at = np.minimum(checkpoints[:, None], u_kill[None, :])
        bm_at = exits.ckpt_pos - (drift[None, :] * u_at if drift is not None else 0.0)
        first_late = grid.half_index + 1
        node_int_dw[:, first_late:] = coeff[:, None] * bm_at.T
        node_int2[:, first_late:] = (coeff[:, None] ** 2) * u_at.T

    return MprFunctionals(
        spec=spec,
        ensemble=ensemble,
        int_lam_dw=int_lam_dw,
        int_lam2=int_lam2,
        alpha=alpha,
        u_sigma=u_sigma,
        u_kill=u_kill,
        clock=exits,
        node_int_dw=node_int_dw,
        node_int2=node_int2,
    )


def _checked_functionals(
    spec: MprSpec,
    ensemble: PathEnsemble,
    functionals: MprFunctionals | None,
    *,
    need_nodes: bool = True,
) -> MprFunctionals:
    """``functionals`` if they were evaluated for ``(spec, ensemble)``.

    ``None`` evaluates them here.  Functionals of another spec or another
    ensemble raise ``ValueError`` rather than answer for the wrong
    construction.
    """
    if functionals is None:
        return evaluate_mpr(spec, ensemble, need_nodes=need_nodes)
    if functionals.spec != spec or functionals.ensemble is not ensemble:
        raise ValueError("functionals were evaluated for another spec or ensemble; "
                         "pass those of (spec, ensemble) or None")
    return functionals
