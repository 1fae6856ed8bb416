"""Catalog of market-price-of-risk processes and their path functionals.

Every catalog entry is described by a frozen :class:`MprSpec` and evaluated
against a path ensemble into an :class:`MprFunctionals`: the terminal and
per-node values of ``integral lambda dW`` and
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

Every formula that depends on the kind is in that kind's law,
``TRAITS[kind]`` (``spec.law``); other modules call the law's formulas and
never test a kind's name.  All singular integrands are evaluated in the
logarithmic clock, never summed on the raw time grid: :func:`evaluate_mpr`
reads the ensemble's clock from ``_clock_exits`` through the exposure map
``_exposure``, and :func:`~qbsde.solver.psi_conditional_profile` takes the
clock's exit moment in closed form from ``_log_exit_moment``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from qbsde import _special
from qbsde.core import (
    ClockExits,
    PathEnsemble,
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


#: Each optional spec field's rule where a kind reads it: ``(test, need)``.
_FIELD_RULES: dict[str, tuple[Callable[[float], bool], str]] = {
    "q": (lambda v: v < 0.0, "q < 0"),
    "level": (lambda v: True, "a level"),
    "a": (lambda v: v > 0.0, "both a and b, with a > 0"),
    "b": (lambda v: True, "the drift offset b"),
}


@dataclass(frozen=True)
class KindTraits:
    """One catalog kind's law: every formula that depends on the kind.

    ``fields``: the spec fields the kind reads.  ``level(spec)``: a
    deterministic premium, ``c_scale`` times its value; ``premium(spec,
    ensemble)``: another grid kind's scaled premium at the grid nodes.
    ``coeff`` and ``drift(spec, alpha)``: a clock kind's clock map (see
    :func:`clock_coefficients`); ``entry``: its midpoint statistic, as
    ``(MprFunctionals attribute, label)``.  ``growth(spec, t)``: the slope
    in ``|W_t|`` of the scaled premium's remaining exposure on an unbounded
    state.
    ``certificate(spec)``: the tilted exposure order that decides the
    construction at its own ``q``.  ``profile_bound(spec, q, w)``: an
    analytic lower bound of the midpoint profile, or ``None``.  A formula
    the kind lacks is ``None``; the flags say which formulas it has.
    """

    fields: tuple[str, ...]
    premium: Callable | None = None
    level: Callable | None = None
    coeff: Callable | None = None
    drift: Callable | None = None
    entry: tuple[str, str] | None = None
    growth: Callable | None = None
    certificate: Callable | None = None
    profile_bound: Callable | None = None

    @property
    def clock(self) -> bool:  # the exposure lives in the clock after T/2
        return self.coeff is not None

    @property
    def drifted(self) -> bool:
        return self.drift is not None

    @property
    def bounded(self) -> bool:  # pathwise-bounded quadratic exposure
        return self.level is not None

    @property
    def null(self) -> bool:  # no premium: every functional vanishes
        return self.level is _zero_level

    def field_problem(self, value_of: Callable) -> tuple[str, str] | None:
        """The first optional spec field ``value_of(name)`` sets wrongly, and why.

        A field the kind reads must be set, finite and meet its rule; the
        others stay unset, except ``q``, which is also the classify power.
        """
        for name, (test, need) in _FIELD_RULES.items():
            value = value_of(name)
            if name in self.fields:
                if value is None or not (math.isfinite(value) and test(value)):
                    return name, f"needs {need}, got {name}={value!r}"
            elif value is not None and name != "q":
                return name, f"does not read {name}"
        return None


def _zero_level(spec: MprSpec) -> float:
    return 0.0


def _critical_coeff(spec: MprSpec, alpha):
    return spec.c_scale * math.pi * alpha / (2.0 * math.sqrt(-spec.q))


def _line_unit(alpha):
    return math.pi * alpha / math.sqrt(8.0)


def _arccos_bound(spec: MprSpec, q: float, w: np.ndarray) -> np.ndarray | None:
    # The cosine law at unit scale and the spec's own q; no bound elsewhere.
    if spec.c_scale != 1.0 or q != spec.q:
        return None
    return (-math.pi * math.sqrt(-q) / 2.0
            - 0.5 * _special.log_ndtr(math.sqrt(2.0 / spec.T) * w)) / (1.0 - q)


_ARCCOS = ("alpha", "arccos-scale")
_CUT = ("u_sigma", "cut-clock")

TRAITS: dict[str, KindTraits] = {
    "zero": KindTraits((), level=_zero_level),
    "constant": KindTraits(("level",), level=lambda spec: spec.c_scale * spec.level),
    "reverting": KindTraits(
        (), premium=lambda spec, ens: spec.c_scale * (
            -np.sign(ens.wiener) * np.sqrt(np.abs(ens.wiener))),
        # c^2 E[int_t^T |W_s| ds | W_t = w] grows like c^2 (T - t) |w|.
        growth=lambda spec, t: spec.c_scale**2 * (spec.T - t)),
    "nosol": KindTraits(("q",), coeff=_critical_coeff),
    "alpha_arccos": KindTraits(
        ("q",), coeff=_critical_coeff, entry=_ARCCOS, profile_bound=_arccos_bound),
    "sigma_gamma": KindTraits(("q",), coeff=_critical_coeff, entry=_CUT),
    "tilde": KindTraits(
        ("b",), coeff=lambda spec, alpha: spec.c_scale * _line_unit(alpha),
        drift=lambda spec, alpha: spec.b * _line_unit(alpha), entry=_ARCCOS),
    "scaled": KindTraits(
        ("q", "a", "b"),
        coeff=lambda spec, alpha: spec.c_scale * (_line_unit(alpha) / spec.a),
        drift=lambda spec, alpha: spec.b * _line_unit(alpha), entry=_ARCCOS,
        certificate=lambda spec: spec.q * spec.b / spec.a
        - spec.q / (2.0 * spec.a * spec.a) - 0.5 * spec.b * spec.b),
}

KINDS = tuple(TRAITS)


def kq_threshold(q: float) -> float:
    """Sharp dynamic exponential-moment threshold ``(q - sqrt(q^2 - q))^2 / 2``.

    For exposure orders strictly above this value there is a BMO risk premium
    whose solution is unbounded; strictly below it every such premium yields
    a bounded solution.  Defined for finite ``q < 0`` with a finite
    ``q^2 - q``, the domain of :func:`~qbsde.bmo.kq_numeric`; from about
    ``q = -6.7e153`` on the threshold itself is ``inf``.
    """
    if not (-math.inf < q < 0.0 and math.isfinite(q * q - q)):
        raise ValueError(f"threshold defined for finite q < 0 with a finite "
                         f"q^2 - q, got {q!r}")
    d = q - math.sqrt(q * q - q)
    return 0.5 * (d * d)


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
        problem = self.law.field_problem(lambda name: getattr(self, name))
        if problem is not None:
            raise ValueError(f"kind {self.kind!r} {problem[1]}")

    @property
    def law(self) -> KindTraits:
        """The kind's law; the spec sets only the fields it reads (and ``q``)."""
        return TRAITS[self.kind]

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


class SigmaSampler:
    """Sampler for the terminal-concentrated cut time ``sigma``.

    The cut time has density ``f(s) = c0 * exp(-1/(T-s))`` on ``(T/2, T)``;
    the normalizer ``c0`` is the reciprocal of the substituted integral
    ``integral_{2/T}^inf u^-2 exp(-u) du = E_2(2/T) / (2/T)`` in closed form,
    and the inverse CDF is a bisection in ``y = 1/(T-s)`` to 1e-12 in the
    time variable, whose tests a Newton root of the tail decides away from
    it.  Sampling maps the midpoint state through the Gaussian CDF (a uniform
    variate by the probability integral transform) and inverts.
    """

    def __init__(self, T: float = 1.0):
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"T must be finite and positive, got {T!r}")
        self.T = float(T)
        self.y_lo = 2.0 / self.T

    @cached_property
    def c0(self) -> float:
        return 1.0 / self._tail(self.y_lo)

    def _tail(self, y: np.ndarray | float) -> np.ndarray | float:
        """``integral_y^inf u^-2 exp(-u) du`` via the exponential integral."""
        return _special.expn2(y) / y

    def cdf(self, s: np.ndarray | float) -> np.ndarray | float:
        """CDF of ``sigma`` on ``(T/2, T)``."""
        s = np.asarray(s, dtype=np.float64)
        if np.any(s <= self.T / 2.0) or np.any(s >= self.T):
            raise ValueError("sigma CDF domain is (T/2, T)")
        return 1.0 - self.c0 * self._tail(1.0 / (self.T - s))

    def inverse_cdf(self, u: np.ndarray | float) -> np.ndarray:
        """Inverse CDF by bisection, resolved to 1e-12 in the time variable.

        Each test ``tail(y) > target`` is read off the Newton root where that
        is certain, so the exact tail is evaluated only next to the root.
        """
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        if not np.all((u >= 0.0) & (u <= 1.0)):  # NaN fails too
            raise ValueError("uniform variates must lie in [0, 1]")
        target = (1.0 - np.clip(u, 0.0, 1.0 - 1e-16)) / self.c0
        # The root of log tail = log target, by Newton in z = log y on
        # log(c/y) - y - log target, c = exp(y) E_2(y), whose z-slope is -1/c.
        # It is concave and falling (c falls), so the iterates fall onto the
        # root from max(-log target, 1), right of it as tail(y) < exp(-y)/y^2.
        log_target = np.log(target)
        root = np.maximum(-log_target, 1.0)
        for _ in range(100):
            c = _special.expn2_scaled(root)
            step = (np.log(c / root) - root - log_target) * c
            root = root * np.exp(step)
            if np.max(np.abs(step)) < 1e-9:
                break
        # Off the band, tail(y) > target exactly when y < root: the ported
        # tail is within a few ulps of the true one and the root within about
        # 1e-15 relative of the true root, while |d log tail/dy| = 1/(y c) > 1
        # (as E_2(y) < exp(-y)/(y + 1)), so across the band the tail moves by
        # more than 1e-13 relative.  On the band the exact tail decides.
        band = 1e-13 * np.maximum(root, 1.0)

        def above(y: np.ndarray) -> np.ndarray:  # self._tail(y) > target
            out = y < root
            near = np.abs(y - root) <= band
            if near.any():
                out[near] = self._tail(y[near]) > target[near]
            return out

        lo = np.full(u.shape, self.y_lo)
        hi = np.full(u.shape, max(2.0 * self.y_lo, 4.0))
        # Expand until the tail at hi is below every target.
        while np.any(high := above(hi)):
            hi = np.where(high, hi * 2.0, hi)
        # Bisect in y = 1/(T-s); |ds| = |dy|/y^2 <= |dy| * (T/2)^2 / ... is
        # controlled by iterating until the s-bracket closes below 1e-12.
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            too_high = above(mid)  # tail decreasing: move right
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
        An ensemble keeps its cut with its cut clock, so the bisection runs
        once per ensemble however many ``sigma_gamma`` scales read it.
        """
        u = _special.ndtr(np.sqrt(2.0 / self.T) * np.asarray(w_half, np.float64))
        sigma = self.inverse_cdf(u)
        u_sigma = np.log((self.T / 2.0) / (self.T - sigma))
        return sigma, u_sigma


def alpha_from_w_half(w_half: np.ndarray, T: float) -> np.ndarray:
    """Arccos-transformed per-path scale in ``[0, 1)``.

    ``alpha = (2/pi) arccos(sqrt(Phi(sqrt(2/T) W_{T/2})))`` — an
    ``F_{T/2}``-measurable deterministic map of the midpoint state.
    """
    phi = _special.ndtr(np.sqrt(2.0 / T) * np.asarray(w_half, np.float64))
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
    law = spec.law
    if not law.clock:
        raise ValueError(f"kind {spec.kind!r} has no exposure clock")
    drift = None if law.drift is None else law.drift(spec, alpha)
    return law.coeff(spec, alpha), drift


def lambda_at_nodes(spec: MprSpec, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path values of the scaled risk premium at the grid nodes.

    Only the grid-resident kinds have a meaningful pointwise value on the
    time grid; the clock constructions are singular at the horizon and all
    of their integrals are computed in the clock, so asking for node values
    is rejected rather than silently aliased.  A deterministic level comes
    back as a read-only broadcast of the one value, shape
    ``(n_paths, n_nodes)`` with no memory per path; copy it to write.
    """
    law = spec.law
    if law.level is not None:
        shape = (ensemble.n_paths, ensemble.grid.n_nodes)
        return np.broadcast_to(np.float64(law.level(spec)), shape)
    if law.premium is None:
        raise ValueError(
            f"kind {spec.kind!r} has no grid-resident pointwise values; its "
            "integrals live in the exposure clock"
        )
    return law.premium(spec, ensemble)


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
    (its ``x_exit`` the clock-line state at ``u_kill``, its checkpoints the
    state at each clock node), and :func:`clock_coefficients` gives the
    coefficient and drift that map the clock onto the exposure.  ``alpha`` /
    ``u_sigma`` carry the midpoint conditioning.  ``node_int_dw`` /
    ``node_int2`` hold the cumulative integrals at every grid node (zeros
    before the construction switches on).  They are always present: a grid
    kind's come with its Ito sums, and a clock kind's are built from the
    clock's checkpoints on first read and kept.
    """

    spec: MprSpec
    ensemble: PathEnsemble
    int_lam_dw: np.ndarray
    int_lam2: np.ndarray
    alpha: np.ndarray | None = None
    u_sigma: np.ndarray | None = None
    u_kill: np.ndarray | None = None
    clock: ClockExits | None = None
    _grid_tracks: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def n_paths(self) -> int:
        return self.ensemble.n_paths

    @cached_property
    def _tracks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(node_int_dw, node_int2)``: the exposure map at each clock node.

        Written one clock node at a time straight into the two tracks.
        """
        if self.clock is None:
            return self._grid_tracks
        grid = self.ensemble.grid
        coeff, drift = clock_coefficients(
            self.spec, 1.0 if self.alpha is None else self.alpha)
        node_int_dw = np.zeros((self.n_paths, grid.n_nodes))
        node_int2 = np.zeros((self.n_paths, grid.n_nodes))
        first_late = grid.half_index + 1
        for j, u_node in enumerate(grid.clock_nodes):
            u_at = np.minimum(u_node, self.u_kill)
            node_int_dw[:, first_late + j], node_int2[:, first_late + j] = _exposure(
                coeff, drift, self.clock.ckpt_pos[j], u_at)
        return node_int_dw, node_int2

    @property
    def node_int_dw(self) -> np.ndarray:
        return self._tracks[0]

    @property
    def node_int2(self) -> np.ndarray:
        return self._tracks[1]

    def summand_power(self, q: float) -> np.ndarray:
        """Per-path ``E(-lambda . W)_T ** q`` summands.

        These are the Monte Carlo summands whose mean is the unconditional
        exponential functional deciding solvability.
        """
        return np.exp(-q * self.int_lam_dw - 0.5 * q * self.int_lam2)


def _entry_clock(
    spec: MprSpec, w_half: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Per-state clock ``(coeff, drift, alpha, u_sigma)`` of a clock kind.

    ``drift``, ``alpha`` and ``u_sigma`` are ``None`` where the kind has none.
    """
    entry = spec.law.entry
    alpha = alpha_from_w_half(w_half, spec.T) if entry == _ARCCOS else None
    u_sigma = SigmaSampler(spec.T).from_w_half(w_half)[1] if entry == _CUT else None
    coeff, drift = clock_coefficients(spec, 1.0 if alpha is None else alpha)
    if alpha is None:
        coeff = np.full(w_half.size, coeff)
    return coeff, drift, alpha, u_sigma


def _clock_exits(
    spec: MprSpec, ensemble: PathEnsemble
) -> tuple[ClockExits, np.ndarray, np.ndarray | None, np.ndarray | None,
           np.ndarray | None]:
    """``(exits, *_entry_clock(...))``: the ensemble's clock of a clock kind.

    One clock path per ensemble path, recorded at the grid's clock nodes.
    The ensemble simulates each clock on its first use and keeps it
    (``PathEnsemble._clock``): the cut kind's on ``("hit-cut",)`` with
    per-path ``stop_u``, kept with that ``u_sigma``, and the drifted kinds'
    on ``("hit-drift", b)`` with per-path ``drift``.  The others read the
    driftless :attr:`~qbsde.core.PathEnsemble.clock_exit`.
    """
    n, seed, grid = ensemble.n_paths, ensemble.seed, ensemble.grid
    if spec.law.entry == _CUT:
        def cut(stream) -> tuple[ClockExits, np.ndarray]:
            u_sigma = SigmaSampler(grid.T).from_w_half(ensemble.w_half)[1]
            return simulate_two_sided_exit(
                n, u_max=grid.clock_depth, seed=seed, stream=stream,
                stop_u=u_sigma, checkpoints=grid.clock_nodes), u_sigma

        exits, u_sigma = ensemble._clock(("hit-cut",), cut)
        return exits, np.full(n, clock_coefficients(spec)[0]), None, None, u_sigma
    coeff, drift, alpha, _ = _entry_clock(spec, ensemble.w_half)
    if drift is None:
        return ensemble.clock_exit, coeff, None, alpha, None
    exits = ensemble._clock(
        ("hit-drift", spec.b), lambda stream: (simulate_two_sided_exit(
            n, u_max=grid.clock_depth, seed=seed, stream=stream, drift=drift,
            checkpoints=grid.clock_nodes),))[0]
    return exits, coeff, drift, alpha, None


def _exposure(coeff, drift, x, u) -> tuple[np.ndarray, np.ndarray]:
    """``(integral lambda dW, integral lambda^2 dt)`` from the clock at ``u``.

    The exposure map ``(coeff (x - drift u), coeff^2 u)`` of a clock kind:
    ``x`` is the clock-line state at clock time ``u``, and subtracting the
    deterministic drift accrued by then leaves the Brownian part.
    """
    bm = x - (drift * u if drift is not None else 0.0)
    return coeff * bm, coeff * coeff * u


def _log_cosh(x: float) -> float:
    return float(np.logaddexp(x, -x)) - math.log(2.0)


def _log_exit_moment(a: float, lam: float, u: float) -> float:
    """``log E_0[exp(a X_{H^u} + lam H^u)]``, ``H`` the exit of ``X`` from (-1, 1).

    ``X`` is a Brownian motion and ``H^u = min(H, u)``.  For ``u = inf`` this
    is the cosine law ``cosh(a) / cos(sqrt(2 lam))`` (cosh of
    ``sqrt(-2 lam)`` for ``lam < 0``), ``+inf`` from ``lam = pi^2/8`` on
    (Borodin & Salminen, *Handbook of Brownian Motion*, part II section 3).
    For finite ``u`` it is the killed sine series of ``w_u = w_xx/2 + lam w``
    lifted by the line through ``e^{+-a}``: with ``k_j = (j + 1/2) pi`` and
    ``mu_j = lam - k_j^2/2``, ``cosh(a) [1 + sum_j (-1)^j (2/k_j)
    (lam u exprel(mu_j u) - a^2 e^{mu_j u} / (a^2 + k_j^2))]``, every term
    scaled by ``exp(-max(mu_0 u, 0))`` so that nothing overflows.  Its terms
    are of order ``(|lam| + a^2) / k_j^3``: the length keeps the truncation
    far below the ``1/cosh(a)`` the sum cancels to, and halving the last
    term (the mean of the last two partial sums) removes most of the rest.
    Beyond ``|a| = 10``, or where a very negative ``lam`` cancels the sum
    below double precision, it raises.
    """
    if math.isinf(u):
        if lam < 0.0:
            return _log_cosh(a) - _log_cosh(math.sqrt(-2.0 * lam))
        cos = math.cos(math.sqrt(2.0 * lam)) if lam < math.pi**2 / 8.0 else 0.0
        return _log_cosh(a) - math.log(cos) if cos > 0.0 else math.inf
    if not abs(a) <= 10.0:
        raise ValueError(f"a={a!r}: the cut clock's exit moment needs |a| <= 10")
    n = int((4e10 * math.cosh(a) * (abs(lam) + a * a + 1.0)) ** (1.0 / 3.0)) + 64
    j = np.arange(n)
    k = (j + 0.5) * math.pi
    x = (lam - 0.5 * k * k) * u
    m = max(x[0], 0.0)
    grow = np.exp(x - m)
    # exprel(x) e^{-m}, as e^{x-m} exprel(-x) where x > 0 so nothing overflows.
    rel = np.where(x > 0.0, grow * _special.exprel(-np.maximum(x, 0.0)),
                   _special.exprel(np.minimum(x, 0.0)) * math.exp(-m))
    terms = np.where(j % 2 == 0, 2.0, -2.0) / k * (
        lam * u * rel - a * a * grow / (a * a + k * k))
    terms[-1] *= 0.5
    total = math.exp(-m) + float(terms.sum())
    if not total > 1e-9:  # a few ulps of the O(1) partial sums
        raise ValueError(f"a={a!r}, lam={lam!r}: the exit moment cancels to noise")
    return _log_cosh(a) + m + math.log(total)


def evaluate_mpr(spec: MprSpec, ensemble: PathEnsemble) -> MprFunctionals:
    """Evaluate a catalog spec along an ensemble.

    Grid-resident kinds integrate their ``premium`` on the time grid and
    keep the node tracks of those Ito sums.  Clock kinds read the
    ensemble's clock from ``_clock_exits``, on an independent stream keyed
    by the ensemble seed (legitimate because the post-midpoint driver
    increments are independent of the midpoint state, whose functionals
    ``alpha`` / ``sigma`` are computed from the stored ensemble
    bit-exactly).  The terminal values are the exposure map
    ``(coeff (x - drift u), coeff^2 u)`` of the clock state at the kill
    time; the node tracks, the same map at each clock node, are built on
    their first read.
    """
    if spec.T != ensemble.grid.T:
        raise ValueError(
            f"spec horizon T={spec.T!r} does not match grid T={ensemble.grid.T!r}"
        )
    if not spec.law.clock:
        pf = ito_integral(ensemble, lambda_at_nodes(spec, ensemble)[:, :-1])
        return MprFunctionals(
            spec=spec,
            ensemble=ensemble,
            int_lam_dw=pf.terminal_int_dw,
            int_lam2=pf.terminal_quad_var,
            _grid_tracks=(pf.int_dw, pf.quad_var),
        )

    exits, coeff, drift, alpha, u_sigma = _clock_exits(spec, ensemble)
    int_lam_dw, int_lam2 = _exposure(coeff, drift, exits.x_exit, exits.u_exit)
    return MprFunctionals(
        spec=spec,
        ensemble=ensemble,
        int_lam_dw=int_lam_dw,
        int_lam2=int_lam2,
        alpha=alpha,
        u_sigma=u_sigma,
        u_kill=exits.u_exit,
        clock=exits,
    )
