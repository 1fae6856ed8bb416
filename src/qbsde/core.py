"""Brownian path engine with geometric time grids and log-clock crossings.

This module owns every primitive the rest of the package simulates with:

* time grids that are uniform on ``[0, T/2]`` and geometrically clustered
  toward the horizon ``T`` (truncated at ``T - gap``),
* Brownian increment ensembles driven by counter-based Philox streams so a
  fixed ``(seed, grid, n_paths)`` triple reproduces bit-identical paths,
* left-endpoint Ito integration,
* one vectorized Euler loop (with Brownian-bridge crossing correction)
  behind both clock engines: the exit from (-1, 1) in the logarithmic clock
  ``u = log((T/2)/(T-t))``, in which the singular integrands used by the
  market-price-of-risk catalog become unit-rate Brownian motions, and the
  one-sided crossing of a moving line in the clock ``v = t/(T(T-t))``,
* each ensemble's driftless clock exit, simulated once and shared by every
  construction that reads it.

Integrands proportional to ``1/sqrt(T-t)`` or ``1/(T-t)`` are never summed on
the raw time grid near ``T``; they are always evaluated through the clock
engines, where their integrals are exact functions of the clock state.
"""

from __future__ import annotations

import math
import struct
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_DV",
    "DEFAULT_RATIO",
    "TimeGrid",
    "PathEnsemble",
    "PathFunctionals",
    "ClockExits",
    "HittingClock",
    "build_grid",
    "default_gap",
    "sample_paths",
    "ito_integral",
    "philox_stream",
    "simulate_two_sided_exit",
    "simulate_line_hit",
    "hitting_time",
    "exit_time_exp_moment",
]

#: Default Euler step for the clock engines (contract: must be <= 1e-3).
DEFAULT_DV = 1.0e-3

#: Default geometric clustering ratio for time grids.
DEFAULT_RATIO = 0.5

_MASK64 = (1 << 64) - 1
_BLOCK_SIZE = 1 << 14


def default_gap(T: float) -> float:
    """Default grid truncation gap, ``T * 2**-20``."""
    return T * 2.0**-20


def _entropy_words(parts: Sequence) -> list[int]:
    """Encode mixed key parts as a deterministic list of non-negative ints.

    Strings are taken by their UTF-8 bytes, floats by their IEEE-754 bit
    pattern, ints modulo 2**64.  No use of ``hash()`` so the derivation is
    stable across processes and interpreter configurations.
    """
    words: list[int] = []
    for part in parts:
        if isinstance(part, bool):
            words.append(int(part))
        elif isinstance(part, (int, np.integer)):
            words.append(int(part) & _MASK64)
        elif isinstance(part, (float, np.floating)):
            words.append(struct.unpack("<Q", struct.pack("<d", float(part)))[0])
        elif isinstance(part, str):
            words.append(int.from_bytes(part.encode("utf-8"), "little"))
        else:
            raise TypeError(f"unsupported stream key part: {part!r}")
    return words


def philox_stream(seed: int, *parts) -> np.random.Generator:
    """Return a counter-based generator keyed by ``(seed, *parts)``.

    Every consumer of randomness in the package derives its own stream this
    way, so results do not depend on the order in which independent
    simulations run, and any sub-simulation can be reproduced in isolation.
    """
    entropy = [int(seed) & _MASK64] + _entropy_words(parts)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# Time grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing node set on ``[0, T - gap]``.

    Nodes are uniform on ``[0, T/2]`` and then cluster geometrically toward
    ``T``: successive distances to ``T`` shrink by ``ratio`` until they reach
    ``gap`` (the final node is exactly ``T - gap``; the last clustering step
    may be shorter than the ratio prescribes when ``gap`` does not sit on the
    geometric ladder).
    """

    T: float
    gap: float
    ratio: float
    nodes: np.ndarray

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def n_intervals(self) -> int:
        return int(self.nodes.size) - 1

    @cached_property
    def dt(self) -> np.ndarray:
        d = np.diff(self.nodes)
        d.setflags(write=False)
        return d

    @cached_property
    def half_index(self) -> int:
        """Index of the node at ``T/2`` (guaranteed to exist)."""
        idx = int(np.argmin(np.abs(self.nodes - self.T / 2.0)))
        if not math.isclose(self.nodes[idx], self.T / 2.0, rel_tol=1e-12):
            raise ValueError("grid has no node at T/2")
        return idx

    @property
    def clock_depth(self) -> float:
        """Clock horizon ``log((T/2)/gap)`` of the truncated grid."""
        return math.log((self.T / 2.0) / self.gap)

    @cached_property
    def clock_nodes(self) -> np.ndarray:
        """Clock images ``log((T/2)/(T-t))`` of the nodes after ``T/2``."""
        t_late = self.nodes[self.half_index + 1 :]
        u = np.log((self.T / 2.0) / (self.T - t_late))
        u.setflags(write=False)
        return u


def build_grid(
    T: float,
    n_coarse: int,
    ratio: float = DEFAULT_RATIO,
    gap: float | None = None,
) -> TimeGrid:
    """Build the uniform-then-geometric time grid on ``[0, T - gap]``.

    Parameters
    ----------
    T:
        Horizon, finite and positive.
    n_coarse:
        Number of uniform intervals per horizon; the uniform section covers
        ``[0, T/2]`` with ``ceil(n_coarse/2)`` intervals of width ``T/n_coarse``
        (for even ``n_coarse``; odd values get the nearest uniform split).
    ratio:
        Geometric clustering ratio in ``(0, 1)`` applied to distances from
        ``T`` after ``T/2``.
    gap:
        Truncation distance: the final node is ``T - gap``.  Defaults to
        ``T * 2**-20``.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    if not (isinstance(n_coarse, (int, np.integer)) and n_coarse >= 2):
        raise ValueError(f"n_coarse must be an integer >= 2, got {n_coarse!r}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must lie in (0, 1), got {ratio!r}")
    if gap is None:
        gap = default_gap(T)
    if not (0.0 < gap < T / 2.0):
        raise ValueError(f"gap must lie in (0, T/2), got {gap!r}")

    n_half = max(1, int(math.ceil(n_coarse / 2)))
    uniform = np.linspace(0.0, T / 2.0, n_half + 1)

    distances = []
    d = (T / 2.0) * ratio
    while d > gap * (1.0 + 1e-12):
        distances.append(d)
        d *= ratio
    clustered = [T - x for x in distances]
    if not clustered or not math.isclose(clustered[-1], T - gap, rel_tol=1e-12):
        clustered.append(T - gap)

    nodes = np.concatenate([uniform, np.asarray(clustered, dtype=np.float64)])
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError("grid nodes are not strictly increasing; check gap/ratio")
    return TimeGrid(T=float(T), gap=float(gap), ratio=float(ratio), nodes=nodes)


# ---------------------------------------------------------------------------
# Path ensembles
# ---------------------------------------------------------------------------


@dataclass
class PathEnsemble:
    """Brownian increments on a :class:`TimeGrid`.

    ``increments[i, j]`` is the Wiener increment of path ``i`` over grid
    interval ``j``.  Treated as immutable after construction.
    """

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray

    def __post_init__(self) -> None:
        self.increments.setflags(write=False)

    @cached_property
    def wiener(self) -> np.ndarray:
        """Path values at the grid nodes, shape ``(n_paths, n_nodes)``."""
        w = np.empty((self.n_paths, self.grid.n_nodes), dtype=np.float64)
        w[:, 0] = 0.0
        np.cumsum(self.increments, axis=1, out=w[:, 1:])
        w.setflags(write=False)
        return w

    @property
    def w_half(self) -> np.ndarray:
        """Path values at the midpoint node ``T/2``."""
        return self.wiener[:, self.grid.half_index]

    @property
    def w_terminal(self) -> np.ndarray:
        return self.wiener[:, -1]

    @cached_property
    def clock_exit(self) -> ClockExits:
        """Driftless exit of the ensemble's clock Brownian motion from (-1, 1).

        Simulated on the stream ``(seed, "hit", 0.0)`` up to the grid's clock
        depth, with the state recorded at :attr:`TimeGrid.clock_nodes`.  Every
        undrifted construction and :func:`hitting_time` read this one exit.
        The ensemble holds it for its lifetime, whatever the engine's memo
        evicts; like every two-sided exit, its arrays are read-only.
        """
        return simulate_two_sided_exit(
            self.n_paths,
            u_max=self.grid.clock_depth,
            seed=self.seed,
            stream=("hit", 0.0),
            checkpoints=self.grid.clock_nodes,
        )


def sample_paths(grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Draw a Brownian increment ensemble on ``grid``.

    Uses a dedicated counter-based stream keyed by ``(seed, "increments")``:
    element ``(i, j)`` of the increment matrix is a pure function of the seed
    and its position, independent of how the work is later partitioned.
    """
    if n_paths <= 0:
        raise ValueError(f"n_paths must be positive, got {n_paths!r}")
    rng = philox_stream(seed, "increments")
    z = rng.standard_normal((n_paths, grid.n_intervals))
    inc = z * np.sqrt(grid.dt)
    return PathEnsemble(grid=grid, n_paths=int(n_paths), seed=int(seed), increments=inc)


# ---------------------------------------------------------------------------
# Ito integration
# ---------------------------------------------------------------------------


@dataclass
class PathFunctionals:
    """Cumulative integrals of one integrand along an ensemble.

    ``int_dw`` holds the left-endpoint Ito sums at each node and ``quad_var``
    the matching ``integral theta^2 dt``; both have shape
    ``(n_paths, n_nodes)``.  Paths on which the integrand fails to evaluate
    finitely are aborted: flagged in ``nan_flag`` and NaN from the first bad
    interval onward.
    """

    grid: TimeGrid
    theta: np.ndarray
    int_dw: np.ndarray
    quad_var: np.ndarray
    nan_flag: np.ndarray

    @property
    def terminal_int_dw(self) -> np.ndarray:
        return self.int_dw[:, -1]

    @property
    def terminal_quad_var(self) -> np.ndarray:
        return self.quad_var[:, -1]


def ito_integral(
    ensemble: PathEnsemble,
    integrand: np.ndarray | Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> PathFunctionals:
    """Left-endpoint Ito sums of ``integrand`` against the ensemble.

    ``integrand`` is either an array of values at the left node of each
    interval — shape ``(n_paths, n_intervals)`` or ``(n_intervals,)`` — or a
    callable ``f(t_left, w_left) -> values`` receiving the left node times
    (shape ``(n_intervals,)``) and the path values at those nodes.

    Non-finite integrand values abort the affected path: its cumulative
    integrals are NaN from that interval onward and the path is flagged.
    """
    grid = ensemble.grid
    t_left = grid.nodes[:-1]
    if callable(integrand):
        theta = np.asarray(
            integrand(t_left, ensemble.wiener[:, :-1]), dtype=np.float64
        )
    else:
        theta = np.asarray(integrand, dtype=np.float64)
    if theta.ndim == 1:
        theta = np.broadcast_to(theta, (ensemble.n_paths, grid.n_intervals)).copy()
    if theta.shape != (ensemble.n_paths, grid.n_intervals):
        raise ValueError(
            f"integrand shape {theta.shape} does not match "
            f"({ensemble.n_paths}, {grid.n_intervals})"
        )

    bad = ~np.isfinite(theta)
    nan_flag = bad.any(axis=1)
    if nan_flag.any():
        warnings.warn(
            f"integrand not finite on {int(nan_flag.sum())} path(s); "
            "those paths are aborted with NaN integrals",
            RuntimeWarning,
            stacklevel=2,
        )
        # Poison from the first bad interval onward so cumulative sums stay NaN.
        first_bad = np.where(bad.any(axis=1), bad.argmax(axis=1), grid.n_intervals)
        cols = np.arange(grid.n_intervals)
        theta = np.where(cols[None, :] >= first_bad[:, None], np.nan, theta)

    n_nodes = grid.n_nodes
    int_dw = np.zeros((ensemble.n_paths, n_nodes), dtype=np.float64)
    quad_var = np.zeros_like(int_dw)
    np.cumsum(theta * ensemble.increments, axis=1, out=int_dw[:, 1:])
    np.cumsum(theta * theta * grid.dt, axis=1, out=quad_var[:, 1:])
    return PathFunctionals(
        grid=grid, theta=theta, int_dw=int_dw, quad_var=quad_var, nan_flag=nan_flag
    )


# ---------------------------------------------------------------------------
# Clock crossing engines
# ---------------------------------------------------------------------------


@dataclass
class ClockExits:
    """Outcome of a clock Euler simulation with bridge-corrected crossings.

    ``u_exit`` is the detected crossing (or retirement) clock time per path;
    endpoint exceedances are linearly interpolated inside the step and
    bridge-detected crossings are placed at mid-step.  ``x_exit`` is the state
    at retirement: the exact barrier value for detected crossings (a stopped
    continuous path sits on the barrier), the running value for paths frozen
    by a per-path stop time or censored at the horizon.  ``raw_end`` keeps the
    un-snapped end-of-step state of the detection step as an overshoot
    diagnostic.
    """

    dv: float
    u_max: float
    n_paths: int
    u_exit: np.ndarray
    x_exit: np.ndarray
    raw_end: np.ndarray
    exited: np.ndarray
    frozen: np.ndarray
    censored: np.ndarray
    sign: np.ndarray
    endpoint_detected: np.ndarray
    ckpt_pos: np.ndarray | None = None
    ckpt_alive: np.ndarray | None = None
    ckpt_wsum: np.ndarray | None = None

    @property
    def censored_fraction(self) -> float:
        return float(np.mean(self.censored))


def _as_per_path(value, n_paths: int) -> np.ndarray | None:
    if value is None:
        return None
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n_paths, float(arr))
    if arr.shape != (n_paths,):
        raise ValueError(f"per-path parameter has shape {arr.shape}, expected ({n_paths},)")
    return arr


def _euler_exit(
    n_paths: int,
    *,
    dv: float,
    u_max: float,
    seed: int,
    stream: Sequence,
    lower: float | np.ndarray,
    upper: float | None = None,
    rate: float | np.ndarray | None = None,
    drift_cum: Callable[[float], float] | None = None,
    stop_u: np.ndarray | None = None,
    checkpoints: np.ndarray | None = None,
    weight_fn: Callable[[float], float] | None = None,
) -> ClockExits:
    """Euler + Brownian-bridge first passage of ``X = B + drift`` from 0.

    The path is killed at or below ``lower`` (a scalar, or one level per
    path) and, when ``upper`` is given, at or above that scalar.  The drift
    adds ``rate * dv`` per step (a per-path constant) or, without ``rate``,
    the exact increment ``drift_cum(u + dv) - drift_cum(u)``.  See
    :func:`simulate_two_sided_exit` and :func:`simulate_line_hit` for the
    blocking, stop, checkpoint and weight semantics.
    """
    if not 0.0 < dv <= DEFAULT_DV * (1.0 + 1e-12):
        raise ValueError(f"clock step dv={dv!r} violates the 0 < dv <= 1e-3 contract")
    if not (math.isfinite(u_max) and u_max > 0.0):
        raise ValueError(f"clock horizon must be finite and positive, got {u_max!r}")
    n_steps = int(math.ceil(u_max / dv - 1e-9))
    n_ck = 0
    if checkpoints is not None:
        ck = np.asarray(checkpoints, dtype=np.float64)
        if ck.ndim != 1 or np.any(np.diff(ck) <= 0):
            raise ValueError("checkpoints must be a strictly increasing 1-d array")
        ck_steps = np.clip(np.round(ck / dv).astype(np.int64), 0, n_steps)
        n_ck = len(ck_steps)

    lower_arr = _as_per_path(lower, n_paths) if np.ndim(lower) else None
    if not np.all((np.asarray(lower) < 0.0) & np.isfinite(lower)):
        raise ValueError("crossing level must be finite and negative "
                         "(paths start at 0)")
    rate_arr = _as_per_path(rate, n_paths)
    if rate_arr is not None and not np.all(np.isfinite(rate_arr)):
        raise ValueError("clock drift rate must be finite")
    stop_steps = None
    if stop_u is not None:
        stop_arr = _as_per_path(stop_u, n_paths)
        if not np.all(stop_arr >= 0.0):
            raise ValueError("stop clock times must be nonnegative (inf: never stop)")
        finite = np.isfinite(stop_arr)
        stop_steps = np.full(n_paths, n_steps + 1, dtype=np.int64)
        stop_steps[finite] = np.floor(stop_arr[finite] / dv + 1e-9).astype(np.int64)

    u_exit = np.full(n_paths, n_steps * dv)
    x_exit = np.zeros(n_paths)
    raw_end = np.zeros(n_paths)
    exited = np.zeros(n_paths, dtype=bool)
    frozen = np.zeros(n_paths, dtype=bool)
    censored = np.zeros(n_paths, dtype=bool)
    sign = np.zeros(n_paths, dtype=np.int8)
    endpoint_detected = np.zeros(n_paths, dtype=bool)
    ckpt_pos = np.full((n_ck, n_paths), np.nan) if n_ck else None
    ckpt_alive = np.zeros((n_ck, n_paths), dtype=bool) if n_ck else None
    ckpt_wsum = (
        np.zeros((n_ck + 1, n_paths)) if (n_ck and weight_fn is not None) else None
    )

    sq = math.sqrt(dv)
    for blk_start in range(0, n_paths, _BLOCK_SIZE):
        blk = slice(blk_start, min(blk_start + _BLOCK_SIZE, n_paths))
        nb = blk.stop - blk.start
        rng = philox_stream(seed, *stream, "block", blk_start // _BLOCK_SIZE)
        ia = np.arange(nb, dtype=np.int64)
        pos = np.zeros(nb)
        lower_blk = lower_arr[blk] if lower_arr is not None else None
        rate_blk = rate_arr[blk] if rate_arr is not None else None
        stop_blk = stop_steps[blk] if stop_steps is not None else None
        ci = 0

        for k in range(n_steps):
            while ci < n_ck and ck_steps[ci] == k:
                ckpt_pos[ci, blk_start + ia] = pos
                ckpt_alive[ci, blk_start + ia] = True
                ci += 1
            if stop_blk is not None:
                fz = stop_blk[ia] <= k
                if fz.any():
                    gi = blk_start + ia[fz]
                    u_exit[gi] = stop_blk[ia[fz]] * dv
                    x_exit[gi] = pos[fz]
                    raw_end[gi] = pos[fz]
                    frozen[gi] = True
                    ia = ia[~fz]
                    pos = pos[~fz]
            if ia.size == 0:
                break

            z = rng.standard_normal(ia.size)
            uc = rng.random(ia.size)
            step = sq * z
            if rate_blk is not None:
                step = step + rate_blk[ia] * dv
            else:
                u0 = k * dv
                step = step + (drift_cum(u0 + dv) - drift_cum(u0))
            newpos = pos + step

            lo = lower_blk[ia] if lower_blk is not None else lower
            hit = newpos <= lo
            p_cross = np.exp(-2.0 * np.clip(pos - lo, 0.0, None)
                             * np.clip(newpos - lo, 0.0, None) / dv)
            if upper is not None:
                up = newpos >= upper
                hit = up | hit
                p_up = np.exp(-2.0 * np.clip(upper - pos, 0.0, None)
                              * np.clip(upper - newpos, 0.0, None) / dv)
                p_cross = p_up + p_cross
            bridge = ~hit & (uc < p_cross)
            ex = hit | bridge

            if ckpt_wsum is not None:  # ci is this step's checkpoint interval
                ckpt_wsum[ci, blk_start + ia] += weight_fn((k + 0.5) * dv) * sq * z

            if ex.any():
                gi = blk_start + ia[ex]
                if upper is None:
                    barrier = lo
                    sign[gi] = -1
                else:
                    up_exit = up | (bridge & (uc < p_up))
                    barrier = np.where(up_exit, upper, lo)
                    sign[gi] = np.where(up_exit[ex], 1, -1)
                denom = np.where(step == 0.0, np.inf, step)
                theta = np.where(hit, np.clip((barrier - pos) / denom, 0.0, 1.0), 0.5)
                u_exit[gi] = (k + theta[ex]) * dv
                x_exit[gi] = barrier[ex] if np.ndim(barrier) else barrier
                raw_end[gi] = newpos[ex]
                exited[gi] = True
                endpoint_detected[gi] = hit[ex]

            keep = ~ex
            ia = ia[keep]
            pos = newpos[keep]

        if ia.size:
            gi = blk_start + ia
            censored[gi] = True
            x_exit[gi] = pos
            raw_end[gi] = pos
            while ci < n_ck:
                ckpt_pos[ci, gi] = pos
                ckpt_alive[ci, gi] = True
                ci += 1

    if n_ck:
        # Paths retired before a checkpoint keep their retirement state there.
        missing = ~ckpt_alive & np.isnan(ckpt_pos)
        ckpt_pos[missing] = np.broadcast_to(x_exit, (n_ck, n_paths))[missing]

    return ClockExits(
        dv=dv,
        u_max=n_steps * dv,
        n_paths=n_paths,
        u_exit=u_exit,
        x_exit=x_exit,
        raw_end=raw_end,
        exited=exited,
        frozen=frozen,
        censored=censored,
        sign=sign,
        endpoint_detected=endpoint_detected,
        ckpt_pos=ckpt_pos,
        ckpt_alive=ckpt_alive,
        ckpt_wsum=ckpt_wsum,
    )


#: Distinct two-sided exits kept by :func:`simulate_two_sided_exit`: one Table 2
#: seed's working set (the ensemble exit, the cut exit and two inner exits).
EXIT_MEMO_SIZE = 4

_exit_memo: OrderedDict[tuple, ClockExits] = OrderedDict()


def _array_key(value) -> tuple | None:
    """Exact key of a float array parameter: its float64 shape and bytes."""
    if value is None:
        return None
    arr = np.asarray(value, dtype=np.float64)
    return arr.shape, arr.tobytes()


def simulate_two_sided_exit(
    n_paths: int,
    *,
    dv: float = DEFAULT_DV,
    u_max: float,
    seed: int,
    stream: Sequence = ("two-sided",),
    drift: float | np.ndarray = 0.0,
    stop_u: np.ndarray | None = None,
    checkpoints: np.ndarray | None = None,
) -> ClockExits:
    """First exit of ``X_u = B_u + drift * u`` from the open interval (-1, 1).

    Euler steps of size ``dv`` (contract: ``dv <= 1e-3``) plus a
    Brownian-bridge correction that detects intra-step barrier touches; the
    correction is drift-free because the bridge law conditional on the step
    endpoints does not depend on the drift.  Paths are processed in fixed
    blocks of ``2**14`` paths with one Philox stream per block, so results are
    reproducible and independent of scheduling.

    ``stop_u`` retires a path at a per-path deterministic clock time (rounded
    down to the step grid) if it has not exited earlier.  ``checkpoints``
    records the state at fixed clock times.

    The exit is a pure function of the arguments, so the last
    :data:`EXIT_MEMO_SIZE` distinct results are memoized on their exact
    inputs (the stream by its entropy words, so ``-0.0`` and ``0.0`` stay
    apart; arrays by their float64 bytes).  A repeated call returns the same
    object, and every array of a result is read-only.
    """
    key = (n_paths, dv, u_max, int(seed) & _MASK64, tuple(_entropy_words(stream)),
           _array_key(drift), _array_key(stop_u), _array_key(checkpoints))
    exits = _exit_memo.get(key)
    if exits is None:
        exits = _euler_exit(
            n_paths, dv=dv, u_max=u_max, seed=seed, stream=stream,
            lower=-1.0, upper=1.0, rate=drift, stop_u=stop_u, checkpoints=checkpoints,
        )
        for value in vars(exits).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        _exit_memo[key] = exits
        if len(_exit_memo) > EXIT_MEMO_SIZE:
            _exit_memo.popitem(last=False)
    else:
        _exit_memo.move_to_end(key)
    return exits


def simulate_line_hit(
    n_paths: int,
    *,
    dv: float = DEFAULT_DV,
    v_max: float,
    seed: int,
    stream: Sequence = ("line",),
    level: float | np.ndarray,
    drift_cum: Callable[[float], float],
    checkpoints: np.ndarray | None = None,
    weight_fn: Callable[[float], float] | None = None,
) -> ClockExits:
    """First passage of ``X_v = B_v + drift`` below a per-path level < 0.

    The deterministic drift is the exact cumulative term ``drift_cum(v)``
    evaluated at step boundaries, so the deterministic part carries no Euler
    error.  Same bridge correction, blocking and checkpoint semantics as
    :func:`simulate_two_sided_exit`; with ``weight_fn`` the engine also
    accumulates ``sum weight_fn(v_mid) * dB`` per checkpoint interval (the
    Brownian part only), which callers use to reconstruct time-grid Wiener
    increments from the clock path.
    ``x_exit`` is snapped to the level for detected crossings; ``raw_end``
    keeps the raw end-of-step state, and for censored paths ``x_exit`` is the
    running state at ``v_max`` (callers use it for analytic closure of
    first-passage transforms).
    """
    return _euler_exit(
        n_paths, dv=dv, u_max=v_max, seed=seed, stream=stream,
        lower=level, drift_cum=drift_cum,
        checkpoints=checkpoints, weight_fn=weight_fn,
    )


# ---------------------------------------------------------------------------
# Hitting clocks on the grid horizon
# ---------------------------------------------------------------------------


@dataclass
class HittingClock:
    """Exit data of the (possibly drifted) clock Brownian motion.

    ``H`` is the clock exit time of ``|B_u + slope * u| >= 1`` started at
    ``T/2`` (clock origin), ``tau = T - (T/2) * exp(-H)`` the corresponding
    calendar time.  Paths that reach the truncated grid horizon without
    exiting are flagged ``censored`` and carry their censoring state.
    """

    T: float
    drift_slope: float
    alpha: float
    H: np.ndarray
    tau: np.ndarray
    sign: np.ndarray
    exited: np.ndarray
    censored: np.ndarray
    clock: ClockExits

    @property
    def censored_fraction(self) -> float:
        return float(np.mean(self.censored))


def hitting_time(
    ensemble: PathEnsemble,
    drift_slope: float = 0.0,
    alpha: float = 1.0,
) -> HittingClock:
    """Simulate the clock exit attached to ``ensemble``'s horizon.

    The clock Brownian motion is an independent stream keyed by the ensemble
    seed and the effective drift ``drift_slope * pi * alpha / sqrt(8)`` (the
    drifted-line construction); a zero drift, of either sign, gives the plain
    symmetric exit :attr:`PathEnsemble.clock_exit` shared by all undrifted
    constructions.
    The clock horizon is the grid's ``log((T/2)/gap)``; survivors are
    censored and flagged.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    grid = ensemble.grid
    mu = drift_slope * math.pi * alpha / math.sqrt(8.0)
    if mu == 0.0:
        exits = ensemble.clock_exit
    else:
        exits = simulate_two_sided_exit(
            ensemble.n_paths,
            u_max=grid.clock_depth,
            seed=ensemble.seed,
            stream=("hit", mu),
            drift=mu,
        )
    H = exits.u_exit
    tau = grid.T - (grid.T / 2.0) * np.exp(-H)
    return HittingClock(
        T=grid.T,
        drift_slope=float(drift_slope),
        alpha=float(alpha),
        H=H,
        tau=tau,
        sign=exits.sign,
        exited=exits.exited,
        censored=exits.censored,
        clock=exits,
    )


def exit_time_exp_moment(clock: HittingClock, c: float) -> tuple[float, float]:
    """Mean and standard error of ``exp(c^2 pi^2 / 8 * H)``.

    Censored paths contribute at their censoring depth (a lower bound whose
    bias at the default truncation is orders below the stated tolerances).
    The moment is infinite once the rate ``c^2 pi^2 / 8`` reaches the exit
    law's decay rate ``pi^2 / 8 + mu^2 / 2`` (by Girsanov, for the clock's
    effective drift ``mu``); there the result is ``(inf, nan)``, never a
    finite sample mean.
    """
    if not math.isfinite(c):
        raise ValueError(f"moment scale c must be finite, got {c!r}")
    rate = c * c * math.pi * math.pi / 8.0
    mu = clock.drift_slope * math.pi * clock.alpha / math.sqrt(8.0)
    if rate >= math.pi * math.pi / 8.0 + 0.5 * mu * mu:
        return math.inf, math.nan
    vals = np.exp(rate * clock.H)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    return mean, se
