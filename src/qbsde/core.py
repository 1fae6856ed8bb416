"""Brownian path engine with geometric time grids and log-clock crossings.

This module owns every primitive the rest of the package simulates with:

* time grids that are uniform on ``[0, T/2]`` and geometrically clustered
  toward the horizon ``T`` (truncated at ``T - gap``, ``gap = T 2**-20``),
* Brownian increment ensembles driven by counter-based Philox streams so a
  fixed ``(seed, grid, n_paths)`` triple reproduces bit-identical paths,
* left-endpoint Ito integration of a finite per-path integrand array,
* one vectorized Euler loop (with Brownian-bridge crossing correction)
  behind both clock engines: the exit from (-1, 1) in the logarithmic clock
  ``u = log((T/2)/(T-t))``, in which the singular integrands used by the
  market-price-of-risk catalog become unit-rate Brownian motions, and the
  one-sided crossing of a moving line below one scalar level in the clock
  ``v = t/(T(T-t))``.  The two-sided exit takes single steps of
  :data:`DEFAULT_DV` in lockstep; the line hit takes the caller's step
  ``dv``.  A line-hit path far
  above its level (more than ``SKIP_Z sqrt(m dv) + r m dv``) draws its next
  ``m`` steps as one Gaussian step, so that the Euler chain would have
  crossed inside with probability below ``2 Phi(-SKIP_Z)``; checkpoints
  inside a skip are filled in by a Brownian bridge from a separate stream,
* each ensemble's driftless clock exit, simulated once and shared by every
  construction that reads it; :func:`hitting_time` is a view of it.  The
  drifted two-sided clocks belong to the catalog's drifted constructions.

Integrands proportional to ``1/sqrt(T-t)`` or ``1/(T-t)`` are never summed on
the raw time grid near ``T``; they are always evaluated through the clock
engines, where their integrals are exact functions of the clock state.
"""

from __future__ import annotations

import math
import struct
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

#: Skip threshold of the line-hit engine, in standard deviations: a path
#: farther above its level than ``SKIP_Z sqrt(m dv) + r m dv`` draws its next
#: ``m`` Euler steps as one Gaussian step, and the Euler chain would have
#: crossed inside with probability below ``2 Phi(-SKIP_Z)`` (about 1e-15).
#: ``inf`` switches skipping off.
SKIP_Z = 8.0

#: Longest skip, in Euler steps; skips are powers of two up to it.
SKIP_MAX = 4096


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


def build_grid(T: float, n_coarse: int, ratio: float = DEFAULT_RATIO) -> TimeGrid:
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

    The truncation distance ``gap`` is :func:`default_gap`, ``T * 2**-20``.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    if not (isinstance(n_coarse, (int, np.integer)) and n_coarse >= 2):
        raise ValueError(f"n_coarse must be an integer >= 2, got {n_coarse!r}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must lie in (0, 1), got {ratio!r}")
    gap = default_gap(T)

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
        raise ValueError("grid nodes are not strictly increasing; check ratio")
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
    ``(n_paths, n_nodes)``.
    """

    grid: TimeGrid
    int_dw: np.ndarray
    quad_var: np.ndarray

    @property
    def terminal_int_dw(self) -> np.ndarray:
        return self.int_dw[:, -1]

    @property
    def terminal_quad_var(self) -> np.ndarray:
        return self.quad_var[:, -1]


def ito_integral(ensemble: PathEnsemble, integrand: np.ndarray) -> PathFunctionals:
    """Left-endpoint Ito sums of ``integrand`` against the ensemble.

    ``integrand`` holds the values at the left node of each interval, shape
    ``(n_paths, n_intervals)``.  Any other shape, or a non-finite value,
    raises ``ValueError``: a NaN integral is never returned.
    """
    grid = ensemble.grid
    theta = np.asarray(integrand, dtype=np.float64)
    if theta.shape != (ensemble.n_paths, grid.n_intervals):
        raise ValueError(
            f"integrand shape {theta.shape} does not match "
            f"({ensemble.n_paths}, {grid.n_intervals})"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("integrand must be finite")

    int_dw = np.zeros((ensemble.n_paths, grid.n_nodes), dtype=np.float64)
    quad_var = np.zeros_like(int_dw)
    np.cumsum(theta * ensemble.increments, axis=1, out=int_dw[:, 1:])
    np.cumsum(theta * theta * grid.dt, axis=1, out=quad_var[:, 1:])
    return PathFunctionals(grid=grid, int_dw=int_dw, quad_var=quad_var)


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

    ``single_steps`` and ``skips`` count the engine's moves over all paths: a
    skip draws several Euler steps of a line-hit path as one Gaussian step
    (the two-sided exit never skips), and ``skip_exits`` counts crossings
    that landed inside a skip, which the skip rule makes vanishingly rare.
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
    single_steps: int = 0
    skips: int = 0
    skip_exits: int = 0

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


def _record_due(ck_ext, cur, kk, pos, cols, ckpt_pos, ckpt_alive) -> np.ndarray:
    """Record ``pos`` at every checkpoint a path stands on; return the cursors.

    ``cur`` holds each path's next checkpoint index, ``ck_ext`` the
    checkpoint steps with a sentinel past the horizon.
    """
    due = ck_ext[cur] == kk
    while due.any():
        ckpt_pos[cur[due], cols[due]] = pos[due]
        ckpt_alive[cur[due], cols[due]] = True
        cur = cur + due
        due = ck_ext[cur] == kk
    return cur


def _piece_wsum(w1, w2, dv, a, b, bsum, g) -> np.ndarray:
    """Weighted sum ``sum w dB`` over steps ``[a, b)`` given ``bsum = sum dB``.

    The increments are i.i.d. ``N(0, dv)``, so the weighted sum given their
    sum is Gaussian with mean ``(sum w / len) bsum`` and variance
    ``dv (sum w^2 - (sum w)^2 / len)``; ``w1``/``w2`` are the prefix sums of
    ``w`` and ``w^2`` and ``g`` is a standard normal draw per path.
    """
    n = np.maximum(b - a, 1)
    sw = w1[b] - w1[a]
    var = dv * np.maximum((w2[b] - w2[a]) - sw * sw / n, 0.0)
    return sw / n * bsum + np.sqrt(var) * g


def _fill_skips(brng, dv, a, b, x, bsum, cur, ck_ext, at, cols,
                ckpt_pos, ckpt_alive, ckpt_wsum, w1, w2):
    """Fill in the checkpoints strictly inside the skips ``[a, b)``.

    A skip from state ``x`` at step ``a`` drew only its Brownian sum
    ``bsum``; each checkpoint inside it gets the Brownian bridge value drawn
    from ``brng``, plus the exact drift ``at``.  With weights, every
    checkpoint-interval piece gets its weighted sum given its Brownian sum.
    Returns the advanced cursors and the last piece's weighted sum (None
    without weights).
    """
    weighted = ckpt_wsum is not None
    s = ck_ext[cur]
    inside = s < b
    while inside.any():
        i = np.flatnonzero(inside)
        ai, si, left = a[i], s[i], b[i] - a[i]
        span = si - ai
        g = brng.standard_normal((2 if weighted else 1, i.size))
        piece = bsum[i] * (span / left) + np.sqrt(dv * span * (left - span) / left) * g[0]
        x[i] += (at[si] - at[ai]) + piece
        ckpt_pos[cur[i], cols[i]] = x[i]
        ckpt_alive[cur[i], cols[i]] = True
        if weighted:
            ckpt_wsum[cur[i], cols[i]] += _piece_wsum(w1, w2, dv, ai, si, piece, g[1])
        bsum[i] -= piece
        a[i] = si
        cur[i] += 1
        s = ck_ext[cur]
        inside = s < b
    if not weighted:
        return cur, None
    return cur, _piece_wsum(w1, w2, dv, a, b, bsum, brng.standard_normal(a.size))


def _euler_exit(
    n_paths: int,
    *,
    dv: float,
    u_max: float,
    seed: int,
    stream: Sequence,
    lower: float,
    upper: float | None = None,
    rate: float | np.ndarray | None = None,
    drift_cum: Callable[[float], float] | None = None,
    stop_u: np.ndarray | None = None,
    checkpoints: np.ndarray | None = None,
    weight_fn: Callable[[float], float] | None = None,
) -> ClockExits:
    """Euler + Brownian-bridge first passage of ``X = B + drift`` from 0.

    The path is killed at or below the scalar ``lower`` and, when ``upper``
    is given, at or above that scalar.

    The two-sided exit passes ``upper`` and a per-path constant ``rate``
    (adding ``rate * dv`` per step); all its paths step in lockstep, one
    Euler step per pass.  The line hit passes ``drift_cum`` instead: a step
    from ``u`` adds the exact increment ``drift_cum(u + dv) - drift_cum(u)``,
    tabulated once per step, and each path keeps its own step index.  A path
    farther above its level than ``SKIP_Z sqrt(m dv) + r m dv`` (``r`` the
    largest per-step drift over ``dv``) replaces its next ``m`` steps by one
    draw ``N(drift_cum(u + m dv) - drift_cum(u), m dv)``, with ``m`` the
    largest power of two up to :data:`SKIP_MAX` that fits, capped at the
    horizon.  The Euler chain would have crossed inside with probability
    below ``2 Phi(-SKIP_Z)``.  Checkpoints never cap a skip: one falling
    inside it is filled in by a Brownian bridge drawn from the separate
    stream ``(seed, *stream, "bridge", block)``, as are the skip's weighted
    sums, so the main stream and every exit field do not depend on the
    checkpoints.  With ``SKIP_Z = inf`` nothing skips and the bridge stream
    is never read.  See :func:`simulate_two_sided_exit` and
    :func:`simulate_line_hit` for the blocking, stop, checkpoint and weight
    semantics.
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
    if weight_fn is not None and not n_ck:
        raise ValueError("weight_fn needs checkpoints: its sums are kept per "
                         "checkpoint interval")

    if not (math.isfinite(lower) and lower < 0.0):
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

    line = rate is None
    if line:
        at = np.fromiter((drift_cum(k * dv) for k in range(n_steps + 1)),
                         np.float64, n_steps + 1)
        inc = np.fromiter((drift_cum(k * dv + dv) for k in range(n_steps)),
                          np.float64, n_steps) - at[:-1]
        lengths = 2 ** np.arange(int(math.log2(SKIP_MAX)) + 1)
        # need(m) = SKIP_Z sqrt(m dv) + r m dv, with r = max |inc| / dv
        need = SKIP_Z * np.sqrt(lengths * dv) + np.abs(inc).max() * lengths
        jumps = np.r_[1, lengths]  # jumps[j]: the longest of the j lengths that fit
        if n_ck:
            ck_ext = np.r_[ck_steps, n_steps + 1]
        if weight_fn is not None:
            w = np.fromiter((weight_fn((k + 0.5) * dv) for k in range(n_steps)),
                            np.float64, n_steps)
            w1 = np.r_[0.0, np.cumsum(w)]
            w2 = np.r_[0.0, np.cumsum(w * w)]
        else:
            w1 = w2 = None

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
    ckpt_wsum = np.zeros((n_ck + 1, n_paths)) if weight_fn is not None else None

    sq = math.sqrt(dv)
    span = dv  # step length; the line hit's varies per path
    n_lock = 0 if line else n_ck  # checkpoints recorded in lockstep
    moves = skips = skip_exits = 0
    for blk_start in range(0, n_paths, _BLOCK_SIZE):
        blk = slice(blk_start, min(blk_start + _BLOCK_SIZE, n_paths))
        nb = blk.stop - blk.start
        rng = philox_stream(seed, *stream, "block", blk_start // _BLOCK_SIZE)
        ia = np.arange(nb, dtype=np.int64)
        pos = np.zeros(nb)
        rate_blk = rate_arr[blk] if rate_arr is not None else None
        stop_blk = stop_steps[blk] if stop_steps is not None else None
        ci = 0
        if line:
            kk = np.zeros(nb, dtype=np.int64)  # steps taken, per path
            if n_ck:
                brng = philox_stream(seed, *stream, "bridge", blk_start // _BLOCK_SIZE)
                cur = _record_due(ck_ext, np.zeros(nb, dtype=np.int64), kk, pos,
                                  blk_start + ia, ckpt_pos, ckpt_alive)

        for k in range(n_steps):  # every path advances at least one step per pass
            while ci < n_lock and ck_steps[ci] == k:
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
            moves += ia.size

            z = rng.standard_normal(ia.size)
            uc = rng.random(ia.size)
            if line:
                m = np.minimum(jumps[np.searchsorted(need, pos - lower)], n_steps - kk)
                end = kk + m
                span = m * dv
                bsum = np.sqrt(span) * z
                step = bsum + np.where(m == 1, inc[kk], at[end] - at[kk])
                sk = m > 1
                n_sk = int(np.count_nonzero(sk))
                skips += n_sk
            else:
                step = sq * z + rate_blk[ia] * dv
            newpos = pos + step

            hit = newpos <= lower
            p_cross = np.exp(-2.0 * np.clip(pos - lower, 0.0, None)
                             * np.clip(newpos - lower, 0.0, None) / span)
            if upper is not None:
                up = newpos >= upper
                hit = up | hit
                p_up = np.exp(-2.0 * np.clip(upper - pos, 0.0, None)
                              * np.clip(upper - newpos, 0.0, None) / dv)
                p_cross = p_up + p_cross
            bridge = ~hit & (uc < p_cross)
            ex = hit | bridge

            if line and n_ck:
                if ckpt_wsum is not None:
                    wstep = w[kk] * sq * z
                if n_sk:
                    i = np.flatnonzero(sk)
                    cur[i], last = _fill_skips(
                        brng, dv, kk[i], end[i], pos[i], bsum[i], cur[i], ck_ext, at,
                        blk_start + ia[i], ckpt_pos, ckpt_alive, ckpt_wsum, w1, w2)
                    if ckpt_wsum is not None:
                        wstep[i] = last
                if ckpt_wsum is not None:  # cur is this step's checkpoint interval
                    ckpt_wsum[cur, blk_start + ia] += wstep

            if ex.any():
                gi = blk_start + ia[ex]
                denom = np.where(step == 0.0, np.inf, step)
                if line:
                    sign[gi] = -1
                    theta = np.where(hit, np.clip((lower - pos) / denom, 0.0, 1.0), 0.5)
                    u_exit[gi] = (kk[ex] + theta[ex] * m[ex]) * dv
                    x_exit[gi] = lower
                    skip_exits += int(np.count_nonzero(sk[ex]))
                else:
                    up_exit = up | (bridge & (uc < p_up))
                    barrier = np.where(up_exit, upper, lower)
                    sign[gi] = np.where(up_exit[ex], 1, -1)
                    theta = np.where(hit, np.clip((barrier - pos) / denom, 0.0, 1.0), 0.5)
                    u_exit[gi] = (k + theta[ex]) * dv
                    x_exit[gi] = barrier[ex]
                raw_end[gi] = newpos[ex]
                exited[gi] = True
                endpoint_detected[gi] = hit[ex]

            keep = ~ex
            ia = ia[keep]
            pos = newpos[keep]
            if line:
                kk = end[keep]
                if n_ck:
                    cur = _record_due(ck_ext, cur[keep], kk, pos, blk_start + ia,
                                      ckpt_pos, ckpt_alive)
                fin = kk == n_steps
                if fin.any():  # censored at the horizon
                    gi = blk_start + ia[fin]
                    censored[gi] = True
                    x_exit[gi] = pos[fin]
                    raw_end[gi] = pos[fin]
                    live = ~fin
                    ia, pos, kk = ia[live], pos[live], kk[live]
                    if n_ck:
                        cur = cur[live]

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
        single_steps=moves - skips,
        skips=skips,
        skip_exits=skip_exits,
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


def _memoized(memo: OrderedDict, size: int, key, compute: Callable):
    """Return ``memo[key]``, or store ``compute()`` there, keeping ``size`` keys.

    ``memo`` is least-recently-used ordered.  A stored result (a tuple of
    arrays, or a dataclass) has its arrays made read-only, since every hit
    hands out the same objects.
    """
    value = memo.get(key)
    if value is None:
        value = compute()
        for array in value if isinstance(value, tuple) else vars(value).values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        memo[key] = value
        if len(memo) > size:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return value


def simulate_two_sided_exit(
    n_paths: int,
    *,
    u_max: float,
    seed: int,
    stream: Sequence = ("two-sided",),
    drift: float | np.ndarray = 0.0,
    stop_u: np.ndarray | None = None,
    checkpoints: np.ndarray | None = None,
) -> ClockExits:
    """First exit of ``X_u = B_u + drift * u`` from the open interval (-1, 1).

    Euler steps of size :data:`DEFAULT_DV` plus a Brownian-bridge
    correction that detects intra-step barrier touches; the correction is
    drift-free because the bridge law conditional on the step endpoints does
    not depend on the drift.  Paths are processed in fixed
    blocks of ``2**14`` paths with one Philox stream per block, so results are
    reproducible and independent of scheduling.  Every path takes single
    Euler steps in lockstep: near a barrier at all times, it never skips.

    ``stop_u`` retires a path at a per-path deterministic clock time (rounded
    down to the step grid) if it has not exited earlier.  ``checkpoints``
    records the state at fixed clock times.

    The exit is a pure function of the arguments, so the last
    :data:`EXIT_MEMO_SIZE` distinct results are memoized on their exact
    inputs (the stream by its entropy words, so ``-0.0`` and ``0.0`` stay
    apart; arrays by their float64 bytes).  A repeated call returns the same
    object, and every array of a result is read-only.
    """
    key = (n_paths, u_max, int(seed) & _MASK64, tuple(_entropy_words(stream)),
           _array_key(drift), _array_key(stop_u), _array_key(checkpoints))
    return _memoized(_exit_memo, EXIT_MEMO_SIZE, key, lambda: _euler_exit(
        n_paths, dv=DEFAULT_DV, u_max=u_max, seed=seed, stream=stream,
        lower=-1.0, upper=1.0, rate=drift, stop_u=stop_u, checkpoints=checkpoints,
    ))


def simulate_line_hit(
    n_paths: int,
    *,
    dv: float = DEFAULT_DV,
    v_max: float,
    seed: int,
    stream: Sequence = ("line",),
    level: float,
    drift_cum: Callable[[float], float],
    checkpoints: np.ndarray | None = None,
    weight_fn: Callable[[float], float] | None = None,
) -> ClockExits:
    """First passage of ``X_v = B_v + drift`` below one scalar ``level < 0``.

    Euler steps of size ``dv`` (contract: ``0 < dv <= 1e-3``).  The
    deterministic drift is the exact cumulative term ``drift_cum(v)``
    evaluated at step boundaries, so the deterministic part carries no Euler
    error.  Same bridge correction, blocking and checkpoint semantics as
    :func:`simulate_two_sided_exit`; with ``weight_fn`` (which needs
    ``checkpoints``) the engine also accumulates
    ``sum weight_fn(v_mid) * dB`` per checkpoint interval (the Brownian part
    only), which callers use to reconstruct time-grid Wiener increments from
    the clock path.
    ``x_exit`` is snapped to the level for detected crossings; ``raw_end``
    keeps the raw end-of-step state, and for censored paths ``x_exit`` is the
    running state at ``v_max`` (callers use it for analytic closure of
    first-passage transforms).

    Each path keeps its own step index.  While it is farther above its level
    than ``SKIP_Z sqrt(m dv) + r m dv`` (``r``: the largest per-step drift
    over ``dv``), its next ``m`` Euler steps (a power of two up to
    :data:`SKIP_MAX`, capped at the horizon) are one Gaussian draw of their
    sum.  The Euler chain would have crossed inside such a skip with
    probability below ``2 Phi(-SKIP_Z)``, about 1e-15 at ``SKIP_Z = 8``;
    near the level the engine takes single steps with the bridge test, so
    the crossing and overshoot law is the Euler one.  A checkpoint inside a
    skip, and each checkpoint interval's weighted sum over it, are drawn
    given the skip's Brownian sum from the stream
    ``(seed, *stream, "bridge", block)``; the main stream and every exit field
    are the same with or without checkpoints.  ``SKIP_Z = inf`` switches
    skipping off and gives the plain Euler chain's bits.
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
    """Exit data of the driftless clock Brownian motion.

    ``H`` is the clock exit time of ``|B_u| >= 1`` started at ``T/2`` (clock
    origin), ``tau = T - (T/2) * exp(-H)`` the corresponding calendar time.
    Paths that reach the truncated grid horizon without exiting are flagged
    ``censored`` and carry their censoring state.
    """

    T: float
    H: np.ndarray
    tau: np.ndarray
    sign: np.ndarray
    exited: np.ndarray
    censored: np.ndarray
    clock: ClockExits

    @property
    def censored_fraction(self) -> float:
        return float(np.mean(self.censored))


def hitting_time(ensemble: PathEnsemble) -> HittingClock:
    """The ensemble's driftless clock exit, :attr:`PathEnsemble.clock_exit`.

    A view of the exit every undrifted construction reads, in exit-time and
    calendar-time terms.  The clock horizon is the grid's
    ``log((T/2)/gap)``; survivors are censored and flagged.  Drifted
    two-sided clocks belong to the drifted catalog kinds and are simulated
    by :func:`qbsde.catalog.evaluate_mpr`.
    """
    exits = ensemble.clock_exit
    T = ensemble.grid.T
    return HittingClock(
        T=T,
        H=exits.u_exit,
        tau=T - (T / 2.0) * np.exp(-exits.u_exit),
        sign=exits.sign,
        exited=exits.exited,
        censored=exits.censored,
        clock=exits,
    )


def exit_time_exp_moment(clock: HittingClock, c: float) -> tuple[float, float]:
    """Mean and standard error of ``exp(c^2 pi^2 / 8 * H)``.

    Censored paths contribute at their censoring depth (a lower bound whose
    bias at the default truncation is orders below the stated tolerances).
    By the cosine law the moment is ``1/cos(c pi/2)`` for ``|c| < 1`` and
    infinite once the rate ``c^2 pi^2 / 8`` reaches the driftless exit law's
    decay rate ``pi^2 / 8``; there the result is ``(inf, nan)``, never a
    finite sample mean.
    """
    if not math.isfinite(c):
        raise ValueError(f"moment scale c must be finite, got {c!r}")
    rate = c * c * math.pi * math.pi / 8.0
    if rate >= math.pi * math.pi / 8.0:
        return math.inf, math.nan
    vals = np.exp(rate * clock.H)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    return mean, se
