"""Brownian path engine with geometric time grids and log-clock crossings.

This module owns every primitive the rest of the package simulates with:

* time grids that are uniform on ``[0, T/2]`` and geometrically clustered
  toward the horizon ``T`` (truncated at ``T - gap``, ``gap = T 2**-20``),
* Brownian increment ensembles driven by counter-based Philox streams so a
  fixed ``(seed, grid, n_paths)`` triple reproduces bit-identical paths,
* left-endpoint Ito integration of a finite per-path integrand array,
* two Euler clock engines with a Brownian-bridge crossing correction: the
  exit from (-1, 1) in the logarithmic clock ``u = log((T/2)/(T-t))``, in
  which the singular integrands used by the market-price-of-risk catalog
  become unit-rate Brownian motions, steps every path in lockstep at
  :data:`DEFAULT_DV` and runs the bridge test only on steps that end or
  start beyond :data:`NEAR_BARRIER`, the only steps on which it can pass;
  the one-sided crossing of a moving line below one
  scalar level in the clock ``v = t/(T(T-t))`` steps each path on its own
  at the caller's ``dv``, and a path far above its level draws up to
  :data:`SKIP_MAX` steps as one Gaussian step,
* the clocks of an ensemble, which it owns: each two-sided exit simulated
  on it is kept there, one per stream, for the ensemble's lifetime, so
  every construction that reads a clock reads the one simulation of it.
  The driftless exit is :attr:`PathEnsemble.clock_exit`, which
  :func:`hitting_time` returns; the catalog adds the cut and drifted clocks.

Integrands proportional to ``1/sqrt(T-t)`` or ``1/(T-t)`` are never summed on
the raw time grid near ``T``; they are always evaluated through the clock
engines, where their integrals are exact functions of the clock state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
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

#: The two-sided exit runs its bridge test only on steps with an endpoint
#: beyond this distance from 0 (or a uniform of exactly 0).  Between
#: endpoints within it the crossing probability is at most
#: ``2 exp(-2 (1 - NEAR_BARRIER)^2 / DEFAULT_DV)``, about 5.7e-20, below
#: ``2**-53``, the least positive uniform draw: the test could not pass.
NEAR_BARRIER = 0.85


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
    _check_seed(seed)
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
    """Brownian increments on a :class:`TimeGrid`, and the clocks simulated on them.

    ``increments[i, j]`` is the Wiener increment of path ``i`` over grid
    interval ``j``.  Treated as immutable after construction.  ``_clocks``
    holds every clock simulated for the ensemble, filled by :meth:`_clock`.
    """

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray
    _clocks: dict[tuple, tuple] = field(default_factory=dict, init=False, repr=False)

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

    def _clock(self, stream: Sequence, simulate: Callable[[Sequence], tuple]) -> tuple:
        """The clock on ``stream``: ``simulate(stream)`` on first use, then kept.

        ``simulate`` returns ``(exits, *inputs)``: the two-sided exit drawn
        from ``(seed, *stream)`` and the per-path inputs worth keeping with
        it.  The stream names the clock, by its entropy words (so ``-0.0``
        and ``0.0`` stay apart), and the ensemble keeps the result for its
        lifetime with every array read-only: each clock is simulated at most
        once per ensemble, and every reader shares its arrays.
        """
        key = tuple(_entropy_words(stream))
        kept = self._clocks.get(key)
        if kept is None:
            kept = simulate(stream)
            exits, *inputs = kept
            for array in (*vars(exits).values(), *inputs):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            self._clocks[key] = kept
        return kept

    @property
    def clock_exit(self) -> ClockExits:
        """Driftless exit of the ensemble's clock Brownian motion from (-1, 1).

        Simulated on the stream ``(seed, "hit", 0.0)`` up to the grid's clock
        depth, with the state recorded at :attr:`TimeGrid.clock_nodes`.  Every
        undrifted, uncut construction and :func:`hitting_time` read this one
        exit, which the ensemble keeps (:meth:`_clock`) read-only.
        """
        return self._clock(("hit", 0.0), lambda stream: (simulate_two_sided_exit(
            self.n_paths,
            u_max=self.grid.clock_depth,
            seed=self.seed,
            stream=stream,
            checkpoints=self.grid.clock_nodes,
        ),))[0]


def _check_n_paths(n_paths) -> None:
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ValueError(f"n_paths must be a positive integer, got {n_paths!r}")


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def sample_paths(grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Draw a Brownian increment ensemble on ``grid``.

    Uses a dedicated counter-based stream keyed by ``(seed, "increments")``:
    element ``(i, j)`` of the increment matrix is a pure function of the seed
    and its position, independent of how the work is later partitioned.
    """
    _check_n_paths(n_paths)
    _check_seed(seed)
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


def _as_per_path(value, n_paths: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n_paths, float(arr))
    if arr.shape != (n_paths,):
        raise ValueError(f"per-path parameter has shape {arr.shape}, expected ({n_paths},)")
    return arr


def _clock_steps(dv: float, u_max: float, checkpoints) -> tuple[int, np.ndarray]:
    """Steps to the horizon ``u_max``, and the step of each checkpoint.

    Requires ``0 < dv <= 1e-3``, a finite positive horizon, and checkpoints
    that are finite, nonnegative and strictly increasing.  A checkpoint
    rounds to its nearest step, capped at the horizon; ``None`` gives none.
    """
    if not 0.0 < dv <= DEFAULT_DV * (1.0 + 1e-12):
        raise ValueError(f"clock step dv={dv!r} violates the 0 < dv <= 1e-3 contract")
    if not (math.isfinite(u_max) and u_max > 0.0):
        raise ValueError(f"clock horizon must be finite and positive, got {u_max!r}")
    n_steps = int(math.ceil(u_max / dv - 1e-9))
    ck = np.asarray(() if checkpoints is None else checkpoints, dtype=np.float64)
    if ck.ndim != 1:
        raise ValueError("checkpoints must be a strictly increasing 1-d array")
    if not np.all(np.isfinite(ck) & (ck >= 0.0)):
        raise ValueError("checkpoints must be finite and nonnegative clock times")
    if np.any(np.diff(ck) <= 0):
        raise ValueError("checkpoints must be a strictly increasing 1-d array")
    return n_steps, np.minimum(np.round(ck / dv).astype(np.int64), n_steps)


def _new_exits(n_paths: int, dv: float, n_steps: int, n_ck: int) -> ClockExits:
    """Exit record with every path alive at the horizon ``n_steps dv``.

    The checkpoint tracks (None without checkpoints) read NaN until recorded.
    """
    return ClockExits(
        dv=dv,
        u_max=n_steps * dv,
        n_paths=n_paths,
        u_exit=np.full(n_paths, n_steps * dv),
        x_exit=np.zeros(n_paths),
        raw_end=np.zeros(n_paths),
        exited=np.zeros(n_paths, dtype=bool),
        frozen=np.zeros(n_paths, dtype=bool),
        censored=np.zeros(n_paths, dtype=bool),
        sign=np.zeros(n_paths, dtype=np.int8),
        endpoint_detected=np.zeros(n_paths, dtype=bool),
        ckpt_pos=np.full((n_ck, n_paths), np.nan) if n_ck else None,
        ckpt_alive=np.zeros((n_ck, n_paths), dtype=bool) if n_ck else None,
    )


def _retire(exits: ClockExits, gi: np.ndarray, **fields) -> None:
    """Write each named per-path field of the retiring paths ``gi``."""
    for name, value in fields.items():
        getattr(exits, name)[gi] = value


def _fill_missing(exits: ClockExits) -> None:
    """Paths retired before a checkpoint keep their retirement state there."""
    if exits.ckpt_pos is not None:
        missing = ~exits.ckpt_alive & np.isnan(exits.ckpt_pos)
        exits.ckpt_pos[missing] = np.broadcast_to(exits.x_exit, missing.shape)[missing]


def _record_due(exits, ck_ext, cur, kk, pos, gi) -> np.ndarray:
    """Record ``pos`` at every checkpoint a path stands on; return the cursors.

    ``cur`` holds each path's next checkpoint index, ``ck_ext`` the
    checkpoint steps with a sentinel past the horizon.
    """
    due = ck_ext[cur] == kk
    while due.any():
        exits.ckpt_pos[cur[due], gi[due]] = pos[due]
        exits.ckpt_alive[cur[due], gi[due]] = True
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


def _fill_skips(exits, brng, a, b, x, bsum, cur, ck_ext, at, gi, w1, w2):
    """Fill in the checkpoints strictly inside the skips ``[a, b)``.

    A skip from state ``x`` at step ``a`` drew only its Brownian sum
    ``bsum``; each checkpoint inside it gets the Brownian bridge value drawn
    from ``brng``, plus the exact drift ``at``.  With weights, every
    checkpoint-interval piece gets its weighted sum given its Brownian sum.
    Returns the advanced cursors and the last piece's weighted sum (None
    without weights).
    """
    dv, weighted = exits.dv, exits.ckpt_wsum is not None
    s = ck_ext[cur]
    inside = s < b
    while inside.any():
        i = np.flatnonzero(inside)
        ai, si, left = a[i], s[i], b[i] - a[i]
        span = si - ai
        g = brng.standard_normal((2 if weighted else 1, i.size))
        piece = bsum[i] * (span / left) + np.sqrt(dv * span * (left - span) / left) * g[0]
        x[i] += (at[si] - at[ai]) + piece
        exits.ckpt_pos[cur[i], gi[i]] = x[i]
        exits.ckpt_alive[cur[i], gi[i]] = True
        if weighted:
            exits.ckpt_wsum[cur[i], gi[i]] += _piece_wsum(w1, w2, dv, ai, si, piece, g[1])
        bsum[i] -= piece
        a[i] = si
        cur[i] += 1
        s = ck_ext[cur]
        inside = s < b
    if not weighted:
        return cur, None
    return cur, _piece_wsum(w1, w2, dv, a, b, bsum, brng.standard_normal(a.size))


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
    not depend on the drift.  Paths are processed in fixed blocks of
    ``2**14`` paths with one Philox stream per block, so the exit is a pure
    function of the arguments, independent of scheduling.  The paths of a
    block take single steps in lockstep (near a barrier at all times, a path
    never skips), so a checkpoint is recorded on the pass that reaches its
    step.

    A step from ``x`` to ``x'`` exits when ``x'`` lies on or beyond a
    barrier (placed by linear interpolation inside the step), or when its
    uniform draw falls below the bridge crossing probability
    ``exp(-2 (1 - x)(1 - x') / dv) + exp(-2 (1 + x)(1 + x') / dv)`` (placed at
    mid-step, on the upper barrier when the draw falls below the first
    term).  The bridge test runs only on steps with an endpoint beyond
    :data:`NEAR_BARRIER`, or a uniform of exactly 0.  On any other step both
    terms are below ``2**-53``, the least positive uniform, so the test
    fails there too: every output bit is that of testing every step.

    ``stop_u`` retires a path at a per-path deterministic clock time (rounded
    down to the step grid) if it has not exited earlier.  ``checkpoints``
    records the state at fixed clock times (finite and nonnegative, rounded
    to the nearest step).
    """
    _check_n_paths(n_paths)
    _check_seed(seed)
    dv = DEFAULT_DV
    n_steps, ck_steps = _clock_steps(dv, u_max, checkpoints)
    n_ck = ck_steps.size
    drift = _as_per_path(drift, n_paths)
    if not np.all(np.isfinite(drift)):
        raise ValueError("clock drift rate must be finite")
    stop = np.full(n_paths, n_steps + 1, dtype=np.int64)  # per-path freezing step
    if stop_u is not None:
        stop_arr = _as_per_path(stop_u, n_paths)
        if not np.all(stop_arr >= 0.0):
            raise ValueError("stop clock times must be nonnegative (inf: never stop)")
        finite = np.isfinite(stop_arr)
        stop[finite] = np.floor(stop_arr[finite] / dv + 1e-9).astype(np.int64)

    exits = _new_exits(n_paths, dv, n_steps, n_ck)
    sq = math.sqrt(dv)
    moves = 0
    for blk_start in range(0, n_paths, _BLOCK_SIZE):
        rng = philox_stream(seed, *stream, "block", blk_start // _BLOCK_SIZE)
        gi = np.arange(blk_start, min(blk_start + _BLOCK_SIZE, n_paths))
        # per alive path: state, |state|, drift per step, freezing step
        pos, apos = np.zeros(gi.size), np.zeros(gi.size)
        rdv, stop_b = drift[gi] * dv, stop[gi]
        next_stop = int(stop_b.min())  # no alive path freezes before it
        ci = 0  # the block's next checkpoint
        for k in range(n_steps):
            while ci < n_ck and ck_steps[ci] == k:
                exits.ckpt_pos[ci, gi] = pos
                exits.ckpt_alive[ci, gi] = True
                ci += 1
            if next_stop <= k:
                fz = stop_b <= k
                _retire(exits, gi[fz], frozen=True, u_exit=stop_b[fz] * dv,
                        x_exit=pos[fz], raw_end=pos[fz])
                gi, pos, apos, rdv, stop_b = (v[~fz] for v in (gi, pos, apos, rdv, stop_b))
                next_stop = int(stop_b.min(initial=n_steps + 1))
            if gi.size == 0:
                break
            moves += gi.size

            z = rng.standard_normal(gi.size)
            uc = rng.random(gi.size)
            step = sq * z + rdv
            newpos = pos + step
            anew = np.abs(newpos)
            # the only steps on which the bridge test can pass (NEAR_BARRIER)
            c = np.flatnonzero((np.maximum(apos, anew) > NEAR_BARRIER) | (uc == 0.0))
            if c.size:
                x, x1, u = pos[c], newpos[c], uc[c]
                up = x1 >= 1.0
                hit = up | (x1 <= -1.0)
                p_up = np.exp(-2.0 * np.maximum(1.0 - x, 0.0)
                              * np.maximum(1.0 - x1, 0.0) / dv)
                p_down = np.exp(-2.0 * np.maximum(x + 1.0, 0.0)
                                * np.maximum(x1 + 1.0, 0.0) / dv)
                bridge = ~hit & (u < p_up + p_down)
                ex = hit | bridge
                if ex.any():
                    up_exit = up | (bridge & (u < p_up))
                    barrier = np.where(up_exit, 1.0, -1.0)
                    denom = np.where(step[c] == 0.0, np.inf, step[c])
                    theta = np.where(hit, np.clip((barrier - x) / denom, 0.0, 1.0), 0.5)
                    _retire(exits, gi[c[ex]], exited=True, u_exit=(k + theta[ex]) * dv,
                            x_exit=barrier[ex], raw_end=x1[ex],
                            sign=np.where(up_exit[ex], 1, -1), endpoint_detected=hit[ex])
                    keep = np.ones(gi.size, dtype=bool)
                    keep[c[ex]] = False
                    gi, newpos, anew, rdv, stop_b = (
                        v[keep] for v in (gi, newpos, anew, rdv, stop_b))
            pos, apos = newpos, anew

        if gi.size:  # censored at the horizon, where the last checkpoints sit
            _retire(exits, gi, censored=True, x_exit=pos, raw_end=pos)
            if n_ck:
                exits.ckpt_pos[ci:, gi] = pos
                exits.ckpt_alive[ci:, gi] = True
    _fill_missing(exits)
    exits.single_steps = moves
    return exits


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
    """First passage of ``X_v = B_v + drift_cum(v)`` below one scalar ``level < 0``.

    Euler steps of size ``dv`` (contract: ``0 < dv <= 1e-3``) with the same
    bridge correction and per-block streams as
    :func:`simulate_two_sided_exit`, against the one level.  The
    deterministic drift is the exact cumulative term ``drift_cum``,
    tabulated once per step boundary (it must be finite there), so it
    carries no Euler error.  ``checkpoints`` (finite, nonnegative, rounded
    to the nearest step) record the state; with ``weight_fn`` (which needs
    them, and must be finite at the step midpoints) the engine also
    accumulates ``sum weight_fn(v_mid) * dB`` per checkpoint interval (the
    Brownian part only), which callers use to reconstruct time-grid Wiener
    increments from the clock path.
    ``x_exit`` is snapped to the level for detected crossings; ``raw_end``
    keeps the raw end-of-step state, and for censored paths ``x_exit`` is the
    running state at ``v_max`` (callers use it for analytic closure of
    first-passage transforms).

    Each path keeps its own step index.  While it is farther above its level
    than ``SKIP_Z sqrt(m dv) + r m dv`` (``r``: the largest per-step drift
    over ``dv``), its next ``m`` Euler steps (the largest power of two up to
    :data:`SKIP_MAX` that fits, capped at the horizon) are one draw
    ``N(drift_cum(v + m dv) - drift_cum(v), m dv)``.  The Euler chain would
    have crossed inside such a skip with probability below
    ``2 Phi(-SKIP_Z)``, about 1e-15 at ``SKIP_Z = 8``; near the level the
    engine takes single steps with the bridge test, so the crossing and
    overshoot law is the Euler one.  Checkpoints never cap a skip: one
    inside it, and each checkpoint interval's weighted sum over it, are
    drawn given the skip's Brownian sum from the stream
    ``(seed, *stream, "bridge", block)``; the main stream and every exit
    field are the same with or without checkpoints.  ``SKIP_Z = inf``
    switches skipping off and gives the plain Euler chain's bits.
    """
    _check_n_paths(n_paths)
    _check_seed(seed)
    n_steps, ck_steps = _clock_steps(dv, v_max, checkpoints)
    n_ck = ck_steps.size
    if weight_fn is not None and not n_ck:
        raise ValueError("weight_fn needs checkpoints: its sums are kept per "
                         "checkpoint interval")
    if not (math.isfinite(level) and level < 0.0):
        raise ValueError("crossing level must be finite and negative "
                         "(paths start at 0)")
    at = np.fromiter((drift_cum(k * dv) for k in range(n_steps + 1)),
                     np.float64, n_steps + 1)
    # drift_cum at each step's end, made each step's increment in place
    inc = np.fromiter((drift_cum(k * dv + dv) for k in range(n_steps)),
                      np.float64, n_steps)
    if not (np.all(np.isfinite(at)) and np.all(np.isfinite(inc))):
        raise ValueError("drift_cum must be finite at every step boundary")
    inc -= at[:-1]
    lengths = 2 ** np.arange(int(math.log2(SKIP_MAX)) + 1)
    # need(m) = SKIP_Z sqrt(m dv) + r m dv, with r = max |inc| / dv
    need = SKIP_Z * np.sqrt(lengths * dv) + np.abs(inc).max() * lengths
    jumps = np.r_[1, lengths]  # jumps[j]: the longest of the j lengths that fit
    ck_ext = np.r_[ck_steps, n_steps + 1]

    exits = _new_exits(n_paths, dv, n_steps, n_ck)
    weighted = weight_fn is not None
    w1 = w2 = None
    if weighted:
        w = np.fromiter((weight_fn((k + 0.5) * dv) for k in range(n_steps)),
                        np.float64, n_steps)
        if not np.all(np.isfinite(w)):
            raise ValueError("weight_fn must be finite at every step midpoint")
        w1 = np.r_[0.0, np.cumsum(w)]
        w2 = np.r_[0.0, np.cumsum(w * w)]
        exits.ckpt_wsum = np.zeros((n_ck + 1, n_paths))

    sq = math.sqrt(dv)
    moves = skips = skip_exits = 0
    for blk_start in range(0, n_paths, _BLOCK_SIZE):
        rng = philox_stream(seed, *stream, "block", blk_start // _BLOCK_SIZE)
        brng = philox_stream(seed, *stream, "bridge", blk_start // _BLOCK_SIZE)
        gi = np.arange(blk_start, min(blk_start + _BLOCK_SIZE, n_paths))
        pos = np.zeros(gi.size)
        kk = np.zeros(gi.size, dtype=np.int64)  # steps taken, per path
        if n_ck:
            cur = _record_due(exits, ck_ext, np.zeros(gi.size, dtype=np.int64), kk,
                              pos, gi)
        while gi.size:  # every path advances at least one step per pass
            moves += gi.size
            z = rng.standard_normal(gi.size)
            uc = rng.random(gi.size)
            m = np.minimum(jumps[np.searchsorted(need, pos - level)], n_steps - kk)
            end = kk + m
            span = m * dv
            bsum = np.sqrt(span) * z
            step = bsum + np.where(m == 1, inc[kk], at[end] - at[kk])
            sk = m > 1
            n_sk = int(np.count_nonzero(sk))
            skips += n_sk
            newpos = pos + step
            hit = newpos <= level
            p_cross = np.exp(-2.0 * np.clip(pos - level, 0.0, None)
                             * np.clip(newpos - level, 0.0, None) / span)
            ex = hit | (uc < p_cross)

            if n_ck:
                if weighted:
                    wstep = w[kk] * sq * z
                if n_sk:
                    i = np.flatnonzero(sk)
                    cur[i], last = _fill_skips(exits, brng, kk[i], end[i], pos[i],
                                               bsum[i], cur[i], ck_ext, at, gi[i], w1, w2)
                    if weighted:
                        wstep[i] = last
                if weighted:  # cur is this step's checkpoint interval
                    exits.ckpt_wsum[cur, gi] += wstep

            if ex.any():
                denom = np.where(step == 0.0, np.inf, step)
                theta = np.where(hit, np.clip((level - pos) / denom, 0.0, 1.0), 0.5)
                _retire(exits, gi[ex], exited=True, u_exit=(kk[ex] + theta[ex] * m[ex]) * dv,
                        x_exit=level, raw_end=newpos[ex], sign=-1,
                        endpoint_detected=hit[ex])
                skip_exits += int(np.count_nonzero(sk[ex]))

            gi, pos, kk = gi[~ex], newpos[~ex], end[~ex]
            if n_ck:
                cur = _record_due(exits, ck_ext, cur[~ex], kk, pos, gi)
            fin = kk == n_steps
            if fin.any():  # censored at the horizon
                _retire(exits, gi[fin], censored=True, x_exit=pos[fin], raw_end=pos[fin])
                gi, pos, kk = gi[~fin], pos[~fin], kk[~fin]
                if n_ck:
                    cur = cur[~fin]
    _fill_missing(exits)
    exits.single_steps = moves - skips
    exits.skips = skips
    exits.skip_exits = skip_exits
    return exits


# ---------------------------------------------------------------------------
# Hitting clocks on the grid horizon
# ---------------------------------------------------------------------------


def hitting_time(ensemble: PathEnsemble) -> ClockExits:
    """The ensemble's driftless clock exit, :attr:`PathEnsemble.clock_exit`.

    ``u_exit`` is the clock exit time of ``|B_u| >= 1`` started at ``T/2``
    (clock origin), on the grid's clock horizon ``log((T/2)/gap)``;
    survivors are censored and flagged.  Drifted two-sided clocks belong to
    the drifted catalog kinds and are simulated by
    :func:`qbsde.catalog.evaluate_mpr`.
    """
    return ensemble.clock_exit


def exit_time_exp_moment(clock: ClockExits, c: float) -> tuple[float, float]:
    """Mean and standard error of ``exp(c^2 pi^2 / 8 * H)``, ``H = clock.u_exit``.

    Censored paths contribute at their censoring depth (a lower bound whose
    bias at the default truncation is orders below the stated tolerances).
    By the cosine law the moment is ``1/cos(c pi/2)`` for ``|c| < 1`` and
    infinite once the rate ``c^2 pi^2 / 8`` reaches the driftless exit law's
    decay rate ``pi^2 / 8``; there the result is ``(inf, nan)``, never a
    finite sample mean.
    """
    if not math.isfinite(c):
        raise ValueError(f"moment scale c must be finite, got {c!r}")
    if clock.u_exit.size < 2:
        raise ValueError("a standard error needs at least 2 exit times, got "
                         f"{clock.u_exit.size}")
    rate = c * c * math.pi * math.pi / 8.0
    if rate >= math.pi * math.pi / 8.0:
        return math.inf, math.nan
    vals = np.exp(rate * clock.u_exit)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    return mean, se
