"""Clock exit engine: hitting times, censoring, exit-time transforms."""

import hashlib
import inspect
import math
import warnings

import numpy as np
import pytest

import qbsde
from qbsde import (
    TRAITS,
    catalog,
    classify,
    clock_coefficients,
    core,
    critical_exponent,
    evaluate_mpr,
    exit_time_exp_moment,
    hitting_time,
    mpr_nosol,
    mpr_scaled,
    mpr_sigma_gamma,
    mpr_tilde,
    psi_unconditional,
    reverse_holder,
    sample_paths,
    scaled_params,
)
from qbsde.core import simulate_line_hit, simulate_two_sided_exit


def test_hitting_time_basic_laws(ens_mid):
    clock = hitting_time(ens_mid)
    assert np.all(clock.u_exit[clock.exited] > 0.0)
    assert set(np.unique(clock.sign[clock.exited])) <= {-1.0, 1.0}
    # Two-sided exit survival decays like exp(-pi^2 u / 8); at the default
    # clock depth ~13.2 censoring is astronomically unlikely.
    assert clock.censored_fraction == 0.0


def test_hitting_time_deterministic_in_seed(ens_mid):
    a = hitting_time(ens_mid)
    b = hitting_time(ens_mid)
    assert np.array_equal(a.u_exit, b.u_exit)


def test_exit_mean_matches_known_value(ens_mid):
    # E[H] = E[inf u: |B_u| = 1] = 1 for the unit two-sided exit.
    clock = hitting_time(ens_mid)
    se = clock.u_exit.std(ddof=1) / math.sqrt(clock.u_exit.size)
    assert abs(clock.u_exit.mean() - 1.0) <= 4.0 * se


@pytest.mark.parametrize("c", [0.3, 0.5])
def test_exit_exp_moment_against_cosine_law(ens_mid, c):
    # E[exp(c^2 pi^2/8 H)] = 1/cos(c pi/2) for c in (0,1).
    clock = hitting_time(ens_mid)
    mean, se = exit_time_exp_moment(clock, c)
    target = 1.0 / math.cos(c * math.pi / 2.0)
    assert abs(mean - target) <= max(4.0 * se, 0.02 * target)


def test_exit_exp_moment_flags_infinite_moments(ens_mid):
    # 1/cos(c pi/2) diverges for |c| >= 1: no finite sample mean is reported.
    clock = hitting_time(ens_mid)
    for c in (1.0, -1.0, 1.5):
        mean, se = exit_time_exp_moment(clock, c)
        assert mean == math.inf and math.isnan(se), c
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            exit_time_exp_moment(clock, c)


def test_exit_exp_moment_needs_two_exit_times():
    one = simulate_two_sided_exit(1, u_max=6.0, seed=11, stream=("unit-test-one",))
    for c in (0.5, 1.5):
        with pytest.raises(ValueError, match="2 exit times"):
            exit_time_exp_moment(one, c)


def _drifted_exit(ens, mu):
    """The two-sided exit of ``B_u + mu u`` over the ensemble's clock depth."""
    return simulate_two_sided_exit(ens.n_paths, u_max=ens.grid.clock_depth,
                                   seed=ens.seed, stream=("unit-test-drift", mu),
                                   drift=mu)


def _exp_moment(H, c):
    vals = np.exp(c * c * math.pi**2 / 8.0 * H)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def test_drifted_exit_moment_is_finite_past_the_driftless_rate(ens_mid):
    # By Girsanov a drifted clock keeps the moment finite up to the rate
    # pi^2/8 + mu^2/2, i.e. c^2 < 1 + 4 mu^2 / pi^2; at c = 1.05 it is
    # cosh(mu) / cosh(sqrt(mu^2 - 1.05^2 pi^2 / 4)) = 2.006.
    mu = 2.0 * math.pi / math.sqrt(8.0)
    H = _drifted_exit(ens_mid, mu).u_exit
    mean, se = _exp_moment(H, 1.05)
    assert math.isfinite(mean) and math.isfinite(se) and 1.9 < mean < 2.1
    c_crit = math.sqrt(1.0 + 4.0 * mu * mu / math.pi**2)
    assert math.isfinite(_exp_moment(H, 0.999 * c_crit)[0])


def test_drifted_clock_biases_exit_side(ens_mid):
    exits = _drifted_exit(ens_mid, 1.0 * math.pi * 0.8 / math.sqrt(8.0))
    up = float(np.mean(exits.sign[exits.exited] > 0))
    assert up > 0.6  # positive drift pushes the exit to the upper barrier


def test_two_sided_exit_engine_contract(ens_small):
    exits = simulate_two_sided_exit(4000, u_max=6.0, seed=11,
                                    stream=("unit-test",))
    # Bridge-corrected exits land exactly on a barrier.
    assert np.allclose(np.abs(exits.x_exit[exits.exited]), 1.0, atol=1e-12)
    assert np.all(exits.u_exit <= 6.0 + 1e-3)
    # Censored survivors sit at the horizon with |state| < 1.
    cen = exits.censored
    if cen.any():
        assert np.all(np.abs(exits.x_exit[cen]) < 1.0)
        assert np.allclose(exits.u_exit[cen], 6.0, atol=1e-12)
    # Survival at u=6 is about exp(-pi^2 * 6 / 8) ~ 6e-4.
    assert exits.censored_fraction < 0.01
    for bad in (dict(u_max=-1.0), dict(u_max=math.nan), dict(u_max=math.inf),
                dict(u_max=6.0, drift=math.nan),
                dict(u_max=6.0, stop_u=np.full(100, math.nan)),
                dict(u_max=6.0, stop_u=np.full(100, -1.0))):
        with pytest.raises(ValueError):
            simulate_two_sided_exit(100, seed=11, **bad)
    for ck in ([math.nan, 0.5], [0.5, math.inf], [-0.1, 0.5]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate_two_sided_exit(100, u_max=1.0, seed=11, checkpoints=np.array(ck))
    for n in (0, -3, 2.5, "100"):
        with pytest.raises(ValueError, match="n_paths"):
            simulate_two_sided_exit(n, u_max=1.0, seed=11)
    # A float seed is not truncated to its integer part; an integer seed,
    # Python or numpy, draws the same exit.
    for seed in (11.5, 11.0, math.nan, "11", None):
        with pytest.raises(ValueError, match="seed"):
            simulate_two_sided_exit(4000, u_max=6.0, seed=seed, stream=("unit-test",))
    again = simulate_two_sided_exit(4000, u_max=6.0, seed=np.int64(11),
                                    stream=("unit-test",))
    assert _exit_digest(again) == _exit_digest(exits)


def test_stop_u_truncates_exit():
    stop = np.full(1000, 0.5)
    exits = simulate_two_sided_exit(1000, u_max=6.0, seed=12,
                                    stream=("unit-test-cut",), stop_u=stop)
    assert np.all(exits.u_exit <= 0.5 + 1e-9)
    # Paths cut before reaching a barrier keep their interior state.
    interior = ~exits.exited & ~exits.censored
    assert interior.any()
    assert np.all(np.abs(exits.x_exit[interior]) < 1.0)


def test_stop_u_with_infinite_entries_is_silent():
    stop = np.full(1000, 0.5)
    stop[::2] = np.inf  # these paths are never stopped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exits = simulate_two_sided_exit(1000, u_max=6.0, seed=12,
                                        stream=("unit-test-cut",), stop_u=stop)
    assert not exits.frozen[::2].any()
    assert exits.frozen[1::2].any()


def test_line_hit_engine_contract():
    v_max = 3.0
    drift_cum = lambda v: -0.5 * v  # noqa: E731
    level = -0.8
    exits = simulate_line_hit(2000, v_max=v_max, seed=14, stream=("unit-test-line",),
                              level=level, drift_cum=drift_cum,
                              checkpoints=np.array([0.2, 1.0, 2.5]),
                              weight_fn=lambda v: 1.0)
    # Detected crossings sit exactly on the level.
    assert np.all(exits.x_exit[exits.exited] == level)
    assert np.all(exits.u_exit <= exits.u_max)
    cen = exits.censored
    assert cen.any() and exits.exited.any()
    assert np.all(exits.x_exit[cen] > level)
    # With unit weight the checkpoint sums telescope to the Brownian part of
    # the state at the horizon.
    bm_part = exits.x_exit[cen] - drift_cum(exits.u_max)
    assert np.allclose(exits.ckpt_wsum[:, cen].sum(axis=0), bm_part, rtol=0.0,
                       atol=1e-12)
    for bad in (0.0, 0.5, math.nan, -math.inf):
        with pytest.raises(ValueError, match="negative"):
            simulate_line_hit(2000, v_max=v_max, seed=14, level=bad,
                              drift_cum=drift_cum)
    for dv in (0.0, -1e-3, 2e-3, math.nan):
        with pytest.raises(ValueError, match="contract"):
            simulate_line_hit(2000, dv=dv, v_max=v_max, seed=14, level=-0.5,
                              drift_cum=drift_cum)
    with pytest.raises(ValueError, match="horizon"):
        simulate_line_hit(2000, v_max=-1.0, seed=14, level=-0.5, drift_cum=drift_cum)
    # Weighted sums are kept per checkpoint interval: none without checkpoints.
    for ck in (None, np.array([])):
        with pytest.raises(ValueError, match="checkpoints"):
            simulate_line_hit(2000, v_max=v_max, seed=14, level=-0.5,
                              drift_cum=drift_cum, checkpoints=ck,
                              weight_fn=lambda v: 1.0)
    # Non-finite checkpoints, drift or weights fail before any step is drawn.
    ck = np.array([0.1, 1.0])
    for bad in (dict(checkpoints=np.array([0.1, math.nan])),
                dict(checkpoints=np.array([0.1, math.inf])),
                dict(checkpoints=np.array([-0.1, 0.5])),
                dict(drift_cum=lambda v: math.nan),
                dict(drift_cum=lambda v: math.inf),
                dict(drift_cum=lambda v: -0.5 * v if v < 1.0 else -math.inf),
                dict(checkpoints=ck, weight_fn=lambda v: math.nan),
                dict(checkpoints=ck, weight_fn=lambda v: math.inf if v > 2.0 else 1.0)):
        with pytest.raises(ValueError, match="finite"):
            simulate_line_hit(300, v_max=v_max, seed=14, level=-0.5,
                              **{"drift_cum": drift_cum, **bad})
    for n in (0, -3, 2.5, "100"):
        with pytest.raises(ValueError, match="n_paths"):
            simulate_line_hit(n, v_max=v_max, seed=14, level=-0.5, drift_cum=drift_cum)
    for seed in (14.5, 14.0, math.nan, "14", None):
        with pytest.raises(ValueError, match="seed"):
            simulate_line_hit(300, v_max=v_max, seed=seed, level=-0.5,
                              drift_cum=drift_cum)
    small = dict(v_max=v_max, stream=("unit-test-line",), level=-0.5,
                 drift_cum=drift_cum)
    ref = simulate_line_hit(300, seed=14, **small)
    same = simulate_line_hit(300, seed=np.int64(14), **small)
    assert np.array_equal(same.u_exit, ref.u_exit)
    assert np.array_equal(same.x_exit, ref.x_exit)


@pytest.mark.parametrize("engine", ["two_sided", "line_hit"])
def test_checkpoints_leave_exits_unchanged(engine):
    # Recording the state at checkpoints draws no random numbers, so the
    # exits with and without checkpoints are the same bits.
    if engine == "two_sided":
        simulate = simulate_two_sided_exit
        kwargs = dict(u_max=6.0, seed=13, stream=("unit-test-ck",), drift=0.3)
    else:
        simulate = simulate_line_hit
        kwargs = dict(v_max=3.0, seed=13, stream=("unit-test-ck",), level=-0.6,
                      drift_cum=lambda v: 0.2 * math.log1p(v) - 0.5 * v)
    plain = simulate(1500, **kwargs)
    marked = simulate(1500, checkpoints=np.array([0.1, 0.5, 2.0]), **kwargs)
    for name in ("u_exit", "x_exit", "raw_end", "exited", "censored", "sign",
                 "endpoint_detected"):
        assert np.array_equal(getattr(plain, name), getattr(marked, name)), name
    assert plain.ckpt_pos is None and marked.ckpt_pos.shape == (3, 1500)


def _line_digest(exits) -> str:
    h = hashlib.sha256()
    for name in ("u_exit", "x_exit", "raw_end", "ckpt_pos", "ckpt_wsum"):
        value = getattr(exits, name)
        if value is not None:
            h.update(value.tobytes())
    return h.hexdigest()


def _weighted_line_hit():
    # Checkpoints on the first and the last step, weights T/(1+Tv).
    return simulate_line_hit(
        1500, v_max=3.0, seed=17, stream=("unit-test-skip",), level=-0.6,
        drift_cum=lambda v: -0.5 * math.log1p(v) - 0.5 * v,
        checkpoints=np.array([0.0, 0.1, 0.5, 2.0, 3.0]),
        weight_fn=lambda v: 1.0 / (1.0 + v))


def _mult_rep_line():
    # mult_rep(1, 4)'s line: level -log 4, drift -v/2, horizon 8.
    return simulate_line_hit(
        2000, v_max=8.0, seed=20240817, stream=("mrep", 4.0, 1.0),
        level=-math.log(4.0), drift_cum=lambda v: -0.5 * v)


def test_line_hit_without_skips_is_the_euler_chain(monkeypatch):
    # With skipping off every path takes single Euler steps in lockstep:
    # the bits are those of the plain Euler + bridge engine, recorded before
    # the skip-ahead existed.
    monkeypatch.setattr(core, "SKIP_Z", math.inf)
    weighted = _weighted_line_hit()
    line = _mult_rep_line()
    assert _line_digest(weighted) == (
        "add31c3424d64092b25f97e18064d43be789e14a85986b541fcc37ddcc39884f")
    assert _line_digest(line) == (
        "b0b68a02d28f9dfdf31da003ab1d64ed0c453c4cb19fca881bf13245e55eb76c")
    for exits in (weighted, line):
        assert exits.skips == 0 and exits.single_steps > 0


def _exit_digest(exits) -> str:
    """SHA-256 of every field of an exit, in declaration order."""
    h = hashlib.sha256()
    for name, value in vars(exits).items():
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(value.dtype.str.encode() + value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


PINNED_EXITS = {
    "driftless": "9da92b9be8851876d48f7291b10d9ba865cb237a25bad004edb597052d975308",
    "cut": "31aa9f01731e3f8d230a3040f8c0e947ff3811e5377dcce4aae574baa7fda1a1",
    "drifted": "f871f307f6c55675990d22b09f3e7ba9b8b774a8b30dffec709c4eab0a80137c",
}


def test_two_sided_exit_bits_are_pinned(grid):
    # Three 20000-path exits (two engine blocks each): driftless on the
    # clock nodes, cut by a per-path stop (every third never stops), and
    # drifted on the clock nodes.  The digests were recorded when one Euler
    # loop still ran both clock engines.
    n = 20000
    stop = np.linspace(0.0, 3.0, n)
    stop[::3] = np.inf
    exits = {
        "driftless": simulate_two_sided_exit(
            n, u_max=grid.clock_depth, seed=21, stream=("unit-test-pin",),
            checkpoints=grid.clock_nodes),
        "cut": simulate_two_sided_exit(
            n, u_max=grid.clock_depth, seed=22, stream=("unit-test-pin-cut",),
            stop_u=stop),
        "drifted": simulate_two_sided_exit(
            n, u_max=grid.clock_depth, seed=23, stream=("unit-test-pin-drift",),
            drift=np.linspace(-1.5, 1.5, n), checkpoints=grid.clock_nodes),
    }
    assert {name: _exit_digest(e) for name, e in exits.items()} == PINNED_EXITS


def _every_step_euler(n_paths, *, u_max, seed, stream, drift, stop_u, checkpoints):
    """The two-sided exit with the bridge test on every step: the reference.

    The loop of ``simulate_two_sided_exit`` before it confined the test to
    steps near a barrier, kept as the definition that engine must reproduce.
    """
    dv = core.DEFAULT_DV
    n_steps, ck_steps = core._clock_steps(dv, u_max, checkpoints)
    n_ck = ck_steps.size
    drift = core._as_per_path(drift, n_paths)
    stop = None
    if stop_u is not None:
        stop_arr = core._as_per_path(stop_u, n_paths)
        finite = np.isfinite(stop_arr)
        stop = np.full(n_paths, n_steps + 1, dtype=np.int64)
        stop[finite] = np.floor(stop_arr[finite] / dv + 1e-9).astype(np.int64)
    exits = core._new_exits(n_paths, dv, n_steps, n_ck)
    sq = math.sqrt(dv)
    moves = 0
    for blk_start in range(0, n_paths, core._BLOCK_SIZE):
        rng = core.philox_stream(seed, *stream, "block", blk_start // core._BLOCK_SIZE)
        gi = np.arange(blk_start, min(blk_start + core._BLOCK_SIZE, n_paths))
        pos = np.zeros(gi.size)
        ci = 0
        for k in range(n_steps):
            while ci < n_ck and ck_steps[ci] == k:
                exits.ckpt_pos[ci, gi] = pos
                exits.ckpt_alive[ci, gi] = True
                ci += 1
            if stop is not None:
                fz = stop[gi] <= k
                if fz.any():
                    core._retire(exits, gi[fz], frozen=True, u_exit=stop[gi[fz]] * dv,
                                 x_exit=pos[fz], raw_end=pos[fz])
                    gi, pos = gi[~fz], pos[~fz]
            if gi.size == 0:
                break
            moves += gi.size
            z = rng.standard_normal(gi.size)
            uc = rng.random(gi.size)
            step = sq * z + drift[gi] * dv
            newpos = pos + step
            up = newpos >= 1.0
            hit = up | (newpos <= -1.0)
            p_up = np.exp(-2.0 * np.clip(1.0 - pos, 0.0, None)
                          * np.clip(1.0 - newpos, 0.0, None) / dv)
            p_down = np.exp(-2.0 * np.clip(pos + 1.0, 0.0, None)
                            * np.clip(newpos + 1.0, 0.0, None) / dv)
            bridge = ~hit & (uc < p_up + p_down)
            ex = hit | bridge
            if ex.any():
                up_exit = up | (bridge & (uc < p_up))
                barrier = np.where(up_exit, 1.0, -1.0)
                denom = np.where(step == 0.0, np.inf, step)
                theta = np.where(hit, np.clip((barrier - pos) / denom, 0.0, 1.0), 0.5)
                core._retire(exits, gi[ex], exited=True, u_exit=(k + theta[ex]) * dv,
                             x_exit=barrier[ex], raw_end=newpos[ex],
                             sign=np.where(up_exit[ex], 1, -1), endpoint_detected=hit[ex])
            gi, pos = gi[~ex], newpos[~ex]
        if gi.size:
            core._retire(exits, gi, censored=True, x_exit=pos, raw_end=pos)
            if n_ck:
                exits.ckpt_pos[ci:, gi] = pos
                exits.ckpt_alive[ci:, gi] = True
    core._fill_missing(exits)
    exits.single_steps = moves
    return exits


class _ZeroUniforms:
    """A block stream whose every 50th uniform draw is exactly 0.0."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_normal(self, size):
        return self.rng.standard_normal(size)

    def random(self, size):
        u = self.rng.random(size)
        u[(self.drawn + np.arange(size)) % 50 == 0] = 0.0
        self.drawn += size
        return u


@pytest.mark.parametrize("shape", ["driftless", "cut", "drifted"])
def test_near_barrier_pass_matches_every_step_test(shape, grid, monkeypatch):
    # Several blocks, and zero uniforms, on which the bridge test passes
    # wherever its probability is positive, however far from a barrier.
    monkeypatch.setattr(core, "_BLOCK_SIZE", 256)
    stream = core.philox_stream
    monkeypatch.setattr(core, "philox_stream",
                        lambda *key: _ZeroUniforms(stream(*key)))
    n = 1000
    stop = np.linspace(0.0, 3.0, n)
    stop[::3] = np.inf
    kwargs = dict(u_max=grid.clock_depth, seed=24, stream=("unit-test-near", shape),
                  drift=0.0, stop_u=None, checkpoints=grid.clock_nodes)
    kwargs.update({"cut": dict(stop_u=stop, checkpoints=None),
                   "drifted": dict(drift=np.linspace(-1.5, 1.5, n))}.get(shape, {}))
    fast = simulate_two_sided_exit(n, **kwargs)
    ref = _every_step_euler(n, **kwargs)
    assert fast.exited.any() and (fast.frozen.any() or shape != "cut")
    for name, value in vars(ref).items():
        if isinstance(value, np.ndarray):
            assert value.dtype == getattr(fast, name).dtype, name
            assert value.tobytes() == getattr(fast, name).tobytes(), name
        else:
            assert value == getattr(fast, name), name


def test_near_barrier_bound_is_below_every_positive_uniform():
    # Bridge probability of a step with both ends within NEAR_BARRIER.
    bound = 2.0 * math.exp(-2.0 * (1.0 - core.NEAR_BARRIER) ** 2 / core.DEFAULT_DV)
    assert bound < 2.0**-53


def test_engines_count_their_moves():
    line = _mult_rep_line()
    assert line.skips > 0 and line.single_steps > 0
    assert line.skip_exits == 0
    # Each move advances a path by at least one Euler step.
    euler_steps = np.ceil(line.u_exit / line.dv - 1e-9).sum()
    assert line.single_steps + line.skips < euler_steps
    two = simulate_two_sided_exit(1000, u_max=3.0, seed=18, stream=("unit-test-moves",))
    assert two.skips == 0 and two.skip_exits == 0 and two.single_steps > 0


def test_skip_pieces_carry_the_bridge_law():
    # Far from its level every path skips, so each checkpoint state is a
    # Brownian bridge value and each interval's weighted sum is drawn given
    # its piece of the skip: their variances must be v and dv sum(w^2).
    n, v_max = 20000, 8.0
    ck = np.array([0.25, 1.0, 3.0, 7.0])
    weight = lambda v: 1.0 / (1.0 + v)  # noqa: E731  (T = 1)
    exits = simulate_line_hit(n, v_max=v_max, seed=19, stream=("unit-test-pieces",),
                              level=-60.0, drift_cum=lambda v: 0.0, checkpoints=ck,
                              weight_fn=weight)
    assert exits.censored.all() and exits.single_steps == 0 and exits.skips == 2 * n
    band = 4.0 * math.sqrt(2.0 / (n - 1))  # relative SE of a sample variance
    for j, v in enumerate(ck):
        assert abs(np.var(exits.ckpt_pos[j], ddof=1) / v - 1.0) <= band, v
    dv = exits.dv
    steps = np.round(np.r_[0.0, ck, v_max] / dv).astype(int)
    for j, (a, b) in enumerate(zip(steps[:-1], steps[1:])):
        w = np.array([weight((k + 0.5) * dv) for k in range(a, b)])
        target = dv * np.sum(w * w)
        assert abs(np.var(exits.ckpt_wsum[j], ddof=1) / target - 1.0) <= band, j


def test_hitting_time_reads_the_shared_exit(grid, monkeypatch):
    ens = sample_paths(grid, 600, seed=31)  # fresh: no exit simulated yet
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("stream"))
        return simulate_two_sided_exit(*args, **kwargs)

    monkeypatch.setattr(core, "simulate_two_sided_exit", counting)
    monkeypatch.setattr(catalog, "simulate_two_sided_exit", counting)
    clock = hitting_time(ens)
    fn = evaluate_mpr(mpr_nosol(-1.0), ens)
    assert calls == [("hit", 0.0)]  # one engine call serves both
    assert np.array_equal(clock.u_exit, fn.u_kill)
    assert fn.clock is clock is ens.clock_exit
    # The same bits as the explicitly zero-drift engine call on that stream.
    direct = simulate_two_sided_exit(600, u_max=grid.clock_depth, seed=31,
                                     stream=("hit", 0.0), drift=0.0)
    assert np.array_equal(clock.u_exit, direct.u_exit)
    assert np.array_equal(clock.sign, direct.sign)


def test_shared_exit_is_read_only(ens_small):
    # Every clock the ensemble keeps, and the cut kept with the cut clock, is
    # read-only, and carries the bits of a direct engine call on its stream.
    grid, n, seed = ens_small.grid, ens_small.n_paths, ens_small.seed
    fns = {spec.kind: evaluate_mpr(spec, ens_small)
           for spec in (mpr_nosol(-1.0), mpr_sigma_gamma(-1.0), mpr_tilde(0.5))}
    assert fns["nosol"].clock is ens_small.clock_exit
    for fn in fns.values():
        arrays = [v for v in vars(fn.clock).values() if isinstance(v, np.ndarray)]
        assert len(arrays) >= 10  # exit data plus the checkpoint tracks
        assert not any(a.flags.writeable for a in arrays)
    cut = fns["sigma_gamma"].u_sigma
    assert not cut.flags.writeable
    with pytest.raises(ValueError):
        hitting_time(ens_small).u_exit[0] = 0.0
    with pytest.raises(ValueError):
        cut[0] = 0.0
    direct = {
        "nosol": simulate_two_sided_exit(
            n, u_max=grid.clock_depth, seed=seed, stream=("hit", 0.0),
            checkpoints=grid.clock_nodes),
        "sigma_gamma": simulate_two_sided_exit(
            n, u_max=grid.clock_depth, seed=seed, stream=("hit-cut",),
            stop_u=np.array(cut), checkpoints=grid.clock_nodes),
        "tilde": simulate_two_sided_exit(
            n, u_max=grid.clock_depth, seed=seed, stream=("hit-drift", 0.5),
            drift=clock_coefficients(mpr_tilde(0.5), fns["tilde"].alpha)[1],
            checkpoints=grid.clock_nodes),
    }
    for kind, exits in direct.items():
        assert _exit_digest(exits) == _exit_digest(fns[kind].clock), kind


def test_only_engines_and_mult_rep_take_a_clock_step():
    # Record types (ClockExits, MultRepResult) keep the step they ran with;
    # of the functions, only these take one.
    takes_dv = sorted(
        name for name in qbsde.__all__
        if inspect.isfunction(getattr(qbsde, name))
        and "dv" in inspect.signature(getattr(qbsde, name)).parameters
    )
    assert takes_dv == ["mult_rep", "simulate_line_hit"]


def _counting_engine(monkeypatch) -> list:
    """Count the engine calls of the two modules that build clocks.

    Returns the list of the streams the engine ran on, one per call.
    """
    runs = []

    def counting(*args, **kwargs):
        runs.append(kwargs["stream"])
        return simulate_two_sided_exit(*args, **kwargs)

    for module in (core, catalog):
        monkeypatch.setattr(module, "simulate_two_sided_exit", counting)
    return runs


_BELOW = scaled_params(-1.0, 2.0, mode="below")


@pytest.mark.parametrize("spec", [mpr_sigma_gamma(-1.0), mpr_tilde(0.5),
                                  mpr_scaled(-1.0, *_BELOW)],
                         ids=["cut", "drifted", "scaled"])
def test_one_clock_simulation_per_construction(spec, grid, monkeypatch):
    # Every check evaluates the construction itself; on one fresh ensemble
    # all of them read one exit per stream, whether or not they read the
    # node tracks.
    ens = sample_paths(grid, 600, seed=48)
    runs = _counting_engine(monkeypatch)
    psi_unconditional(spec, -1.0, ens)
    reverse_holder(spec, -1.0, ens)
    critical_exponent(spec, ens)
    if TRAITS[spec.kind].drifted:
        classify(spec, -1.0, ens, with_exponent=True)
        critical_exponent(spec, ens)
    stream = ("hit-drift", spec.b) if TRAITS[spec.kind].drifted else ("hit-cut",)
    assert runs == [stream]


def test_signed_zero_slopes_are_two_clocks(grid, monkeypatch):
    # 0.0 == -0.0, yet ("hit-drift", -0.0) is another Philox stream.
    ens = sample_paths(grid, 300, seed=49)
    runs = _counting_engine(monkeypatch)
    plus, minus = (evaluate_mpr(mpr_tilde(b), ens) for b in (0.0, -0.0))
    assert len(runs) == 2
    assert _exit_digest(plus.clock) != _exit_digest(minus.clock)


def test_classify_scales_run_each_distinct_exit_once(grid, monkeypatch):
    runs = _counting_engine(monkeypatch)
    cuts = []
    from_w_half = catalog.SigmaSampler.from_w_half

    def counting_cut(self, w_half):
        cuts.append(np.size(w_half))
        return from_w_half(self, w_half)

    monkeypatch.setattr(catalog.SigmaSampler, "from_w_half", counting_cut)
    # Two ensembles of one seed and grid: each owns the clocks simulated on it.
    ensembles = [sample_paths(grid, 600, seed=47) for _ in range(2)]
    per_ensemble = []
    for ens in ensembles:
        before = len(runs)
        for c in (0.5, 1.0, 1.5):
            classify(mpr_sigma_gamma(-1.0).with_scale(c), -1.0, ens, with_exponent=False)
        per_ensemble.append(runs[before:])
    # The scales repeat one exit, which the engine runs once per ensemble ...
    assert per_ensemble == [[("hit-cut",)], [("hit-cut",)]]
    # ... and the ensemble-sized cut is mapped once per ensemble.
    assert cuts.count(600) == 2
    # The second ensemble's clocks carry the same bits in other objects.
    first, second = (evaluate_mpr(mpr_sigma_gamma(-1.0), ens) for ens in ensembles)
    assert first.clock is not second.clock and first.u_sigma is not second.u_sigma
    assert _exit_digest(first.clock) == _exit_digest(second.clock)
    assert first.u_sigma.tobytes() == second.u_sigma.tobytes()
    assert ensembles[0].clock_exit is not ensembles[1].clock_exit
    assert _exit_digest(ensembles[0].clock_exit) == _exit_digest(ensembles[1].clock_exit)
