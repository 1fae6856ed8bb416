"""Clock exit engine: hitting times, censoring, exit-time transforms."""

import hashlib
import inspect
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest

import qbsde
from qbsde import (
    catalog,
    classify,
    core,
    evaluate_mpr,
    exit_time_exp_moment,
    hitting_time,
    mpr_nosol,
    mpr_sigma_gamma,
    sample_paths,
)
from qbsde.core import simulate_line_hit, simulate_two_sided_exit


def test_hitting_time_basic_laws(ens_mid, grid):
    clock = hitting_time(ens_mid)
    assert np.all(clock.H[clock.exited] > 0.0)
    # tau = T - (T/2) exp(-H) lies in (T/2, T).
    assert np.all(clock.tau > grid.T / 2.0)
    assert np.all(clock.tau < grid.T)
    assert set(np.unique(clock.sign[clock.exited])) <= {-1.0, 1.0}
    # Two-sided exit survival decays like exp(-pi^2 u / 8); at the default
    # clock depth ~13.2 censoring is astronomically unlikely.
    assert clock.censored_fraction == 0.0


def test_hitting_time_deterministic_in_seed(ens_mid):
    a = hitting_time(ens_mid)
    b = hitting_time(ens_mid)
    assert np.array_equal(a.H, b.H)


def test_exit_mean_matches_known_value(ens_mid):
    # E[H] = E[inf u: |B_u| = 1] = 1 for the unit two-sided exit.
    clock = hitting_time(ens_mid)
    se = clock.H.std(ddof=1) / math.sqrt(clock.H.size)
    assert abs(clock.H.mean() - 1.0) <= 4.0 * se


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
    assert np.array_equal(clock.H, fn.u_kill)
    assert fn.clock is clock.clock is ens.clock_exit
    # The same bits as the explicitly zero-drift engine call on that stream.
    direct = simulate_two_sided_exit(600, u_max=grid.clock_depth, seed=31,
                                     stream=("hit", 0.0), drift=0.0)
    assert np.array_equal(clock.H, direct.u_exit)
    assert np.array_equal(clock.sign, direct.sign)


def test_shared_exit_is_read_only(ens_small):
    exits = ens_small.clock_exit
    arrays = [v for v in vars(exits).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 10  # exit data plus the checkpoint tracks
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        hitting_time(ens_small).H[0] = 0.0


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
    """Start from an empty exit memo; return the list of engine runs."""
    monkeypatch.setattr(core, "_exit_memo", OrderedDict())
    runs = []
    engine = core._euler_exit

    def counting(*args, **kwargs):
        runs.append(kwargs)
        return engine(*args, **kwargs)

    monkeypatch.setattr(core, "_euler_exit", counting)
    return runs


def test_two_sided_exit_memo_returns_the_same_read_only_exit(monkeypatch):
    runs = _counting_engine(monkeypatch)
    kwargs = dict(u_max=3.0, seed=43, stream=("unit-test-memo",),
                  drift=np.linspace(-0.5, 0.5, 700), stop_u=np.full(700, 2.0),
                  checkpoints=np.array([0.5, 1.5]))
    first = simulate_two_sided_exit(700, **kwargs)
    again = simulate_two_sided_exit(700, **kwargs)
    assert again is first and len(runs) == 1
    arrays = [v for v in vars(first).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 10 and not any(a.flags.writeable for a in arrays)
    # A memo hit carries the same bits as an unmemoized engine run.
    fresh = core._euler_exit(700, dv=core.DEFAULT_DV, lower=-1.0, upper=1.0,
                             rate=kwargs.pop("drift"), **kwargs)
    for name, value in vars(fresh).items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == getattr(again, name).tobytes(), name
        else:
            assert value == getattr(again, name), name


def test_two_sided_exit_memo_keys_on_every_input(monkeypatch):
    runs = _counting_engine(monkeypatch)
    base = dict(u_max=2.0, seed=44, stream=("hit", 0.0), drift=np.full(500, 0.2))
    drift_one = np.full(500, 0.2)
    drift_one[7] = 0.25
    variants = [
        dict(stream=("hit", -0.0)),  # 0.0 == -0.0, yet another stream
        dict(drift=drift_one),
        dict(checkpoints=np.array([0.5, 1.0])),
        dict(stop_u=np.full(500, 1.0)),
        dict(seed=45),
    ]
    for change in variants:
        simulate_two_sided_exit(500, **base)
        before = len(runs)
        changed = simulate_two_sided_exit(500, **{**base, **change})
        assert len(runs) == before + 1, change
        assert simulate_two_sided_exit(500, **{**base, **change}) is changed
        assert len(runs) == before + 1, change
        assert len(core._exit_memo) <= core.EXIT_MEMO_SIZE
    # Seeds equal modulo 2**64 key the same Philox stream, hence one exit.
    before = len(runs)
    a = simulate_two_sided_exit(500, **{**base, "seed": -1})
    assert simulate_two_sided_exit(500, **{**base, "seed": 2**64 - 1}) is a
    assert len(runs) == before + 1


def test_two_sided_exit_memo_stays_bounded(monkeypatch):
    runs = _counting_engine(monkeypatch)
    for seed in range(2 * core.EXIT_MEMO_SIZE):
        simulate_two_sided_exit(200, u_max=1.0, seed=seed, stream=("unit-test-lru",))
        assert len(core._exit_memo) == min(seed + 1, core.EXIT_MEMO_SIZE)
    # The oldest entries were evicted and run again; the newest were kept.
    simulate_two_sided_exit(200, u_max=1.0, seed=2 * core.EXIT_MEMO_SIZE - 1,
                            stream=("unit-test-lru",))
    assert len(runs) == 2 * core.EXIT_MEMO_SIZE
    simulate_two_sided_exit(200, u_max=1.0, seed=0, stream=("unit-test-lru",))
    assert len(runs) == 2 * core.EXIT_MEMO_SIZE + 1


def test_classify_scales_run_each_distinct_exit_once(grid, monkeypatch):
    ens = sample_paths(grid, 600, seed=47)
    runs = _counting_engine(monkeypatch)
    calls = []
    memoized = core.simulate_two_sided_exit

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return memoized(*args, **kwargs)

    for module in (core, catalog, qbsde.solver):
        monkeypatch.setattr(module, "simulate_two_sided_exit", counting)
    for c in (0.5, 1.0, 1.5):
        classify(mpr_sigma_gamma(-1.0).with_scale(c), -1.0, ens, with_exponent=False)

    def key(kw):
        arrays = tuple(None if kw.get(n) is None else np.asarray(kw[n]).tobytes()
                       for n in ("stop_u", "checkpoints"))
        return kw["u_max"], kw["seed"], kw["stream"], arrays

    distinct = {key(kw) for kw in calls}
    assert len(calls) > len(distinct)  # the scales repeat exits ...
    assert len(runs) == len(distinct)  # ... which the engine runs once each
