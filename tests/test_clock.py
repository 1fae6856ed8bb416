"""Clock exit engine: hitting times, censoring, exit-time transforms."""

import inspect
import math
import warnings

import numpy as np
import pytest

import qbsde
from qbsde import (
    catalog,
    core,
    evaluate_mpr,
    exit_time_exp_moment,
    hitting_time,
    mpr_nosol,
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


def test_drifted_clock_biases_exit_side(ens_mid):
    clock = hitting_time(ens_mid, drift_slope=1.0, alpha=0.8)
    up = float(np.mean(clock.sign[clock.exited] > 0))
    assert up > 0.6  # positive drift pushes the exit to the upper barrier
    assert clock.drift_slope == 1.0


def test_alpha_validation(ens_small):
    with pytest.raises(ValueError):
        hitting_time(ens_small, alpha=1.5)


def test_two_sided_exit_engine_contract(ens_small):
    exits = simulate_two_sided_exit(4000, dv=1e-3, u_max=6.0, seed=11,
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
                dict(u_max=6.0, drift=math.nan), dict(u_max=6.0, dv=-1e-3),
                dict(u_max=6.0, stop_u=np.full(100, math.nan)),
                dict(u_max=6.0, stop_u=np.full(100, -1.0))):
        with pytest.raises(ValueError):
            simulate_two_sided_exit(100, seed=11, **bad)
    with pytest.raises(ValueError, match="finite"):
        hitting_time(ens_small, math.nan)


def test_stop_u_truncates_exit():
    stop = np.full(1000, 0.5)
    exits = simulate_two_sided_exit(1000, dv=1e-3, u_max=6.0, seed=12,
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
        exits = simulate_two_sided_exit(1000, dv=1e-3, u_max=6.0, seed=12,
                                        stream=("unit-test-cut",), stop_u=stop)
    assert not exits.frozen[::2].any()
    assert exits.frozen[1::2].any()


def test_line_hit_engine_contract():
    v_max = 3.0
    drift_cum = lambda v: -0.5 * v  # noqa: E731
    level = -np.linspace(0.1, 1.5, 2000)
    exits = simulate_line_hit(2000, v_max=v_max, seed=14, stream=("unit-test-line",),
                              level=level, drift_cum=drift_cum,
                              checkpoints=np.array([0.2, 1.0, 2.5]),
                              weight_fn=lambda v: 1.0)
    # Detected crossings sit exactly on the level.
    assert np.array_equal(exits.x_exit[exits.exited], level[exits.exited])
    assert np.all(exits.u_exit <= exits.u_max)
    cen = exits.censored
    assert cen.any() and exits.exited.any()
    assert np.all(exits.x_exit[cen] > level[cen])
    # With unit weight the checkpoint sums telescope to the Brownian part of
    # the state at the horizon.
    bm_part = exits.x_exit[cen] - drift_cum(exits.u_max)
    assert np.allclose(exits.ckpt_wsum[:, cen].sum(axis=0), bm_part, rtol=0.0,
                       atol=1e-12)
    for bad in (0.0, math.nan, -math.inf, np.r_[-np.ones(1999), 0.5],
                np.r_[-np.ones(1999), math.nan]):
        with pytest.raises(ValueError, match="negative"):
            simulate_line_hit(2000, v_max=v_max, seed=14, level=bad,
                              drift_cum=drift_cum)
    with pytest.raises(ValueError, match="horizon"):
        simulate_line_hit(2000, v_max=-1.0, seed=14, level=-0.5, drift_cum=drift_cum)


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
    # A -0.0 effective drift is the same zero drift.
    negative_zero = [hitting_time(ens, -1.0, 0.0), hitting_time(ens, drift_slope=-0.0)]
    assert calls == [("hit", 0.0)]  # one engine call serves all four
    assert np.array_equal(clock.H, fn.u_kill)
    for other in negative_zero:
        assert other.clock is clock.clock
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
    assert takes_dv == ["mult_rep", "simulate_line_hit", "simulate_two_sided_exit"]
