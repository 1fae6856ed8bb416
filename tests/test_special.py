"""The numpy special-function ports against ``scipy.special``.

The package must not import scipy, but these tests may: the ports of
``ndtr``, ``expn(2, .)`` and ``exprel`` must give scipy's bits on dense
grids and on both sides of every branch edge, ``log_ndtr`` must stay within
1e-14 relative, and the Newton-guided inversion of the cut law must give
the bits of the plain bisection it replaced.
"""

import math

import numpy as np
import pytest
from scipy import special

from qbsde import SigmaSampler
from qbsde import _special

RNG = np.random.default_rng(20240817)


def around(*points: float, ulps: int = 64) -> np.ndarray:
    """Each point and the ``ulps`` doubles on either side of it."""
    out = []
    for p in points:
        lo, hi = [p], [p]
        for _ in range(ulps):
            lo.append(np.nextafter(lo[-1], -np.inf))
            hi.append(np.nextafter(hi[-1], np.inf))
        out += lo[::-1] + hi[1:]
    return np.array(out)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    same = (got == want) & (np.signbit(got) == np.signbit(want))
    same |= np.isnan(got) & np.isnan(want)
    assert same.all(), f"{int((~same).sum())} of {same.size} differ"


def test_ndtr_matches_scipy():
    # Branch edges in a = sqrt(2) x: |x| = 1/sqrt 2 (erf or erfc), 1 (erfc's
    # 1 - erf), 8 (P/Q or R/S) and the underflow of exp(-x^2) near |a| = 38.
    edges = [s * e for e in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                             math.sqrt(2.0 * 7.09782712893384e2), 38.0)
             for s in (1.0, -1.0)]
    x = np.concatenate([RNG.standard_normal(200_000) * 3.0,
                        np.linspace(-40.0, 40.0, 100_001), around(0.0, *edges),
                        [math.inf, -math.inf, -0.0]])
    assert_same_bits(_special.ndtr(x), special.ndtr(x))


def test_expn2_matches_scipy():
    # Branch edges: the series up to y = 1, the fraction above, 0 beyond
    # MAXLOG; the cut law starts at 2/T (2 at T = 1, 0.5 at T = 4).
    y = np.concatenate([RNG.uniform(0.0, 1.0, 50_000), RNG.uniform(1.0, 40.0, 50_000),
                        RNG.uniform(0.0, 665.0, 50_000),
                        around(1.0, 2.0, 0.5, 709.78, 7.09782712893384e2),
                        [0.0, 1e-300, 800.0, math.inf, -1.0]])
    assert_same_bits(_special.expn2(y), special.expn(2, y))


def test_exprel_matches_scipy():
    # Branch edges: 1 below |x| = 1e-16, inf above 717, -1/x below -38.
    x = np.concatenate([RNG.uniform(-800.0, 800.0, 50_000),
                        RNG.uniform(-40.0, 40.0, 50_000),
                        RNG.uniform(-1e-12, 1e-12, 10_000),
                        np.linspace(-39.0, -37.0, 20_001),
                        around(1e-16, -1e-16, 717.0, -38.0, 0.0),
                        [math.inf, -math.inf, -0.0]])
    assert_same_bits(_special.exprel(x), special.exprel(x))


@pytest.mark.parametrize("fn", [_special.ndtr, _special.expn2, _special.exprel,
                                _special.log_ndtr])
def test_nan_in_nan_out(fn):
    out = fn(np.array([math.nan, 0.5, math.nan]))
    assert np.isnan(out[0]) and np.isnan(out[2]) and not np.isnan(out[1])
    assert math.isnan(fn(math.nan))


def test_scalar_in_scalar_out():
    assert _special.ndtr(0.3) == special.ndtr(0.3)
    assert np.ndim(_special.expn2(2.0)) == 0
    assert _special.exprel(np.ones((2, 3))).shape == (2, 3)


def test_log_ndtr_within_1e_14():
    a = np.concatenate([np.linspace(-1e4, 40.0, 200_001), RNG.standard_normal(50_000) * 4.0,
                        around(-1.0, 0.0, 40.0)])
    got, want = _special.log_ndtr(a), special.log_ndtr(a)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def bisection_reference(sampler: SigmaSampler, u: np.ndarray) -> np.ndarray:
    """The plain bisection of the cut law's tail, as it stood before Newton."""
    def tail(y):
        return _special.expn2(y) / y

    target = (1.0 - np.clip(u, 0.0, 1.0 - 1e-16)) / sampler.c0
    lo = np.full(u.shape, sampler.y_lo)
    hi = np.full(u.shape, max(2.0 * sampler.y_lo, 4.0))
    while np.any(tail(hi) > target):
        hi = np.where(tail(hi) > target, hi * 2.0, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        too_high = tail(mid) > target
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
        if np.max(1.0 / lo - 1.0 / hi) < 1e-12:
            break
    return sampler.T - 1.0 / (0.5 * (lo + hi))


@pytest.mark.parametrize("T, batches", [(1.0, 20), (4.0, 3)])
def test_inverse_cdf_replays_the_bisection(T, batches):
    # T = 4 starts the bracket at y = 0.5, on the series branch of E_2.
    sampler = SigmaSampler(T)
    assert sampler.c0 == 1.0 / (special.expn(2, 2.0 / T) / (2.0 / T))
    edges = np.array([0.0, 0.5, 1.0 - 1e-16, 1.0])
    for seed in range(batches):
        u = np.random.default_rng(seed).uniform(size=4096)
        if seed == 0:
            u = np.concatenate([u, edges])
        assert_same_bits(sampler.inverse_cdf(u), bisection_reference(sampler, u))
