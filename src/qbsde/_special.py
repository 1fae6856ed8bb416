"""Numpy ports of Cephes' ``ndtr``, ``expn(2, .)``, ``exprel`` and ``log_ndtr``.

The first three give ``scipy.special``'s bits (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989): numpy rounds the arithmetic as C
does, and each ``exp``, ``expm1`` and ``log`` is libm's, per element, as
numpy's vectorised ones round differently.  ``log_ndtr`` is within a few ulps.
"""

from __future__ import annotations

import math

import numpy as np

_MAXLOG = 7.09782712893383996843e2
_MACHEP = 1.11022302462515654042e-16
_BIG = 1.44115188075855872e17
_SQRT1_2 = 0.70710678118654752440

# exp(x^2) erfc(x) = P(x)/Q(x) on [1, 8), R(x)/S(x) from 8 on; erf(x) = x T(x^2)/U(x^2)
# on [0, 1].  Q, S and U are monic.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _polevl(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(fn, x: np.ndarray) -> np.ndarray:
    return np.array(list(map(fn, x.tolist())), dtype=np.float64)


def _erf(x: np.ndarray) -> np.ndarray:  # |x| <= 1
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U, True)


def _erfc_ratio(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # x >= 1
    p, q, near = np.empty_like(x), np.empty_like(x), x < 8.0
    p[near], q[near] = _polevl(x[near], _P), _polevl(x[near], _Q, True)
    p[~near], q[~near] = _polevl(x[~near], _R), _polevl(x[~near], _S, True)
    return p, q


def _erfc(x: np.ndarray) -> np.ndarray:  # x >= -1: 1 - erf below 1, 0 past MAXLOG
    out, low = np.zeros_like(x), x < 1.0
    out[low] = 1.0 - _erf(x[low])
    tail = ~low & (x * x <= _MAXLOG)
    p, q = _erfc_ratio(x[tail])
    out[tail] = _libm(math.exp, -x[tail] * x[tail]) * p / q
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, bit for bit ``scipy.special.ndtr``."""
    a = np.asarray(a, dtype=np.float64)
    x = a * _SQRT1_2
    out, inner, outer = np.full_like(a, math.nan), abs(x) < _SQRT1_2, abs(x) >= _SQRT1_2
    out[inner] = 0.5 + 0.5 * _erf(x[inner])
    y = 0.5 * _erfc(abs(x[outer]))
    out[outer] = np.where(x[outer] > 0.0, 1.0 - y, y)
    return out


def log_ndtr(a) -> np.ndarray:
    """``log ndtr``: from -1 on scipy's ``log1p(-erfc(t)/2)``, ``t = a/sqrt 2``;
    below, ``log(erfcx(-t)/2) - t^2`` with Cephes' ``erfcx``."""
    a = np.asarray(a, dtype=np.float64)
    t, out, upper, lower = a * _SQRT1_2, np.full_like(a, math.nan), a >= -1.0, a < -1.0
    out[upper] = _libm(math.log1p, -_erfc(t[upper]) / 2.0)
    x = -t[lower]
    low = np.minimum(x, 1.0)
    p, q = _erfc_ratio(np.maximum(x, 1.0))
    erfcx = np.where(x < 1.0, _libm(math.exp, low * low) * _erfc(low), p / q)
    out[lower] = _libm(math.log, erfcx / 2.0) - x * x
    return out


def _expn2_series(y: np.ndarray) -> np.ndarray:
    """Cephes ``expn(2, y)`` on ``0 < y <= 1``: the power series, DLMF 8.19.8."""
    psi = (-0.57721566490153286060 - _libm(math.log, y)) + 1.0
    yk, ans, live, k = np.ones_like(y), np.full_like(y, -1.0), np.arange(y.size), 0.0
    while live.size:
        k += 1.0
        yk[live] *= -y[live] / k
        if k != 1.0:  # Cephes' pk = k - 1
            ans[live] += yk[live] / (k - 1.0)
        a, t = ans[live], np.ones(live.size)  # Cephes' t is 1 where ans == 0
        nonzero = a != 0.0
        t[nonzero] = abs(yk[live][nonzero] / a[nonzero])
        live = live[t > _MACHEP]
    return -y * psi - ans


def _expn2_fraction(y: np.ndarray) -> np.ndarray:
    """``exp(y) expn(2, y)`` on ``y > 1``: Cephes' continued fraction, DLMF 8.19.17.

    Each element leaves the loop where Cephes' does.  All terms are positive.
    """
    out, idx, k = np.empty_like(y), np.arange(y.size), 1
    st = np.stack([np.ones_like(y), y, np.ones_like(y), y + 2.0, 1.0 / (y + 2.0)])
    while idx.size:  # st: p and q two steps back, one step back, the value
        k += 1
        yk, xk = (1.0, 2.0 + (k - 1) // 2) if k & 1 else (y, float(k // 2))
        pq = st[2:4] * yk + st[0:2] * xk
        r = pq[0] / pq[1]
        going = abs((st[4] - r) / r) > _MACHEP
        st = np.concatenate([st[2:4], pq, r[None]])
        big = abs(pq[0]) > _BIG
        if big.any():
            st[:4] = np.where(big, st[:4] / _BIG, st[:4])
        if not going.all():
            out[idx[~going]] = r[~going]
            idx, y, st = idx[going], y[going], st[:, going]
    return out


def expn2(y) -> np.ndarray:
    """``E_2(y)``, bit for bit ``scipy.special.expn(2, y)``."""
    y = np.asarray(y, dtype=np.float64)
    out = np.where(y == 0.0, 1.0, np.where(y > _MAXLOG, 0.0, math.nan))
    series, frac = (y > 0.0) & (y <= 1.0), (y > 1.0) & (y <= _MAXLOG)
    out[series] = _expn2_series(y[series])
    out[frac] = _expn2_fraction(y[frac]) * _libm(math.exp, -y[frac])
    return out


def expn2_scaled(y: np.ndarray) -> np.ndarray:
    """``exp(y) E_2(y)`` on ``y > 0`` to a few ulps, for root finding; above 1
    the even continued fraction, backwards from depth 100 (converged there)."""
    out, frac = np.empty_like(y), y > 1.0
    out[~frac] = expn2(y[~frac]) * np.exp(y[~frac])
    h = np.zeros_like(y[frac])
    for i in range(100, 0, -1):
        h = -i * (i + 1.0) / (y[frac] + (2.0 + 2.0 * i) + h)
    out[frac] = 1.0 / (y[frac] + 2.0 + h)
    return out


def exprel(x) -> np.ndarray:
    """``expm1(x)/x``, bit for bit ``scipy.special.exprel``.  Below -38 both
    ``expm1``s are exactly -1; above ``MAXLOG`` both overflow."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(abs(x) < 1e-16, 1.0, np.where(x > _MAXLOG, math.inf, math.nan))
    far, mid = x < -38.0, (x >= -38.0) & (x <= _MAXLOG) & (abs(x) >= 1e-16)
    out[far] = -1.0 / x[far]
    out[mid] = _libm(math.expm1, x[mid]) / x[mid]
    return out
