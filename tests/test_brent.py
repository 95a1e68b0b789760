"""The bounded Brent search against scipy's minimize_scalar(method="bounded")."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gausscorr._brent import bounded_brent


def _random_function(rng, kind):
    c = rng.normal(size=5)
    if kind == 0:
        return lambda x: c[0] * math.sin(c[1] * x + c[2]) + c[3] * x * x + c[4] * x
    if kind == 1:
        return lambda x: (1.0 + c[0] ** 2) * (x - c[1]) ** 2 + c[2]
    if kind == 2:
        return lambda x: math.exp(c[0] * x) + math.exp(-c[1] * x)
    if kind == 3:
        return lambda x: abs(x - c[0]) + 0.1 * math.cos(5.0 * c[1] * x)
    # undefined (math.inf) below a cut, as neg_log_h in the PPT product search
    return lambda x: math.inf if x < c[0] else (x - c[0]) ** 2 - math.log(x - c[0] + 1e-3)


def _scipy(f, lo, hi, xatol, maxfun=500):
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxfun})
    return float(res.x), float(res.fun), int(res.nfev)


def _same(ours, theirs):
    x, fun, nfev = ours
    sx, sfun, snfev = theirs
    return x == sx and (fun == sfun or (math.isnan(fun) and math.isnan(sfun))) and nfev == snfev


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's inf - inf in the parabola
def test_bounded_brent_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(2024)
    for i in range(600):
        f = _random_function(rng, i % 5)
        lo = float(rng.uniform(-3.0, 1.0))
        hi = lo + float(rng.uniform(1e-6, 5.0))
        xatol = float(10.0 ** rng.uniform(-12, -3))
        ours = bounded_brent(f, lo, hi, xatol=xatol)
        assert _same(ours, _scipy(f, lo, hi, xatol)), (i, ours)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bounded_brent_matches_scipy_on_an_infinite_stretch():
    def f(x):
        return math.inf if x < 0.4 else -math.log(x - 0.39) + 3.0 * x

    for xatol in (1e-12, 1e-9, 1e-6, 1e-3):
        ours = bounded_brent(f, 0.0, 2.0, xatol=xatol)
        assert _same(ours, _scipy(f, 0.0, 2.0, xatol))
        assert math.isfinite(ours[1])


def test_bounded_brent_stops_at_maxfun_like_scipy():
    def f(x):
        return math.sin(40.0 * x) + (x - 0.3) ** 2

    for maxfun in (2, 5, 9):
        ours = bounded_brent(f, -1.0, 2.0, xatol=1e-12, maxfun=maxfun)
        assert ours[2] == maxfun
        assert _same(ours, _scipy(f, -1.0, 2.0, 1e-12, maxfun))


def test_bounded_brent_rejects_bad_bounds():
    with pytest.raises(ValueError):
        bounded_brent(abs, 1.0, 0.0, 1e-5)
    with pytest.raises(ValueError):
        bounded_brent(abs, 0.0, math.inf, 1e-5)
