"""Bounded scalar minimization by Brent's method, in plain Python floats.

A step-for-step port of scipy's ``minimize_scalar(method="bounded")``
(``_minimize_scalar_bounded``, after Forsythe, Malcolm & Moler's ``fmin``):
the same golden-section and parabolic steps, the same tolerance rule
tol1 = sqrt(2.2e-16) |x| + xatol / 3 and the same evaluation cap, so it
returns the same x, value and evaluation count.  It needs only :mod:`math`,
which keeps scipy's optimizer package out of every path that only runs
bounded 1-D searches.
"""

from __future__ import annotations

import math

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign1(r: float) -> float:
    # np.sign(r) + (r == 0): 1 at r = 0; r is never NaN where it is used
    return -1.0 if r < 0 else 1.0


def bounded_brent(func, lo: float, hi: float, xatol: float,
                  maxfun: int = 500) -> tuple[float, float, int]:
    """(x, func(x), evaluations) at the minimum of func on [lo, hi].

    Stops when x is known to within 2 tol1 or after maxfun evaluations;
    func may return math.inf where it is undefined.
    """
    a, b, xatol = float(lo), float(hi), float(xatol)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("bounds must be finite")
    if a > b:
        raise ValueError("the lower bound exceeds the upper bound")
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:                   # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign1(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e

        x = xf + _sign1(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx, num
