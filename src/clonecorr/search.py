"""Scalar search helpers: golden-section minimization and predicate bisection."""

import math

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _check_tol(tol):
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def golden_min(f, lo, hi, tol=1e-9):
    """Golden-section minimum of f on [lo, hi].

    Shrinks the bracket until it is narrower than tol, or until an interior
    point coincides with an endpoint, and returns the lowest (x, f(x))
    among the bracket midpoint and the two interior points, preferring the
    midpoint on ties. Assumes f is unimodal on the bracket; callers provide
    one tight enough for that to hold.
    """
    _check_tol(tol)
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    # a < c and d < b make every step shrink the bracket
    while (b - a) > tol and a < c and d < b:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return min((x, f(x)), (c, fc), (d, fd), key=lambda point: point[1])


def bisect_boundary(pred, x_false, x_true, tol=1e-6):
    """Locate a flip of a boolean predicate between two points.

    pred(x_false) must be False and pred(x_true) True; the two may be in
    either order on the axis. Returns the midpoint of the final bracket,
    which is within tol of the flip, or within one float spacing when tol
    is finer than that.
    """
    _check_tol(tol)
    x_false, x_true = float(x_false), float(x_true)
    while abs(x_true - x_false) > tol:
        mid = 0.5 * (x_false + x_true)
        if mid == x_false or mid == x_true:
            break
        if pred(mid):
            x_true = mid
        else:
            x_false = mid
    return 0.5 * (x_false + x_true)
