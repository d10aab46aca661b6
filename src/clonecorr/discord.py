"""Quantum discord of the two-clone state via projective measurement of clone b.

The measurement basis is the one-parameter family
{cos(t)|0> + sin(t)|1>, sin(t)|0> - cos(t)|1>}, optionally extended by a
relative phase phi on the |1> component. The discord at a basis is

    D = H(b) - H(ab) + H(a | measurement on b),

and the reported discord minimizes the conditional entropy over the basis
family: a dense grid in t on [0, pi/2) (the projector pair has period
pi/2), then golden-section refinement around the best grid point. By
default phi is held at 0; scan_phase=True extends the grid to
phi in [0, pi), which for asymmetric inputs finds genuinely lower minima
(the output's y-axis correlation is invisible to the real family), so the
default value is an upper bound on the projective discord.

conditional_entropy_curve is elementwise in (state, t, phi): phi may be an
array that broadcasts against the angles, so the (t, phi) grid of the phase
scan is evaluated a block of phase rows per call rather than one call per
phase. It uses no complex arithmetic: the measured ket is (u, e^{i phi} v)
with u and v real, so each compressed entry of rho is a + b cos(phi) and
the square of the imaginary part of the off-diagonal one is
g^2 sin^2(phi), where a, b and g depend only on the outcome, the state and
t. A call computes them once on its distinct t, and each entry of the
(t, phi) grid then takes one multiply-add per compressed entry, and one
divide for its conditional spectrum 1/2 +- rad/p relative to the branch
probability p. Entries at phi = 0 are those of the real family, computed by
its own float operations in their original order, so they equal the
complex-arithmetic kernel it replaced (tests/oracles.py's
conditional_entropy_curve_complex) bit for bit; other phases differ from it
by rounding. It takes cos and sin once per distinct angle (a stride-0 axis
of a broadcast ts is evaluated once), puts all temporaries of a call in one
workspace allocation (see _PHASE_BLOCK) and runs the phase rows with a
small ufunc buffer (see _PHASE_BUFSIZE).

discord_min's golden-section refinement takes one (t, phi) at a time from
_conditional_entropy_at, the same quantity in scalar math from the state's
Bloch form: about 1 us an angle against 21 us for a one-angle kernel call,
equal to rounding. The grids stay on the kernel until ROADMAP item 3
re-pins what depends on it: the sweep's sha256-pinned surface files and
the benchmark's count of kernel angles per phase query.

discord_surface evaluates the unminimized discord on a whole (j, t) grid
as arrays: one batch of output states, one batched spectrum and one
conditional-entropy call over the (j, t) grid.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import hermat
from .cloner import build_output_batch
from .errors import DomainError
from .search import golden_min

# outcome probabilities at or below this are degenerate and contribute 0
DEGENERATE_P = 1e-12
# bracket width at which discord_min's golden-section refinement stops
REFINE_TOL = 1e-9
# phase rows per conditional_entropy_curve call in the scan_phase grid. A call
# keeps all its temporaries in one workspace of about 6.4 x 2 x rows x
# grid_points floats (1.2 MB at 16 x 721). In the points benchmark (one
# 721 x 721 scan per phase query; 2-vCPU AMD EPYC host, 20 s runs, seeds
# 901-903) op_p90_ms was 25.0-25.9 / 21.8-22.0 / 20.9-21.4 ms at 8 / 16 / 24
# rows, and peak_rss_mb 40.7-40.9 / 41.7-41.8 / 41.8-42.0 MiB: a workspace of
# 12 rows or more raises glibc's dynamic trim threshold so far that it keeps
# about 1 MiB more of freed heap
_PHASE_BLOCK = 16
# ufunc buffer size, in elements, while conditional_entropy_curve evaluates
# phase rows; restored on return. The phase rows' products with cos(phi) and
# sin(phi) broadcast per-t coefficients over the rows, so numpy's loops run
# one t row at a time, and numpy copies the operands through its ufunc
# buffer when a row is shorter than about a third of that buffer. With the
# default of 8192 elements, 721-point rows made those products about 3x
# slower per entry (2-vCPU Xeon host, numpy 2.4). 64 is the shortest row
# discord_min makes (grid_points >= 64)
_PHASE_BUFSIZE = 64
# flat indices into rho of the entries that <m, e| rho |n, e> weights by
# u u, u v, u v* and |v|^2 (rows), for (m, n) = (0, 0), (0, 1), (1, 1) (columns)
_Q_ENTRIES = np.array([[0, 2, 10], [1, 3, 11], [4, 6, 14], [5, 7, 15]])
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# _PAULI_PAIRS[i, k] = sigma_i (x) sigma_k, sigma_0 = I
_PAULI_PAIRS = np.einsum("iab,kcd->ikacbd", _PAULI, _PAULI).reshape(4, 4, 4, 4)


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective basis {cos t|0> + e^{i phi} sin t|1>, sin t|0> - e^{i phi} cos t|1>}.

    The projector pair is invariant under t -> t + pi and outcome-swapped
    under t -> t + pi/2, so [0, pi/2) is a canonical range for t.
    """
    t: float
    phi: float = 0.0


@dataclass(frozen=True)
class DiscordResult:
    """Discord at the minimizing basis together with all entropy components (bits)."""
    discord: float
    optimal_t: float
    optimal_phi: float
    entropy_joint: float
    entropy_a: float
    entropy_b: float
    conditional_entropy: float
    mutual_info_j: float
    mutual_info_i: float


def _as_basis(basis):
    if isinstance(basis, MeasurementBasis):
        return basis
    return MeasurementBasis(float(basis))


def _distinct(x):
    """x with every stride-0 axis cut to length 1.

    A stride-0 axis (as np.broadcast_to makes) repeats one entry, so work
    done on the cut array broadcasts back to x's values.
    """
    if 0 in x.strides:
        return x[tuple(slice(None, 1) if st == 0 else slice(None) for st in x.strides)]
    return x


def conditional_entropy_curve(rho, ts, phi=0.0):
    """H(a | measure b at angles (t, phi)) for arrays of angles, in bits.

    rho may be one state or a stack of shape (..., 4, 4); phi may be a
    scalar or an array that broadcasts against ts. The result has shape
    rho.shape[:-2] + np.broadcast_shapes(ts.shape, np.shape(phi)), with a
    scalar t treated as shape (1,). The arithmetic is elementwise, so each
    entry equals the single-state, single-angle value bit for bit.
    Degenerate branches contribute 0; conditional spectra are clipped to
    their positive part, which leaves valid states untouched and keeps the
    value finite when rho is not positive semidefinite (unphysical sweep
    regions).
    """
    rho = np.asarray(rho, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    phi = np.asarray(phi, dtype=float)
    angles = np.broadcast_shapes(ts.shape, phi.shape)
    ts = _distinct(ts)
    real_rows = phi == 0.0
    if real_rows.all():
        return _curve(rho, ts, angles)
    # see _PHASE_BUFSIZE
    bufsize = np.setbufsize(_PHASE_BUFSIZE)
    try:
        total = _curve(rho, ts, angles, _distinct(phi))
    finally:
        np.setbufsize(bufsize)
    if real_rows.any():
        # phi = 0 entries keep the real family's bits, from one call on the distinct ts
        np.copyto(total, _curve(rho, ts, (1,) * (len(angles) - ts.ndim) + ts.shape),
                  where=real_rows)
    return total


def _curve(rho, ts, angles, phi=None):
    """conditional_entropy_curve at the angles ts broadcast to shape angles.

    phi None is the real family; otherwise phi is an array without stride-0
    axes that broadcasts against ts to angles.
    """
    batch = rho.shape[:-2]
    # axis 0 of every array below is the outcome (0 or 1), then the states,
    # then the angles; angle-only arrays keep length 1 on the state axes, and
    # the per-t coefficients of the phase rows have only the angle axes of ts
    full = (2,) + batch + angles
    n = math.prod(full)
    angle_shape = (1,) * (len(full) - 1 - ts.ndim) + ts.shape
    n_ang = math.prod(angle_shape)
    coef_shape = (2,) + batch + angle_shape[len(batch):]
    n_coef = 0 if phi is None else math.prod(coef_shape)

    # one allocation per call for every temporary (see _PHASE_BLOCK)
    n_flags = -(-3 * n // 8)   # floats holding 3 n bools
    n_real = 6 * n + n_flags + 9 * n_ang   # all that the real family needs
    ws = np.empty(n_real + 7 * n_coef)
    big = ws[:6 * n].reshape((6,) + full)
    flags = ws[6 * n:6 * n + n_flags].view(np.bool_)[:3 * n].reshape((3,) + full)
    small = ws[6 * n + n_flags:n_real].reshape((9,) + angle_shape)
    q, tmp = big[0:3], big[3:6]

    # measured kets (u, e^{i phi} v) with (u, v) = (cos t, sin t), (sin t, -cos t);
    # uc holds (cos t, sin t, -cos t), so u = uc[0:2] and v = uc[1:3]
    uc = small[0:3]
    np.cos(ts, out=uc[0])
    np.sin(ts, out=uc[1])
    np.negative(uc[0], out=uc[2])
    u, v = uc[0:2], uc[1:3]
    uu = np.multiply(u, u, out=small[3:5])
    uv = np.multiply(u, v, out=small[5:7])
    vv = np.multiply(v, v, out=small[7:9])

    # rows of r are rho's entries that <m, e| rho |n, e> weights by u u,
    # u v e^{i phi}, u v e^{-i phi} and v v, for (m, n) = (0, 0), (0, 1), (1, 1)
    r = rho.reshape(-1, 16).T[_Q_ENTRIES].reshape((4, 3, 1) + batch + (1,) * len(angles))
    if phi is None:
        np.multiply(uu, r[0], out=q)
        q += np.multiply(uv, r[1], out=tmp)
        q += np.multiply(uv, r[2], out=tmp)
        q += np.multiply(vv, r[3], out=tmp)
    else:
        # Re q = a + b cos(phi) and (Im q01)^2 = g^2 sin^2(phi), with a, b and
        # g^2 per (outcome, state, t): each entry of the full grid takes one
        # multiply-add
        coef = ws[n_real:].reshape((7,) + coef_shape)
        a, b, g2 = coef[0:3], coef[3:6], coef[6]
        np.multiply(uu, r[0], out=a)
        a += np.multiply(vv, r[3], out=b)
        np.multiply(uv, r[1] + r[2], out=b)
        np.multiply(uv, r[1, 1] - r[2, 1], out=g2)
        g2 *= g2
        np.multiply(b, np.cos(phi), out=q)
        q += a
    q00, q01, q11 = q

    # branch probability p and the conditional spectrum p/2 +- rad of clone a,
    # rad = |(d, q01)| with d = (q00 - q11) / 2
    p = np.add(q00, q11, out=tmp[0])
    d = np.subtract(q00, q11, out=tmp[1])
    d *= 0.5
    if phi is None:
        rad = np.hypot(d, np.abs(q01, out=tmp[2]), out=tmp[2])
    else:
        # one sqrt of Im^2 + Re^2 + d^2
        im = np.multiply(g2, np.square(np.sin(phi)), out=tmp[2])
        im += np.multiply(q01, q01, out=q[0])
        im += np.multiply(d, d, out=q[2])
        rad = np.sqrt(im, out=im)

    # H = -sum over live branches of p sum x log2(x), x = (p/2 +- rad) / p > 0.
    # Dead branches divide by 1, and every other x is set to 1, so its
    # x log2(x) is +0.0 and the divide and log2 need no mask. Subtracting from
    # +0.0 outcome by outcome rounds (signed zeros included) as adding
    # -x log2(x)
    dead = np.less_equal(p, DEGENERATE_P, out=flags[0])
    divisor = tmp[1]
    np.copyto(divisor, p)
    np.copyto(divisor, 1.0, where=dead)
    x = q[0:2]
    if phi is None:
        half = np.multiply(p, 0.5, out=x[0])
        np.subtract(half, rad, out=x[1])
        np.add(half, rad, out=x[0])
        np.divide(x, divisor, out=x)
        skip = np.less_equal(x, 0.0, out=flags[1:3])
        skip |= dead
        np.copyto(x, 1.0, where=skip)
    else:
        # x = 1/2 +- rad/p, one divide; a dead branch takes rad/p = 1/2, so
        # x = (1, 0), and only the minus branch can reach x <= 0
        y = np.divide(rad, divisor, out=rad)
        np.copyto(y, 0.5, where=dead)
        np.add(0.5, y, out=x[0])
        np.subtract(0.5, y, out=x[1])
        np.copyto(x[1], 1.0, where=np.less_equal(x[1], 0.0, out=flags[1]))
    xlogx = np.log2(x, out=tmp[1:3])
    xlogx *= x
    weighted = np.add(xlogx[0], xlogx[1], out=xlogx[0])
    weighted *= p
    total = np.subtract(0.0, weighted[0])
    total -= weighted[1]
    return total


def _bloch(rho):
    """(r_a, r_b, T) as lists of floats, with rho = (1/4) sum_ik c_ik sigma_i (x) sigma_k.

    c_ik = tr(rho sigma_i (x) sigma_k): r_a = c_i0, r_b = c_0k, T = c_ik (i, k > 0).
    """
    c = np.einsum("xy,ikyx->ik", rho, _PAULI_PAIRS).real.tolist()
    return [row[0] for row in c[1:]], c[0][1:], [row[1:] for row in c[1:]]


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _conditional_entropy_at(bloch, t, phi):
    """conditional_entropy_curve at one (t, phi), from _bloch(rho), in scalar math.

    Outcome +-m, m = (sin 2t cos phi, sin 2t sin phi, cos 2t), has probability
    p = (1 +- r_b.m)/2 and leaves clone a the unnormalised spectrum
    p/2 +- |r_a +- T m|/4 (R. & M. Horodecki, PRA 54, 1838 (1996); Luo,
    PRA 77, 042303 (2008)). As in the kernel, branches with p <= DEGENERATE_P
    and eigenvalues <= 0 contribute 0; the two agree to rounding, not bitwise.
    """
    (ax, ay, az), rb, (tx, ty, tz) = bloch
    s2 = math.sin(2.0 * t)
    m = (s2 * math.cos(phi), s2 * math.sin(phi), math.cos(2.0 * t))
    rb_m, tmx, tmy, tmz = _dot3(rb, m), _dot3(tx, m), _dot3(ty, m), _dot3(tz, m)
    h = 0.0
    for sign in (1.0, -1.0):
        p = 0.5 + 0.5 * sign * rb_m
        if p <= DEGENERATE_P:
            continue
        rad = 0.25 * math.hypot(ax + sign * tmx, ay + sign * tmy, az + sign * tmz)
        for lam in (0.5 * p + rad, 0.5 * p - rad):
            if lam > 0.0:
                h -= lam * math.log2(lam / p)
    return h


def _marginal_entropy(rho, keep):
    """Entropy in bits of the reduced state of clone `keep` ("a" or "b")."""
    return hermat.vn_entropy(hermat.eig_herm2(hermat.partial_trace(rho, keep)))


def conditional_entropy(rho, basis):
    """Probability-weighted entropy of clone a after measuring clone b."""
    hermat.validate_state(rho)
    basis = _as_basis(basis)
    curve = conditional_entropy_curve(np.asarray(rho, dtype=float), [basis.t], basis.phi)
    return float(curve[0])


def mutual_info_j(rho):
    """Unmeasured mutual information H(a) + H(b) - H(ab), in bits."""
    spectrum = hermat.validate_state(rho)
    ha = _marginal_entropy(rho, "a")
    hb = _marginal_entropy(rho, "b")
    return ha + hb - hermat.vn_entropy(spectrum)


def mutual_info_i(rho, basis):
    """Measurement-based mutual information H(a) - H(a | measure b), in bits."""
    ha = _marginal_entropy(rho, "a")
    return ha - conditional_entropy(rho, basis)


def discord_at(rho, basis):
    """Discord H(b) - H(ab) + H(a | measure b) at one basis (not minimized).

    Equals mutual_info_j - mutual_info_i at the same basis.
    """
    spectrum = hermat.validate_state(rho)
    basis = _as_basis(basis)
    hb = _marginal_entropy(rho, "b")
    hab = hermat.vn_entropy(spectrum)
    curve = conditional_entropy_curve(np.asarray(rho, dtype=float), [basis.t], basis.phi)
    return float(hb - hab + curve[0])


def discord_min(rho, grid_points=721, scan_phase=False):
    """Minimize discord over the measurement family.

    Dense grid of grid_points angles over t in [0, pi/2) guards against the
    conditional entropy's local minima; golden-section then refines around
    the best grid point to REFINE_TOL. The grid has grid_points phase rows
    phi in [0, pi) with scan_phase and only the phi = 0 row, the real
    family, without it; either way it is evaluated _PHASE_BLOCK rows per
    conditional_entropy_curve call. The best grid point is the first row
    that strictly improves on the rows before it, at the first t of that
    row's minimum. With scan_phase the refinement then alternates between
    the two angles. The grids go through conditional_entropy_curve and the
    refinement through the scalar _conditional_entropy_at (see the module
    docstring), so the result agrees with an all-kernel search to rounding.
    """
    spectrum = hermat.validate_state(rho)
    try:
        grid_points = operator.index(grid_points)
    except TypeError:
        raise DomainError(f"grid_points must be an integer, got {grid_points!r}") from None
    if grid_points < 64:
        raise DomainError(f"grid_points must be >= 64, got {grid_points}")
    rho = np.asarray(rho, dtype=float)

    ha = _marginal_entropy(rho, "a")
    hb = _marginal_entropy(rho, "b")
    hab = hermat.vn_entropy(spectrum)

    bloch = _bloch(rho)

    def h_at(t, phi):
        return _conditional_entropy_at(bloch, t, phi)

    ts = np.linspace(0.0, np.pi / 2, grid_points, endpoint=False)
    dt, dphi = (np.pi / 2) / grid_points, np.pi / grid_points
    # the real family is the phase grid's phi = 0 row
    phis = np.linspace(0.0, np.pi, grid_points, endpoint=False) if scan_phase else np.zeros(1)
    best_t, best_phi, best_h = 0.0, 0.0, np.inf
    for k in range(0, len(phis), _PHASE_BLOCK):
        block = phis[k:k + _PHASE_BLOCK, None]
        # ts at the block's full shape, so np.size(ts) counts the (t, phi)
        # pairs evaluated (the benchmark tracer's angle count)
        curves = conditional_entropy_curve(
            rho, np.broadcast_to(ts, (len(block), grid_points)), block)
        # flat argmin: the block's first minimal row, then its first t
        r, i = np.unravel_index(np.argmin(curves), curves.shape)
        if curves[r, i] < best_h:
            best_t, best_phi, best_h = float(ts[i]), float(block[r, 0]), float(curves[r, i])
    # one-dimensional refinements around the best grid point, alternating
    # between the angles when phi was scanned
    best_t, best_h = golden_min(lambda t: h_at(t, best_phi),
                                best_t - dt, best_t + dt, REFINE_TOL)
    if scan_phase:
        best_phi, best_h = golden_min(lambda phi: h_at(best_t, phi),
                                      best_phi - dphi, best_phi + dphi, REFINE_TOL)
        best_t, best_h = golden_min(lambda t: h_at(t, best_phi),
                                    best_t - dt, best_t + dt, REFINE_TOL)

    best_t = best_t % (np.pi / 2)
    disc = hb - hab + best_h
    return DiscordResult(
        discord=disc,
        optimal_t=best_t,
        optimal_phi=best_phi,
        entropy_joint=hab,
        entropy_a=ha,
        entropy_b=hb,
        conditional_entropy=best_h,
        mutual_info_j=ha + hb - hab,
        mutual_info_i=ha - best_h,
    )


def discord_surface(state, j_grid, t_grid):
    """Unminimized discord at every (j, t) grid point.

    Returns (discord, physical): discord has shape (len(j_grid),
    len(t_grid)) and physical, shape (len(j_grid),), flags the machine
    parameters where the output state is positive semidefinite. At the
    other j the joint entropy uses the positive part of the spectrum, so
    the surface stays finite there.
    """
    j_grid = np.atleast_1d(np.asarray(j_grid, dtype=float))
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if j_grid.size == 0 or t_grid.size == 0:
        raise DomainError("j and t grids must be nonempty")
    rhos = build_output_batch(state, j_grid)
    spectra = hermat.jacobi_eigvals(rhos)
    physical = spectra[:, -1] >= hermat.STATE_EIG_FLOOR
    hab = hermat.plogp(spectra).sum(axis=-1)
    hb = hermat.plogp(hermat.eig_herm2(hermat.partial_trace(rhos, "b"))).sum(axis=-1)
    curve = conditional_entropy_curve(rhos, t_grid, 0.0)
    return (hb - hab)[:, None] + curve, physical
