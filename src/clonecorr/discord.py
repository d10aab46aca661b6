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
with u and v real, so the phase enters only as cos(phi) on two rows of
rho's entries and as sin(phi) in the imaginary part of one off-diagonal
entry. At phi = 0 it performs the real family's float operations in their
original order, so its values are those of the complex-arithmetic kernel it
replaced (tests/oracles.py's conditional_entropy_curve_complex) bit for
bit. It takes cos and sin once per distinct angle (a stride-0 axis of a
broadcast ts is evaluated once) and puts all temporaries of a call in one
workspace allocation (see _PHASE_BLOCK).

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
# grid_points floats (0.64 MB at 8 x 721); with one array per temporary,
# whether a block page-faults depends on glibc's dynamic trim threshold, i.e.
# on the process's earlier allocations. On a 2-vCPU AMD EPYC host one
# 721 x 721 scan took 21.6 / 18.5 / 18.1 / 17.7 ms at 4 / 8 / 12 / 16 rows,
# and the points benchmark gave the same op_p90_ms at 8 rows as at 12 (50.2
# against 50.4 ms), with no phase query faulting after the first in a fresh
# process or once the benchmark's checks have run. A workspace of 12 rows or
# more raises glibc's trim threshold so far that it keeps about 1 MiB more of
# freed heap, which showed as that much more peak RSS
_PHASE_BLOCK = 8
# flat indices into rho of the entries that <m, e| rho |n, e> weights by
# u u, u v, u v* and |v|^2 (rows), for (m, n) = (0, 0), (0, 1), (1, 1) (columns)
_Q_ENTRIES = np.array([[0, 2, 10], [1, 3, 11], [4, 6, 14], [5, 7, 15]])


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
    phase = phi.ndim != 0 or phi != 0.0
    batch = rho.shape[:-2]
    angles = np.broadcast_shapes(ts.shape, phi.shape)
    ts = _distinct(ts)
    # axis 0 of every array below is the outcome (0 or 1), then the states,
    # then the angles; angle-only arrays keep length 1 on the state axes
    full = (2,) + batch + angles
    n = math.prod(full)
    angle_shape = (1,) * (len(full) - 1 - ts.ndim) + ts.shape
    n_ang = math.prod(angle_shape)

    # one allocation per call for every temporary (see _PHASE_BLOCK)
    n_flags = -(-3 * n // 8)   # floats holding 3 n bools
    ws = np.empty(6 * n + n_flags + 9 * n_ang)
    big = ws[:6 * n].reshape((6,) + full)
    flags = ws[6 * n:6 * n + n_flags].view(np.bool_)[:3 * n].reshape((3,) + full)
    small = ws[6 * n + n_flags:].reshape((9,) + angle_shape)
    q, tmp = big[0:3], big[3:6]
    live, pos = flags[0], flags[1:3]

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

    # Re <m, e| rho |n, e> for (m, n) = (0, 0), (0, 1), (1, 1) at once: rows of
    # r are rho's entries weighted by u u, u v e^{i phi}, u v e^{-i phi} and v v,
    # so cos(phi) folds into rows 1 and 2 (a product with 1.0 at phi = 0)
    r = rho.reshape(-1, 16).T[_Q_ENTRIES].reshape((4, 3, 1) + batch + (1,) * len(angles))
    r_uv, r_uvc = r[1], r[2]
    if phase:
        phi = _distinct(phi)
        cos_phi = np.cos(phi)
        r_uv, r_uvc = r_uv * cos_phi, r_uvc * cos_phi
    np.multiply(uu, r[0], out=q)
    q += np.multiply(uv, r_uv, out=tmp)
    q += np.multiply(uv, r_uvc, out=tmp)
    q += np.multiply(vv, r[3], out=tmp)
    q00, q01, q11 = q
    # |q01|, where Im q01 = u v sin(phi) (rho[0, 3] - rho[1, 2]). As
    # sqrt(Re^2 + Im^2) it is |Re q01| exactly when Im = 0 (sqrt(x * x) == |x|
    # short of underflow, and a live branch's p / 2 swamps an underflowed q01)
    if phase:
        im = np.multiply(uv, (r[1, 1] - r[2, 1]) * np.sin(phi), out=tmp[2])
        im *= im
        im += np.multiply(q01, q01, out=tmp[1])
        np.sqrt(im, out=tmp[2])
    else:
        np.abs(q01, out=tmp[2])

    # branch probability p and the conditional spectrum p/2 +- rad of clone a
    p = np.add(q00, q11, out=tmp[0])
    np.subtract(q00, q11, out=tmp[1])
    tmp[1] *= 0.5
    rad = np.hypot(tmp[1], tmp[2], out=tmp[2])
    half = np.multiply(p, 0.5, out=tmp[1])
    lam = q[0:2]
    np.add(half, rad, out=lam[0])
    np.subtract(half, rad, out=lam[1])

    # H = -sum over live branches of p sum x log2(x), x = lam / p > 0; masked
    # entries stay 0 and are never divided or logged. Subtracting from +0.0
    # outcome by outcome rounds (signed zeros included) as adding -x log2(x)
    np.greater(p, DEGENERATE_P, out=live)
    x = np.divide(lam, p, out=lam, where=live)
    np.greater(x, 0.0, out=pos)
    pos &= live
    xlogx = tmp[1:3]
    xlogx.fill(0.0)
    np.log2(x, out=xlogx, where=pos)
    np.multiply(x, xlogx, out=xlogx, where=pos)
    weighted = np.add(xlogx[0], xlogx[1], out=xlogx[0])
    weighted *= p
    total = np.subtract(0.0, weighted[0])
    total -= weighted[1]
    return total


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
    the best grid point to REFINE_TOL. With scan_phase the grid extends to
    phi in [0, pi) at the same density, evaluated _PHASE_BLOCK phase rows
    per conditional_entropy_curve call; the best grid point is the first phase
    row that strictly improves on the rows before it, at the first t of
    that row's minimum. The refinement then alternates between the two
    angles.
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

    def h_at(t, phi):
        return float(conditional_entropy_curve(rho, [t], phi)[0])

    ts = np.linspace(0.0, np.pi / 2, grid_points, endpoint=False)
    dt = (np.pi / 2) / grid_points

    if scan_phase:
        phis = np.linspace(0.0, np.pi, grid_points, endpoint=False)
        dphi = np.pi / grid_points
        best_t, best_phi, best_h = 0.0, 0.0, np.inf
        for k in range(0, grid_points, _PHASE_BLOCK):
            block = phis[k:k + _PHASE_BLOCK, None]
            # ts at the block's full shape, so np.size(ts) counts the (t, phi)
            # pairs evaluated (the benchmark tracer's angle count)
            curves = conditional_entropy_curve(
                rho, np.broadcast_to(ts, (len(block), grid_points)), block)
            # flat argmin: the block's first minimal row, then its first t
            r, i = np.unravel_index(np.argmin(curves), curves.shape)
            if curves[r, i] < best_h:
                best_t, best_phi, best_h = float(ts[i]), float(block[r, 0]), float(curves[r, i])
        # alternate one-dimensional refinements around the best grid point
        best_t, best_h = golden_min(lambda t: h_at(t, best_phi),
                                    best_t - dt, best_t + dt, REFINE_TOL)
        best_phi, best_h = golden_min(lambda phi: h_at(best_t, phi),
                                      best_phi - dphi, best_phi + dphi, REFINE_TOL)
        best_t, best_h = golden_min(lambda t: h_at(t, best_phi),
                                    best_t - dt, best_t + dt, REFINE_TOL)
    else:
        curve = conditional_entropy_curve(rho, ts, 0.0)
        i = int(np.argmin(curve))
        best_t, best_phi, best_h = float(ts[i]), 0.0, float(curve[i])
        best_t, best_h = golden_min(lambda t: h_at(t, 0.0),
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
