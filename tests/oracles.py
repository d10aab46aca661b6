"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: 4x4 eigenvalues come
from the characteristic polynomial (trace power sums + polynomial roots) or
from LAPACK, and measurements are built from explicit projectors. The one
exceptions are phase_scan_loop, a slower arrangement of the package's own
arithmetic that its batched code must reproduce bit for bit, and
valid_j_range_jacobi, the physical-window search with every spectrum,
bisection steps included, from the package's Jacobi solver; the package's
valid_j_range, one bisection of the triplet cubic on [0, 1/6], must match
it within 5e-7, and valid_j_range_reference, the same cubic bisection
with F recomputed from scratch at each step, bit for bit.
window_edge_roots is the exact lower edge of that window: the root in
[0, 1/6] of the same cubic written as a polynomial in j.
conditional_entropy_curve_complex is the complex-arithmetic kernel that the
package's real-arithmetic one replaced: equal bit for bit at phi = 0, within
rounding elsewhere. separable_intervals_scan is the grid-scan-plus-bisection
search that the package's closed-form separable windows replaced.
surface_text_rows is the row-at-a-time surface writer that the grid-shaped
writers in clonecorr.cli must reproduce byte for byte.
jacobi_eigvals_row_major is the cyclic Jacobi solver on (..., 4, 4) stacks
that the package's entry-major one must reproduce bit for bit.
conditional_entropy_curve_unselected is the package's kernel with every pass
of its phase rows run, as before it decided once per query which passes a
state can need; the package must reproduce it bit for bit.
curve_all_passes is the real family (phi = 0) with its dead-branch mask and
its x <= 0 fix-up run in every call, conditional_entropy_at_signed the scalar
refinement evaluator with both angles' trig taken per call and the outcomes
as products with sign = +-1, and det2_stacked, det3_stacked and det4_stacked
the fancy-indexed stack determinants; the package's leaner forms must
reproduce each bit for bit.
"""

import json
import math

import numpy as np

from clonecorr._model import _amplitudes
from clonecorr.cloner import WINDOW_TOL, build_output_batch
from clonecorr.discord import (_PHASE_BUFSIZE, _Q_ENTRIES, DEGENERATE_P, _distinct, _entropy_sum,
                               _ket_products, _phase_coefficients, _workspace,
                               conditional_entropy_curve)
from clonecorr.errors import ConvergenceError
from clonecorr.hermat import (JACOBI_MAX_SWEEPS, JACOBI_OFF_TOL, STATE_EIG_FLOOR, jacobi_eigvals,
                              plogp)
from clonecorr.search import bisect_boundary


def charpoly_eigvals_sym4(m):
    """Eigenvalues as roots of the characteristic polynomial, descending.

    Coefficients from Newton's identities on trace power sums; no
    eigendecomposition of m itself is involved.
    """
    m = np.asarray(m, dtype=float)
    m2 = m @ m
    m3 = m2 @ m
    p1, p2, p3, p4 = np.trace(m), np.trace(m2), np.trace(m3), np.trace(m3 @ m)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0
    roots = np.roots([1.0, -e1, e2, -e3, e4])
    return np.sort(roots.real)[::-1]


def entropy_bits(eigs):
    lam = np.clip(np.asarray(eigs, dtype=float), 0.0, None)
    pos = lam[lam > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def measure_projector(rho, t, phi=0.0):
    """Explicit-projector measurement of qubit b: [(p, conditional state), ...]."""
    e0 = np.array([np.cos(t), np.sin(t) * np.exp(1j * phi)])
    e1 = np.array([np.sin(t), -np.cos(t) * np.exp(1j * phi)])
    out = []
    for e in (e0, e1):
        proj = np.kron(np.eye(2), np.outer(e, e.conj()))
        m = proj @ np.asarray(rho, dtype=complex) @ proj
        p = float(np.trace(m).real)
        if p <= 1e-12:
            out.append((p, None))
            continue
        cond = np.einsum("abcb->ac", m.reshape(2, 2, 2, 2)) / p
        out.append((p, cond))
    return out


def conditional_entropy_projector(rho, t, phi=0.0):
    total = 0.0
    for p, cond in measure_projector(rho, t, phi):
        if cond is None:
            continue
        total += p * entropy_bits(np.linalg.eigvalsh(cond))
    return total


def discord_at_projector(rho, t, phi=0.0):
    r = np.asarray(rho, dtype=float).reshape(2, 2, 2, 2)
    rb = np.einsum("abad->bd", r)
    hb = entropy_bits(np.linalg.eigvalsh(rb))
    hab = entropy_bits(np.linalg.eigvalsh(np.asarray(rho, dtype=float)))
    return hb - hab + conditional_entropy_projector(rho, t, phi)


def discord_grid_oracle(rho, npts=4001):
    """Minimum discord over a dense t grid at phi = 0 -> (value, t)."""
    best = (np.inf, 0.0)
    for t in np.linspace(0.0, np.pi / 2, npts):
        d = discord_at_projector(rho, t)
        if d < best[0]:
            best = (d, t)
    return best


def conditional_entropy_curve_complex(rho, ts, phi=0.0):
    """conditional_entropy_curve in complex arithmetic, one outcome at a time.

    The kernel clonecorr.discord replaced: the measured ket (u, v) is built
    as a complex array when phi != 0, the compressed block entries are
    complex sums and degenerate branches are masked under np.errstate. Its
    phi = 0 branch is the real family's float arithmetic, which the package
    must reproduce bit for bit.
    """
    rho = np.asarray(rho, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    angles = np.broadcast_shapes(ts.shape, np.shape(phi))
    total = np.zeros(rho.shape[:-2] + angles)
    rho = rho.reshape(rho.shape[:-2] + (1,) * len(angles) + rho.shape[-2:])
    c, s = np.cos(ts), np.sin(ts)
    if np.ndim(phi) == 0 and phi == 0.0:
        kets = ((c, s), (s, -c))
    else:
        ph = np.exp(1j * np.asarray(phi))
        kets = ((c, s * ph), (s, -c * ph))
    for u, v in kets:
        vc = np.conj(v)
        uu, vv, uv, uvc = u * u, (v * vc).real, u * v, u * vc

        def q(i, k):
            return (uu * rho[..., i, k] + uv * rho[..., i, k + 1]
                    + uvc * rho[..., i + 1, k] + vv * rho[..., i + 1, k + 1])

        q00, q01, q11 = np.real(q(0, 0)), q(0, 2), np.real(q(2, 2))
        p = q00 + q11
        rad = np.hypot(0.5 * (q00 - q11), np.abs(q01))
        lam_hi = 0.5 * p + rad
        lam_lo = 0.5 * p - rad
        live = p > DEGENERATE_P
        with np.errstate(divide="ignore", invalid="ignore"):
            x1 = np.where(live, lam_hi / p, 0.0)
            x2 = np.where(live, lam_lo / p, 0.0)
        term = p * (plogp(x1) + plogp(x2))
        total[live] += term[live]
    return total


def conditional_entropy_curve_unselected(rho, ts, phi):
    """(conditional_entropy_curve of a real float rho, needs) with every phase-row pass run.

    needs = (dead, negative, low) says whether some branch probability is
    <= DEGENERATE_P, some rad^2 rounds below 0 and some x- is <= 0: the
    passes that mask dead branches, clamp rad^2 and set x- to 1 change
    an entry only where the matching flag is true. The phase rows are the
    package's coefficients, workspace and entropy sum; phi = 0 rows are its
    real family, as in the package. It runs under the package's ufunc buffer
    size, which changes no bits but halves the time of the phase rows.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    phi = np.asarray(phi, dtype=float)
    angles = np.broadcast_shapes(ts.shape, phi.shape)
    ts, phi = _distinct(ts), _distinct(phi)
    bufsize = np.setbufsize(_PHASE_BUFSIZE)
    try:
        total, needs = _phase_rows_unselected(rho, ts, angles, phi)
        real_rows = phi == 0.0
        if real_rows.any():
            real, _ = curve_all_passes(rho, ts, (1,) * (len(angles) - ts.ndim) + ts.shape)
            np.copyto(total, real, where=real_rows)
        return total, needs
    finally:
        np.setbufsize(bufsize)


def _phase_rows_unselected(rho, ts, angles, phi):
    a00, a11, b00, b11, a, b, c2 = _phase_coefficients(rho, ts, len(angles))[0]
    w, (flags,) = _workspace((2,) + rho.shape[:-2] + angles, 4, 1)
    c = np.cos(phi)
    p = np.add(np.multiply(b00, c, out=w[0]), a00, out=w[0])
    p += np.add(np.multiply(b11, c, out=w[1]), a11, out=w[1])
    # rad^2 by Horner, clamped at 0: rounding can take it below, and sqrt to NaN
    rad = np.add(np.multiply(c2, c, out=w[1]), b, out=w[1])
    rad *= c
    rad += a
    negative = bool((rad < 0.0).any())
    np.sqrt(np.maximum(rad, 0.0, out=rad), out=rad)
    # x = 1/2 +- rad/p, one divide. A dead branch takes rad/p = 1/2, so
    # x = (1, 0); only x- can reach x <= 0, and is set to 1 (x log2 x = +0.0)
    dead = np.less_equal(p, DEGENERATE_P, out=flags)
    any_dead = bool(dead.any())
    if any_dead:
        np.copyto(np.divide(rad, p, out=rad, where=~dead), 0.5, where=dead)
    else:
        np.divide(rad, p, out=rad)
    x = w[2:4]
    np.add(0.5, rad, out=x[0])
    np.subtract(0.5, rad, out=x[1])
    low = np.less_equal(x[1], 0.0, out=flags)
    any_low = bool(low.any())
    np.copyto(x[1], 1.0, where=low)
    return _entropy_sum(x, p, w[1]), (any_dead, negative, any_low)


def curve_all_passes(rho, ts, angles):
    """(the real family of a real float rho at ts broadcast to angles, needs), every pass run.

    needs = (dead, low) says whether some branch probability is <=
    DEGENERATE_P and some x is <= 0: the dead-branch mask and the x <= 0
    fix-up change an entry only where the matching flag is true.
    """
    batch = rho.shape[:-2]
    uu, uv, vv = _ket_products(ts, len(batch), len(angles))
    w, flags = _workspace((2,) + batch + angles, 8, 3)
    q, p, rad, x, scratch = w[:3], w[3], w[4], w[5:7], w[7]
    r = rho.reshape(-1, 16).T[_Q_ENTRIES].reshape((4, 3, 1) + batch + (1,) * len(angles))
    np.multiply(uu, r[0], out=q)
    for k, ket in ((1, uv), (2, uv), (3, vv)):
        q += np.multiply(ket, r[k], out=w[5:])
    q00, q01, q11 = q
    np.add(q00, q11, out=p)
    np.hypot(np.multiply(np.subtract(q00, q11, out=scratch), 0.5, out=scratch),
             np.abs(q01, out=q01), out=rad)
    dead = np.less_equal(p, DEGENERATE_P, out=flags[0])
    any_dead = bool(dead.any())
    np.add(np.multiply(p, 0.5, out=x[1]), rad, out=x[0])
    x[1] -= rad
    np.divide(x, p, out=x, where=np.logical_not(dead, out=flags[1]))
    np.copyto(x, 1.0, where=dead)
    low = np.less_equal(x, 0.0, out=flags[1:])
    any_low = bool(low.any())
    np.copyto(x, 1.0, where=low)
    return _entropy_sum(x, p, scratch), (any_dead, any_low)


def conditional_entropy_at_signed(bloch, t=None, phi=None):
    """discord._conditional_entropy_at with each outcome's terms as products with sign = +-1.

    x -> H at (x, phi), or at (t, x) when phi is None; the sines and cosines
    of both angles are taken at every call.
    """
    (_, bx, by, bz), (ax, xx, xy, xz), (ay, yx, yy, yz), (az, zx, zy, zz) = bloch.tolist()

    def h_at(x):
        tx, px = (t, x) if phi is None else (x, phi)
        s2 = math.sin(2.0 * tx)
        mx, my, mz = s2 * math.cos(px), s2 * math.sin(px), math.cos(2.0 * tx)
        rb_m, tmx = bx * mx + by * my + bz * mz, xx * mx + xy * my + xz * mz
        tmy, tmz = yx * mx + yy * my + yz * mz, zx * mx + zy * my + zz * mz
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

    return h_at


# columns of the minors of row 0 in det4_stacked, minor k without column k
_MINOR_COLS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def det2_stacked(m):
    """Determinants of the top-left 2x2 blocks of a (..., n, n) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def det3_stacked(m):
    """Determinants of the top-left 3x3 blocks of a (..., n, n) stack."""
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def det4_stacked(m):
    """Determinants of a (..., 4, 4) stack: one det3_stacked call on the four minors of row 0."""
    terms = m[..., 0, :] * det3_stacked(np.moveaxis(m[..., 1:, _MINOR_COLS], -2, -3))
    return (((0.0 + terms[..., 0]) - terms[..., 1]) + terms[..., 2]) - terms[..., 3]


def phase_scan_loop(rho, grid_points, curve=conditional_entropy_curve):
    """Best grid point (t, phi, H(a|b)) of the scan_phase grid, one call per phase.

    The grid is discord_min's: grid_points angles each over t in [0, pi/2)
    and phi in [0, pi). The first phase whose row minimum strictly improves
    wins, at the first t of that minimum. curve stands in for
    conditional_entropy_curve (tests pass a coarsened one to force ties).
    """
    ts = np.linspace(0.0, np.pi / 2, grid_points, endpoint=False)
    phis = np.linspace(0.0, np.pi, grid_points, endpoint=False)
    best_t, best_phi, best_h = 0.0, 0.0, np.inf
    for phi in phis:
        row = curve(rho, ts, phi)
        i = int(np.argmin(row))
        if row[i] < best_h:
            best_t, best_phi, best_h = float(ts[i]), float(phi), float(row[i])
    return best_t, best_phi, best_h


def output_states(alpha, js):
    """Copier output, shape (len(js), 4, 4), written out independently of clonecorr."""
    js = np.asarray(js, dtype=float)
    beta = np.sqrt(1.0 - alpha * alpha)
    n = 1.0 - 2.0 * js
    c = alpha * beta * n / 2.0
    rho = np.zeros(js.shape + (4, 4))
    rho[:, 0, 0], rho[:, 3, 3] = alpha * alpha * n, beta * beta * n
    rho[:, 1:3, 1:3] = js[:, None, None]
    rho[:, 0, 1:3] = rho[:, 1:3, 0] = rho[:, 3, 1:3] = rho[:, 1:3, 3] = c[:, None]
    return rho


def separable_intervals_scan(alpha, scan_step=1e-4, tol=1e-6, floor=-1e-10):
    """Separable j intervals by grid scan plus bisection -> [(lo, hi), ...].

    A grid point is separable when the state is physical and its partial
    transpose has W3 >= 0, W4 >= 0 and minimum eigenvalue >= floor, with
    spectra from np.linalg.eigvalsh. Each run of separable grid points
    is widened by bisecting both edges to tol; a run that starts or ends
    on the grid's own edge keeps that grid point.
    """
    def separable(js):
        rho = output_states(alpha, js)
        sigma = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
        return ((np.linalg.eigvalsh(rho)[:, 0] >= floor)
                & (np.linalg.eigvalsh(sigma)[:, 0] >= floor)
                & (np.linalg.det(sigma[:, :3, :3]) >= 0.0) & (np.linalg.det(sigma) >= 0.0))

    def edge(x_false, x_true):
        while abs(x_true - x_false) > tol:
            mid = 0.5 * (x_false + x_true)
            x_false, x_true = (x_false, mid) if separable([mid])[0] else (mid, x_true)
        return 0.5 * (x_false + x_true)

    js = np.round(np.arange(scan_step, 0.5 + scan_step / 2, scan_step), 12)
    js = js[js <= 0.5]
    sep = separable(js)
    intervals = []
    i = 0
    while i < len(js):
        if not sep[i]:
            i += 1
            continue
        k = i
        while k + 1 < len(js) and sep[k + 1]:
            k += 1
        lo = js[i] if i == 0 else edge(js[i - 1], js[i])
        hi = js[k] if k == len(js) - 1 else edge(js[k + 1], js[k])
        intervals.append((float(lo), float(hi)))
        i = k + 1
    return intervals


def valid_j_range_jacobi(alpha, tol=1e-6):
    """Physical j window (lo, hi) with every spectrum from jacobi_eigvals.

    The grid scan at step 1e-3 picks the longest run of physical grid
    points (first on ties), and each interior edge is bisected to tol with
    one-matrix Jacobi stacks as the physicality predicate.
    """
    js = np.round(np.arange(0.0, 0.5 + 5e-4, 1e-3), 12)
    phys = jacobi_eigvals(build_output_batch(alpha, js))[:, -1] >= STATE_EIG_FLOOR
    best = None
    i = 0
    while i < len(js):
        if not phys[i]:
            i += 1
            continue
        k = i
        while k + 1 < len(js) and phys[k + 1]:
            k += 1
        if best is None or (k - i) > (best[1] - best[0]):
            best = (i, k)
        i = k + 1
    i0, i1 = best

    def is_physical(j):
        return jacobi_eigvals(build_output_batch(alpha, [j]))[0, -1] >= STATE_EIG_FLOOR

    lo = js[i0] if i0 == 0 else bisect_boundary(is_physical, js[i0 - 1], js[i0], tol)
    hi = js[i1] if i1 == len(js) - 1 else bisect_boundary(is_physical, js[i1 + 1], js[i1], tol)
    return (float(lo), float(hi))


def valid_j_range_reference(alpha):
    """The physical j window with F(j) = f(-eps) evaluated from scratch at each point.

    The package's earlier arrangement of valid_j_range: F is a function of
    (k, j) that recomputes eps and its j-free part on every call, wrapped in
    a second function for the bisection, with the same float operations in
    the same order and the same bisect_boundary call. The package's
    valid_j_range, which builds its test once per alpha, must equal it bit
    for bit and make the same number of predicate evaluations.
    """
    a, b = _amplitudes(alpha)
    k = (a * b) ** 2

    def cubic_at_floor(j):
        eps = -STATE_EIG_FLOOR
        n = 1.0 - 2.0 * j
        return ((-eps - 1.0) * eps - 2.0 * j * n) * eps - k * n * n * (2.0 * j - 0.5 * n)

    if cubic_at_floor(0.0) <= 0.0:
        return (0.0, 0.5)

    def is_physical(j):
        return cubic_at_floor(j) <= 0.0

    return (bisect_boundary(is_physical, 0.0, 1.0 / 6.0, WINDOW_TOL), 0.5)


def window_edge_roots(alpha):
    """Roots in [0, 1/6] of the window's j-cubic, by np.roots.

    With k = alpha^2 beta^2 and eps = -STATE_EIG_FLOOR, the triplet cubic
    at -eps, expanded in j, is -12k j^3 + (14k + 4 eps) j^2
    - (5k + 2 eps) j + k/2 - (1 + eps) eps^2; the state is physical where
    it is <= 0. Returns the real roots in [0, 1/6], ascending.
    """
    eps = -STATE_EIG_FLOOR
    k = alpha * alpha * (1.0 - alpha * alpha)
    coeffs = [-12.0 * k, 14.0 * k + 4.0 * eps, -(5.0 * k + 2.0 * eps),
              k / 2.0 - (1.0 + eps) * eps * eps]
    roots = np.roots(np.trim_zeros(coeffs, "f"))
    real = roots[np.abs(roots.imag) <= 1e-12 * np.maximum(1.0, np.abs(roots))].real
    return sorted(float(r) for r in real if 0.0 <= r <= 1.0 / 6.0)


_JACOBI_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def jacobi_eigvals_row_major(mats):
    """Descending eigenvalues of (..., 4, 4) real symmetric stacks, rotated in place.

    Cyclic Jacobi on the matrices as given, each rotation on strided
    (..., 4) columns and rows; every stack on the last batch axis converges
    on its own, as in clonecorr.hermat.jacobi_eigvals. No validation.
    """
    a = np.array(mats, dtype=float)
    batch_shape = a.shape[:-2]
    a = a.reshape((math.prod(batch_shape[:-1]), math.prod(batch_shape[-1:]), 4, 4))

    def max_off2(x):
        off = x.copy()
        off[..., range(4), range(4)] = 0.0
        return (off ** 2).sum(axis=(-2, -1)).max(axis=-1, initial=0.0)

    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off2 = max_off2(a)
        active = ~(off2 <= JACOBI_OFF_TOL ** 2)   # a NaN norm stays active
        if not active.any():
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise ConvergenceError(f"Jacobi sweep budget of {JACOBI_MAX_SWEEPS} exhausted "
                                   f"(max off-diagonal norm {np.sqrt(off2.max()):.3e})")
        b = a if active.all() else a[active]   # the stacks still rotating
        with np.errstate(divide="ignore", invalid="ignore"):
            for p, q in _JACOBI_PAIRS:
                apq = b[..., p, q]
                theta = (b[..., q, q] - b[..., p, p]) / (2.0 * apq)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = np.where(apq == 0.0, 0.0, sgn / (np.abs(theta) + np.hypot(theta, 1.0)))
                c = 1.0 / np.sqrt(t * t + 1.0)
                c, s = c[..., None], (t * c)[..., None]
                # each pair of new columns (then rows) from the old pair, then written
                cp, cq = b[..., :, p], b[..., :, q]
                b[..., :, p], b[..., :, q] = c * cp - s * cq, s * cp + c * cq
                rp, rq = b[..., p, :], b[..., q, :]
                b[..., p, :], b[..., q, :] = c * rp - s * rq, s * rp + c * rq
        if b is not a:
            a[active] = b

    eigs = -np.sort(-a[..., range(4), range(4)], axis=-1)
    return eigs.reshape(batch_shape + (4,))


SURFACE_FIELDS = ("alpha", "j", "t", "discord", "w3", "w4", "min_ppt_eig", "physical",
                  "classification")
SURFACE_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s"


def surface_text_rows(grid, fmt):
    """Surface file text ("csv" or "json") of a cli.surface_records grid, row by row.

    The grid is first expanded to one entry per (j, t) row: the per-j fields
    repeated over t, t tiled over j. Every row is then formatted on its own,
    through one %.12g template for CSV, or for JSON as one object whose
    floats each go through float(format(x, ".12g")).
    """
    n_j, n_t = grid["discord"].shape
    columns = {k: np.repeat(grid[k], n_t)
               for k in ("j", "w3", "w4", "min_ppt_eig", "physical", "classification")}
    columns["alpha"] = np.full(n_j * n_t, grid["alpha"])
    columns["t"] = np.tile(grid["t"], n_j)
    columns["discord"] = grid["discord"].ravel()
    rows = list(zip(*(columns[k].tolist() for k in SURFACE_FIELDS)))
    if fmt == "csv":
        lines = [",".join(SURFACE_FIELDS)]
        lines += [SURFACE_CSV_ROW % (*row[:7], "true" if row[7] else "false", row[8])
                  for row in rows]
        return "\n".join(lines) + "\n"
    payload = [{k: float(format(v, ".12g")) if i < 7 else v
                for i, (k, v) in enumerate(zip(SURFACE_FIELDS, row))} for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def random_herm2(rng):
    d = rng.standard_normal(2)
    off = rng.standard_normal() + 1j * rng.standard_normal()
    return np.array([[d[0], off], [np.conj(off), d[1]]])


def random_sym4(rng):
    m = rng.standard_normal((4, 4))
    return (m + m.T) / 2.0


def random_sym_state4(rng):
    """Random real symmetric two-qubit density matrix."""
    m = rng.standard_normal((4, 4))
    s = m @ m.T
    return s / np.trace(s)


def random_real_state2(rng):
    """Random qubit state with Bloch vector in the x-z plane (real matrix)."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    r = rng.uniform(0.0, 1.0)
    x, z = r * np.sin(theta), r * np.cos(theta)
    return np.array([[1.0 + z, x], [x, 1.0 - z]]) / 2.0


def random_product_state(rng):
    return np.kron(random_real_state2(rng), random_real_state2(rng))


def bell_phi_plus():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return np.outer(v, v)


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def swap_qubits(m):
    """Relabel the two qubits of a 4x4 operator: SWAP . m . SWAP."""
    perm = [0, 2, 1, 3]
    return np.asarray(m)[np.ix_(perm, perm)]
