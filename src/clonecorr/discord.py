"""Quantum discord of the two-clone state via projective measurement of clone b.

The measurement basis is the one-parameter family
{cos(t)|0> + sin(t)|1>, sin(t)|0> - cos(t)|1>}, optionally extended by a
relative phase phi on the |1> component. The discord at a basis is

    D = H(b) - H(ab) + H(a | measurement on b),

with H(a) and H(b) from rho's Bloch matrix (_model.qubit_entropy of |r_a|
and |r_b|), and the reported discord minimizes the conditional entropy over
the basis family: a dense grid in t on [0, pi/2) (the projector pair has
period pi/2), then golden-section refinement around the best grid point.
By default phi is held at 0; scan_phase=True extends the grid to phi in
[0, pi), which for asymmetric inputs finds genuinely lower minima (the
output's y-axis correlation is invisible to the real family), so the
default value is an upper bound on the projective discord.

conditional_entropy_curve is elementwise in (state, t, phi): phi may be an
array that broadcasts against the angles, so the (t, phi) grid of the phase
scan is evaluated a block of phase rows per call rather than one call per
phase. It uses no complex arithmetic. Entries at phi = 0 are the real
family's, computed by its own float operations in their original order, so
they equal the complex-arithmetic kernel it replaced (tests/oracles.py's
conditional_entropy_curve_complex) bit for bit. Other phases differ from it
by rounding: they take rho's Bloch form r_a, T (R. & M. Horodecki, PRA 54,
1838 (1996); Luo, PRA 77, 042303 (2008)). With c = cos(phi), s = sin 2t,
c2 = cos 2t and sigma = +-1 the outcome, the branch leaves clone a the
spectrum p (1/2 +- rad/p), where

    p = (b00 c + a00) + (b11 c + a11),
    rad^2 = |r_a + sigma T m|^2 / 16 = A + B c + C c^2,
    X0 = a_x + sigma T_xz c2,  X1 = sigma T_xx s,  Y = T_yy s,
    Z0 = a_z + sigma T_zz c2,  Z1 = sigma T_zx s,
    16 A = X0^2 + Z0^2 + Y^2,  8 B = X0 X1 + Z0 Z1,  16 C = X1^2 + Z1^2 - Y^2.

These are the only Bloch terms of a real rho. p keeps the real family's
compressed-entry sum (a and b weight rho's entries by u u, u v, v v): the
forms (1 +- r_b.m)/2 and (b00 + b11) c + (a00 + a11) lose up to 7e-14 bits
on the copier at j = 0. rad^2 goes by Horner, clamped at 0 before its sqrt.
The seven coefficients per (outcome, state, t) are computed once per phase
query, and with them which of three passes a query can need: masking dead
branches (only if some p can round to DEGENERATE_P or below, _live), the
clamp (only if some rad^2 can round below 0, _unclamped) and setting x- <=
0 to 1 (only in a call where some x- is). A skipped pass is one that would
change no entry, so every bit stays as with all three run (tests/oracles.py's
conditional_entropy_curve_unselected). Every copier state skips the mask,
since |r_b| = 1 - 2j <= 2/3 keeps p >= 1/6. A one-entry cache, keyed on
rho's and the distinct ts's shapes and bytes and on the angle rank, keeps
the coefficients and choices across discord_min's block calls.
It is a cache rather than a private entry point because those calls must
stay calls of conditional_entropy_curve, whose calls and angles the
benchmark traces. A call takes cos and sin once per distinct angle (a
stride-0 axis of a broadcast ts is evaluated once) and runs with a small
ufunc buffer (see _PHASE_BUFSIZE). Both families keep their full-size
arrays in one workspace per call (_workspace), which made a phase query
about 30 % faster than plain temporaries; a phase query took 12.6 ms,
against 13.7 ms with 16-row blocks and every pass run (points benchmark,
op_p90_ms, medians of ten runs each). The real family's eight planes,
1.2 MB at the sweep's 99 states x 91 t, are the largest block a surface file
frees, so glibc's trim threshold (twice that) keeps the heap the file's CSV
text takes: with cli's sliced write, a warm file made a median of 0 minor
page faults at every output-path length tried (20 to 76 characters),
against 440-940 with the kernel on plain temporaries.

discord_min's golden-section refinement calls a closure over rho's Bloch
form (_conditional_entropy_at): the same quantity in scalar math, equal to
rounding, at 1.5 us an angle against 55 us a one-angle kernel call (2-vCPU
Xeon, numpy 2.4). The grids stay on the kernel until ROADMAP item 3
re-pins what depends on it: the sweep's sha256-pinned surface files and
the benchmark's count of kernel angles per phase query.

discord_surface evaluates the unminimized discord on a whole (j, t) grid
as arrays: one batch of output states, one batched spectrum and one
conditional-entropy call over the (j, t) grid. Its formula and physical
flag are written once, in _surface, which cli.surface_records shares.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hermat
from ._model import qubit_entropy
from .cloner import build_output_batch
from .errors import DomainError, InvalidStateError
from .search import golden_min

# outcome probabilities at or below this are degenerate and contribute 0
DEGENERATE_P = 1e-12
# angles per axis of discord_min's grid: t over [0, pi/2), phi over [0, pi)
GRID_POINTS = 721
# bracket width at which discord_min's golden-section refinement stops
REFINE_TOL = 1e-9
# phase rows per conditional_entropy_curve call in the scan_phase grid. A call
# keeps its full-size temporaries in one workspace of about 4.1 x 2 x rows x
# GRID_POINTS floats (1.5 MB at 32 x 721). The size trades the points
# benchmark's op_p90_ms, which falls as blocks grow and calls get fewer,
# against its peak_rss_mb: a large workspace raises glibc's dynamic trim
# threshold, so more of the freed heap stays resident. Two 10 s runs of each
# (seed 5, 2-vCPU Xeon, numpy 2.4) read 13.2-13.5 ms and 42.0 MiB at 16 rows,
# 12.2-12.7 ms and 42.0-42.2 MiB at 24, 12.1-12.5 ms and 42.4-42.5 MiB at 32,
# and 11.5-12.5 ms and 43.4-43.5 MiB at 48. In-process, 8 seeded copier phase
# queries (mean of each one's best of 5; three runs) took 12.5-12.8 ms at 32
# rows, against 13.3-13.4 at 16, 12.7-12.9 at 24 and 12.7-13.2 at 48
_PHASE_BLOCK = 32
# ufunc buffer size, in elements, while conditional_entropy_curve runs;
# restored on return. Both the phase rows and the real family broadcast
# per-t arrays against per-state or per-phase ones, so numpy's loops run one
# t row at a time, and numpy copies the operands through its ufunc buffer
# when a row is shorter than about a third of that buffer. With the default
# of 8192 elements, 721-point phase rows made those products about 3x slower
# per entry (2-vCPU Xeon host, numpy 2.4), and a sweep-shaped real-family
# call (99 states x 91 t, on its workspace) took 0.46 ms against 0.38 ms on
# the same host. 64 is no longer than the rows the package makes by default:
# discord_min's 721-point grid rows and the sweep's 91-point t rows
_PHASE_BUFSIZE = 64
# flat indices into rho of the entries that <m, e| rho |n, e> weights by
# u u, u v, u v* and |v|^2 (rows), for (m, n) = (0, 0), (0, 1), (1, 1) (columns)
_Q_ENTRIES = np.array([[0, 2, 10], [1, 3, 11], [4, 6, 14], [5, 7, 15]])
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# _PAULI_PAIRS[i, k] = sigma_i (x) sigma_k, sigma_0 = I
_PAULI_PAIRS = np.einsum("iab,kcd->ikacbd", _PAULI, _PAULI).reshape(4, 4, 4, 4)
# (key, coefficients, live, unclamped) of the last phase query (see _phase_coefficients)
_phase_cache = (None, None, None, None)


@dataclass(frozen=True)
class DiscordResult:
    """Discord at the minimizing basis together with all entropy components (bits).

    optimal_t and optimal_phi are where the golden search stopped, known only to
    about REFINE_TOL; in a phase query's flat minimum optimal_phi can move ~1e-2 rad.
    """
    discord: float
    optimal_t: float
    optimal_phi: float
    entropy_joint: float
    entropy_a: float
    entropy_b: float
    conditional_entropy: float
    mutual_info_j: float
    mutual_info_i: float


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

    Clone b is measured in {cos t|0> + e^{i phi} sin t|1>, sin t|0> -
    e^{i phi} cos t|1>}. The projector pair is invariant under t -> t + pi
    and outcome-swapped under t -> t + pi/2, so [0, pi/2) is a canonical
    range for t. rho may be one real symmetric state or a stack of them,
    of shape (..., 4, 4); phi may be a scalar or an array that broadcasts
    against ts. The result has shape rho.shape[:-2] +
    np.broadcast_shapes(ts.shape, np.shape(phi)), with a scalar t treated
    as shape (1,). The arithmetic is elementwise, so each entry equals the
    single-state, single-angle value bit for bit. Degenerate branches
    contribute 0; conditional spectra are clipped to their positive part,
    which leaves valid states untouched and keeps the value finite when rho
    is not positive semidefinite (unphysical sweep regions). A rho with a
    NaN or infinite entry is refused, and a complex one if any imaginary
    part exceeds HERM_ATOL, else taken as real. A NaN or infinite angle t
    or phi raises DomainError, the one check of every caller's angles.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected (..., 4, 4), got shape {rho.shape}")
    hermat._require_finite(rho, "state")
    rho = np.asarray(hermat._require_real(rho, "state"), dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    phi = np.asarray(phi, dtype=float)
    angles = np.broadcast_shapes(ts.shape, phi.shape)
    ts, phi = _distinct(ts), _distinct(phi)
    if not (np.isfinite(ts).all() and np.isfinite(phi).all()):
        raise DomainError("measurement angles must be finite")
    real_rows = phi == 0.0
    bufsize = np.setbufsize(_PHASE_BUFSIZE)   # see _PHASE_BUFSIZE
    try:
        if real_rows.all():
            return _curve(rho, ts, angles)
        total = _phase_rows(rho, ts, angles, phi)
        if real_rows.any():
            # phi = 0 entries keep the real family's bits, from one call on the distinct ts
            np.copyto(total, _curve(rho, ts, (1,) * (len(angles) - ts.ndim) + ts.shape),
                      where=real_rows)
        return total
    finally:
        np.setbufsize(bufsize)


def _curve(rho, ts, angles):
    """The real family (phi = 0) at the angles ts broadcast to shape angles, in one workspace."""
    batch = rho.shape[:-2]
    # axis 0 of uu, uv, vv and q is the outcome (0 or 1), then states, then angles
    uu, uv, vv = _ket_products(ts, len(batch), len(angles))
    w, flags = _workspace((2,) + batch + angles, 8, 3)
    q, p, rad, x, scratch = w[:3], w[3], w[4], w[5:7], w[7]
    # rows of r are rho's entries that <m, e| rho |n, e> weights by u u,
    # u v, u v and v v, for (m, n) = (0, 0), (0, 1), (1, 1)
    r = rho.reshape(-1, 16).T[_Q_ENTRIES].reshape((4, 3, 1) + batch + (1,) * len(angles))
    np.multiply(uu, r[0], out=q)
    for k, ket in ((1, uv), (2, uv), (3, vv)):
        q += np.multiply(ket, r[k], out=w[5:])   # in x's and the scratch plane
    q00, q01, q11 = q
    # branch probability p and the conditional spectrum p/2 +- rad of clone a
    np.add(q00, q11, out=p)
    np.hypot(np.multiply(np.subtract(q00, q11, out=scratch), 0.5, out=scratch),
             np.abs(q01, out=q01), out=rad)
    # x = (p/2 +- rad) / p. Dead branches skip the divide; they and every x <= 0
    # are set to 1, where x log2(x) is +0.0, so the log2 needs no mask
    dead = np.less_equal(p, DEGENERATE_P, out=flags[0])
    np.add(np.multiply(p, 0.5, out=x[1]), rad, out=x[0])
    x[1] -= rad
    np.divide(x, p, out=x, where=np.logical_not(dead, out=flags[1]))
    np.copyto(x, 1.0, where=dead)
    np.copyto(x, 1.0, where=np.less_equal(x, 0.0, out=flags[1:]))
    return _entropy_sum(x, p, scratch)


def _ket_products(ts, n_batch, n_angles):
    """u u, u v and v v of the measured kets (u, e^{i phi} v) on the angle axes.

    Axis 0 is the outcome: (u, v) = (cos t, sin t), (sin t, -cos t).
    """
    shape = (1,) * (n_batch + n_angles - ts.ndim) + ts.shape
    c, s = np.cos(ts).reshape(shape), np.sin(ts).reshape(shape)
    u, v = np.stack([c, s]), np.stack([s, -c])
    return u * u, u * v, v * v


def _phase_rows(rho, ts, angles, phi):
    """_curve's counterpart at phases phi (no stride-0 axes); see the module docstring."""
    (a00, a11, b00, b11, a, b, c2), live, unclamped = _phase_coefficients(rho, ts, len(angles))
    w, (flags,) = _workspace((2,) + rho.shape[:-2] + angles, 4, 1)
    c = np.cos(phi)
    p = np.add(np.multiply(b00, c, out=w[0]), a00, out=w[0])
    p += np.add(np.multiply(b11, c, out=w[1]), a11, out=w[1])
    # rad^2 by Horner, clamped at 0 unless the query rules out rounding below
    # it (sqrt of a negative is NaN)
    rad = np.add(np.multiply(c2, c, out=w[1]), b, out=w[1])
    rad *= c
    rad += a
    if not unclamped:
        np.maximum(rad, 0.0, out=rad)
    np.sqrt(rad, out=rad)
    # x = 1/2 +- rad/p, one divide. A dead branch takes rad/p = 1/2, so
    # x = (1, 0); only x- can reach x <= 0, and is set to 1 (x log2 x = +0.0)
    dead = flags
    if live or not np.less_equal(p, DEGENERATE_P, out=dead).any():
        np.divide(rad, p, out=rad)
    else:
        np.copyto(np.divide(rad, p, out=rad, where=~dead), 0.5, where=dead)
    x = w[2:4]
    np.add(0.5, rad, out=x[0])
    np.subtract(0.5, rad, out=x[1])
    low = np.less_equal(x[1], 0.0, out=flags)
    if low.any():
        np.copyto(x[1], 1.0, where=low)
    return _entropy_sum(x, p, w[1])


def _workspace(full, floats, bools):
    """(floats float planes, bools bool planes) of shape full from one allocation."""
    n = math.prod(full)
    ws = np.empty(floats * n + -(-bools * n // 8) + 7)
    ws = ws[-ws.ctypes.data % 64 // 8:]   # start on 64 bytes; malloc's 16 ran up to 5 % slower
    return (ws[:floats * n].reshape((floats,) + full),
            ws[floats * n:].view(np.bool_)[:bools * n].reshape((bools,) + full))


def _entropy_sum(x, p, scratch):
    """-sum over outcomes of p (x+ log2 x+ + x- log2 x-); overwrites x[0] and scratch.

    Subtracting from +0.0 outcome by outcome rounds (signed zeros included)
    as adding -x log2(x).
    """
    plus = np.log2(x[0], out=scratch)
    plus *= x[0]
    minus = np.log2(x[1], out=x[0])
    minus *= x[1]
    plus += minus
    plus *= p
    total = np.subtract(0.0, plus[0])
    total -= plus[1]
    return total


def _phase_coefficients(rho, ts, n_angles):
    """(coefficients, live, unclamped) of a phase query; see _phase_rows.

    coefficients stacks (a00, a11, b00, b11, A, B, C), each (2,) + batch +
    ts's angle axes. live: no branch probability p can round to
    DEGENERATE_P or below, at any t and phi. unclamped: no rad^2 can round
    below 0. One-entry cache (see the module docstring): a mutated or
    different rho misses.
    """
    global _phase_cache
    key = (rho.shape, rho.tobytes(), ts.shape, ts.tobytes(), n_angles)
    cached = _phase_cache   # one read: a consistent entry across threads
    if cached[0] == key:
        return cached[1:]
    batch = rho.shape[:-2]
    state = batch + (1,) * n_angles
    tail = (1,) * (n_angles - ts.ndim) + ts.shape
    uu, uv, vv = _ket_products(ts, len(batch), n_angles)
    # the (0, 0) and (1, 1) columns of _Q_ENTRIES: q = a + b cos(phi)
    r = rho.reshape(-1, 16).T[_Q_ENTRIES[:, ::2]].reshape((4, 2, 1) + state)
    (a00, a11), (b00, b11) = uu * r[0] + vv * r[3], uv * (r[1] + r[2])
    # r_a = bl[1:, 0] and T = bl[1:, 1:]; a real rho has only these terms
    bloch = _bloch(rho)
    bl = np.moveaxis(bloch, (-2, -1), (0, 1)).reshape((4, 4) + state)
    sig = np.array([1.0, -1.0]).reshape((2,) + (1,) * len(state))
    s, c2 = np.sin(2.0 * ts).reshape(tail), np.cos(2.0 * ts).reshape(tail)
    x0, x1 = bl[1, 0] + sig * bl[1, 3] * c2, sig * bl[1, 1] * s
    z0, z1, y = bl[3, 0] + sig * bl[3, 3] * c2, sig * bl[3, 1] * s, bl[2, 2] * s
    coef = np.stack([a00, a11, b00, b11, (x0 * x0 + z0 * z0 + y * y) / 16,
                     (x0 * x1 + z0 * z1) / 8, (x1 * x1 + z1 * z1 - y * y) / 16])
    coef.flags.writeable = False
    entry = (key, coef, _live(rho, bloch), _unclamped(*coef[4:]))
    _phase_cache = entry
    return entry[1:]


def _live(rho, bloch):
    """Whether no branch probability p of a rho in the stack can round to DEGENERATE_P or below.

    Exactly, p = (tr rho +- r_b.m)/2 >= (tr rho - |r_b|)/2, clone b's least
    eigenvalue, for every unit m, and cos(phi) in [-1, 1] keeps the kernel's
    p above it too. The kernel's p and this bound are each within 16 eps
    sum|rho_ij| of their exact values; the bound must clear DEGENERATE_P by
    twice their sum.
    """
    least = (bloch[..., 0, 0] - np.sqrt(np.square(bloch[..., 0, 1:]).sum(axis=-1))) / 2
    rounding = 64 * np.finfo(float).eps * np.abs(rho).sum(axis=(-2, -1))
    return bool((least > DEGENERATE_P + rounding).all())


def _unclamped(a, b, c2):
    """Whether rad^2 = A + B c + C c^2 by Horner stays above 0 for every c in [-1, 1].

    The least value over [-1, 1] is at an end, A + C - |B|, unless the
    vertex c = -B / 2C lies inside (2C > |B|); it is then (2C - |B|)^2 / 4C
    lower. Horner's rounding and this minimum's are each within 8 eps (|A| +
    |B| + |C|) for |c| <= 1; the minimum must clear twice their sum.
    """
    slack = 2.0 * c2 - np.abs(b)
    dip = np.divide(np.square(slack), 4.0 * c2, out=np.zeros_like(slack), where=slack > 0.0)
    least = a + c2 - np.abs(b) - dip
    rounding = 32 * np.finfo(float).eps * (np.abs(a) + np.abs(b) + np.abs(c2))
    return bool((least > rounding).all())


def _bloch(rho):
    """c of shape rho.shape[:-2] + (4, 4), with rho = (1/4) sum_ik c_ik sigma_i (x) sigma_k.

    c_ik = tr(rho sigma_i (x) sigma_k): r_a = c_i0, r_b = c_0k, T = c_ik (i, k > 0).
    """
    return np.einsum("...xy,ikyx->...ik", rho, _PAULI_PAIRS).real


def _conditional_entropy_at(bloch, t=None, phi=None):
    """x -> conditional_entropy_curve at (x, phi), or at (t, x) when phi is None.

    Scalar math from bloch = _bloch(rho). Outcome +-m, m = (sin 2t cos phi,
    sin 2t sin phi, cos 2t), has probability p = (1 +- r_b.m)/2 and leaves
    clone a the unnormalised spectrum p/2 +- |r_a +- T m|/4 (R. & M.
    Horodecki, PRA 54, 1838 (1996); Luo, PRA 77, 042303 (2008)). As in the
    kernel, branches with p <= DEGENERATE_P and eigenvalues <= 0 contribute
    0; the two agree to rounding, not bitwise.
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


def _marginal_entropies(bloch):
    """[H(a), H(b)] in bits from bloch = _bloch(rho): trace c_00, Bloch vectors c_i0 and c_0k."""
    tr = float(bloch[0, 0])
    return [qubit_entropy(tr, math.hypot(*r)) for r in (bloch[1:, 0], bloch[0, 1:])]


def _admitted(rho):
    """The one check of a user state: (rho as a real float 4x4 array, its descending spectrum)."""
    rho = hermat._require_real_symmetric(rho, "state")
    return rho, hermat.validate_state(rho)


def _conditional_entropy(rho, t, phi):
    """conditional_entropy of an admitted rho at the numbers t and phi."""
    return float(conditional_entropy_curve(rho, [float(t)], float(phi))[0])


def conditional_entropy(rho, t, phi=0.0):
    """Probability-weighted entropy of clone a after measuring clone b at numbers (t, phi)."""
    rho, _ = _admitted(rho)
    return _conditional_entropy(rho, t, phi)


def mutual_info_j(rho):
    """Unmeasured mutual information H(a) + H(b) - H(ab), in bits."""
    rho, spectrum = _admitted(rho)
    ha, hb = _marginal_entropies(_bloch(rho))
    return ha + hb - hermat.vn_entropy(spectrum)


def mutual_info_i(rho, t, phi=0.0):
    """Measurement-based mutual information H(a) - H(a | measure b at (t, phi)), in bits."""
    rho, _ = _admitted(rho)
    return _marginal_entropies(_bloch(rho))[0] - _conditional_entropy(rho, t, phi)


def discord_at(rho, t, phi=0.0):
    """Discord H(b) - H(ab) + H(a | measure b) at one basis (t, phi) (not minimized).

    Equals mutual_info_j - mutual_info_i at the same basis.
    """
    rho, spectrum = _admitted(rho)
    _, hb = _marginal_entropies(_bloch(rho))
    return hb - hermat.vn_entropy(spectrum) + _conditional_entropy(rho, t, phi)


def discord_min(rho, *, scan_phase=False):
    """Minimize discord over the measurement family.

    Dense grid of GRID_POINTS angles over t in [0, pi/2) guards against the
    conditional entropy's local minima; golden-section then refines around
    the best grid point to REFINE_TOL. The grid has GRID_POINTS phase rows
    phi in [0, pi) with scan_phase and only the phi = 0 row, the real
    family, without it; either way it is evaluated _PHASE_BLOCK rows per
    conditional_entropy_curve call. The best grid point is the first row
    that strictly improves on the rows before it, at the first t of that
    row's minimum. With scan_phase the refinement then alternates between
    the two angles. The grids go through conditional_entropy_curve and the
    refinement through the scalar _conditional_entropy_at (see the module
    docstring), so the result agrees with an all-kernel search to rounding.
    """
    rho, spectrum = _admitted(rho)
    return _discord_min(rho, spectrum, scan_phase)


def _discord_min(rho, spectrum, scan_phase):
    """discord_min of a validated float state rho and its descending spectrum."""
    bloch = _bloch(rho)
    ha, hb = _marginal_entropies(bloch)
    hab = hermat.vn_entropy(spectrum)

    ts = np.linspace(0.0, np.pi / 2, GRID_POINTS, endpoint=False)
    dt, dphi = (np.pi / 2) / GRID_POINTS, np.pi / GRID_POINTS
    # the real family is the phase grid's phi = 0 row
    phis = np.linspace(0.0, np.pi, GRID_POINTS, endpoint=False) if scan_phase else np.zeros(1)
    best_t, best_phi, best_h = 0.0, 0.0, np.inf
    for k in range(0, len(phis), _PHASE_BLOCK):
        block = phis[k:k + _PHASE_BLOCK, None]
        # ts at the block's full shape, so np.size(ts) counts the (t, phi)
        # pairs evaluated (the benchmark tracer's angle count)
        curves = conditional_entropy_curve(
            rho, np.broadcast_to(ts, (len(block), GRID_POINTS)), block)
        # flat argmin: the block's first minimal row, then its first t
        r, i = np.unravel_index(np.argmin(curves), curves.shape)
        if curves[r, i] < best_h:
            best_t, best_phi, best_h = float(ts[i]), float(block[r, 0]), float(curves[r, i])
    # one-dimensional refinements around the best grid point, alternating
    # between the angles when phi was scanned
    best_t, best_h = golden_min(_conditional_entropy_at(bloch, phi=best_phi),
                                best_t - dt, best_t + dt, REFINE_TOL)
    if scan_phase:
        best_phi, best_h = golden_min(_conditional_entropy_at(bloch, t=best_t),
                                      best_phi - dphi, best_phi + dphi, REFINE_TOL)
        best_t, best_h = golden_min(_conditional_entropy_at(bloch, phi=best_phi),
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


def discord_surface(alpha, j_grid, t_grid):
    """Unminimized discord at every (j, t) grid point.

    j_grid and t_grid are nonempty 1-D sequences or scalars (one point);
    a grid of more dimensions raises DomainError. Returns (discord,
    physical): discord has shape (len(j_grid), len(t_grid)) and physical,
    shape (len(j_grid),), flags the machine parameters where the output
    state is positive semidefinite. At the other j the joint entropy uses
    the positive part of the spectrum, so the surface stays finite there.
    """
    j_grid = np.atleast_1d(np.asarray(j_grid, dtype=float))
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if j_grid.ndim > 1 or t_grid.ndim > 1:
        raise DomainError(f"j and t grids must be 1-D, got shapes {j_grid.shape} "
                          f"and {t_grid.shape}")
    if j_grid.size == 0 or t_grid.size == 0:
        raise DomainError("j and t grids must be nonempty")
    rhos = build_output_batch(alpha, j_grid)
    return _surface(rhos, hermat.jacobi_eigvals(rhos), t_grid)


def _surface(rhos, spectra, t_grid):
    """discord_surface's (discord, physical) from a (J, 4, 4) stack and its descending spectra."""
    physical = spectra[:, -1] >= hermat.STATE_EIG_FLOOR
    hab = hermat.plogp(spectra).sum(axis=-1)
    hb = hermat.plogp(hermat.eig_herm2(hermat.partial_trace(rhos, "b"))).sum(axis=-1)
    curve = conditional_entropy_curve(rhos, t_grid, 0.0)
    return (hb - hab)[:, None] + curve, physical
