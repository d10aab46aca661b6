"""Dense numerics for the small Hermitian matrices used throughout the package.

Everything is fixed-size: 2x2 Hermitian (complex allowed), the clones'
reduced states, and 4x4 real symmetric, the two-clone states and their
partial transposes; validate_state checks a 4x4 state only. 4x4 spectra
come from LAPACK (np.linalg.eigvalsh), or from cyclic Jacobi sweeps for the
pinned sweep stacks; determinants are direct cofactor expansions, written
once over entries (see _det2): one matrix as Python floats, a stack as
arrays, with the same bits. The 2x2 closed form eig_herm2 serves the
surface's H(b) column and user calls only: a single state's clone entropies
come from its Bloch matrix (discord). The batch routines take (..., n, n)
stacks so parameter scans stay cheap.

Jacobi serves only the two stacks behind the sha256-pinned surface files
(in the tests and in bench/pinned.json): a surface's states and their
partial transposes, in one call on their (2, J, 4, 4) stack from
cli.surface_records (discord_surface and separability.ppt_data take one
stack a call). There eigvalsh changes the last printed digit of some rows,
and the benchmark pins Jacobi's per-op matrix count. Jacobi rotates an
entry-major copy, whole contiguous columns and rows at a time, with the
bits of the row-major loop that tests/oracles.py keeps. Every other 4x4
spectrum is LAPACK, np.linalg.eigvalsh of one matrix, about 80x faster than
a one-matrix Jacobi batch; on copier states and their partial transposes
the two agree to about 2e-15. eig_sym4 checks a matrix that comes from
outside (a user's state, through validate_state) before its spectrum; a
matrix the library built, such as a point query's copier state and its
partial transpose, goes straight to eigvalsh, with the same bits.
The exact spectra planned in ROADMAP.md revise those pins and then delete
Jacobi outright.

Every validating entry point rejects NaN and infinite entries: NaN compares
False against every tolerance, so it would otherwise pass as a state.

Basis convention for two-qubit operators: |00>, |01>, |10>, |11>, first
index = clone a, second = clone b.
"""

import math
import numbers

import numpy as np

from .errors import ConvergenceError, InvalidStateError

# eigenvalues of a state may dip this far below zero from roundoff
STATE_EIG_FLOOR = -1e-10
TRACE_TOL = 1e-12
HERM_ATOL = 1e-12

JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 50

_JACOBI_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _require_finite(x, what="matrix"):
    # before any arithmetic on x, so the check itself raises no RuntimeWarning
    if not np.isfinite(x).all():
        raise InvalidStateError(f"{what} has NaN or infinite entries")


def eig_herm2(m):
    """Both eigenvalues of 2x2 Hermitian matrices, descending.

    Closed form tr/2 +- hypot((m00 - m11)/2, |m01|); exact for 2x2 and
    free of cancellation in the discriminant. Accepts batches of shape
    (..., 2, 2) and returns (..., 2).
    """
    m = np.asarray(m)
    if m.shape[-2:] != (2, 2):
        raise InvalidStateError(f"expected (..., 2, 2), got shape {m.shape}")
    _require_finite(m)
    d0, d1, off = m[..., 0, 0], m[..., 1, 1], m[..., 0, 1]
    if (np.any(np.abs(np.imag(d0)) > HERM_ATOL) or np.any(np.abs(np.imag(d1)) > HERM_ATOL)
            or np.any(np.abs(off - np.conj(m[..., 1, 0])) > HERM_ATOL)):
        raise InvalidStateError("matrix is not Hermitian")
    a, b = np.real(d0), np.real(d1)
    half_tr = 0.5 * (a + b)
    rad = np.hypot(0.5 * (a - b), np.abs(off))
    return np.stack([half_tr + rad, half_tr - rad], axis=-1)


def jacobi_eigvals(mats):
    """Eigenvalues of stacks of real symmetric 4x4 matrices: (..., 4, 4) -> (..., 4), descending.

    Cyclic Jacobi rotations over the six upper-triangle positions. Leading
    axes index independent stacks (the last batch axis): each is rotated until
    its own largest off-diagonal Frobenius norm is at most JACOBI_OFF_TOL, so
    a (k, m, 4, 4) call equals its k (m, 4, 4) calls bit for bit. Rotations
    run on one entry-major (4, 4, stacks, m) copy: contiguous columns, then rows.
    Symmetry is the caller's responsibility; eig_sym4 is the validating
    single-matrix entry point. Raises ConvergenceError after JACOBI_MAX_SWEEPS
    sweeps and InvalidStateError on a shape other than (..., 4, 4), a NaN or
    infinite entry, or an imaginary part above HERM_ATOL.
    """
    a = np.asarray(mats)
    if a.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected (..., 4, 4), got shape {a.shape}")
    _require_finite(a)
    a = _require_real(a)
    batch_shape = a.shape[:-2]
    a = a.reshape((math.prod(batch_shape[:-1]), math.prod(batch_shape[-1:]), 4, 4))
    a = np.moveaxis(a, (2, 3), (0, 1)).astype(float, order="C")

    def max_off2(x):
        # a copy, never a view, is zeroed; its C order keeps the row-major sums
        off = np.moveaxis(x, (0, 1), (-2, -1)).copy()
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
        b = a if active.all() else a[:, :, active]   # the stacks still rotating
        # theta overflows on a tiny apq (alpha near 1e-160); t = 0 is then the limit
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for p, q in _JACOBI_PAIRS:
                apq = b[p, q]
                theta = (b[q, q] - b[p, p]) / (2.0 * apq)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = np.where(apq == 0.0, 0.0, sgn / (np.abs(theta) + np.hypot(theta, 1.0)))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # each pair of new columns (then rows) from the old pair, then written
                cp, cq = b[:, p], b[:, q]
                b[:, p], b[:, q] = c * cp - s * cq, s * cp + c * cq
                rp, rq = b[p], b[q]
                b[p], b[q] = c * rp - s * rq, s * rp + c * rq
        if b is not a:
            a[:, :, active] = b

    eigs = -np.sort(-a.diagonal(axis1=0, axis2=1), axis=-1)
    return eigs.reshape(batch_shape + (4,))


def _require_real(m, what="matrix"):
    # imaginary parts within HERM_ATOL are roundoff, dropped without a ComplexWarning
    if np.iscomplexobj(m) and np.abs(m.imag).max(initial=0.0) > HERM_ATOL:
        raise InvalidStateError(f"{what} has complex entries")
    return m.real


def _require_real_symmetric(m, what="matrix"):
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 {what}, got shape {m.shape}")
    _require_finite(m, what)
    m = _require_real(m, what)
    if np.abs(m - m.T).max() > HERM_ATOL:
        raise InvalidStateError(f"{what} is not symmetric")
    return np.asarray(m, dtype=float)


def eig_sym4(m):
    """All four eigenvalues of a 4x4 real symmetric matrix, descending.

    Validates the matrix (finite, real, symmetric within 1e-12) and takes
    its spectrum from LAPACK (np.linalg.eigvalsh). This is the single-matrix
    path for a matrix from outside; the sweep's stacks go through
    jacobi_eigvals, whose results feed byte-pinned surface files (see the
    module docstring).
    """
    m = _require_real_symmetric(m)
    return np.linalg.eigvalsh(m)[::-1]


def plogp(p):
    """Elementwise -p*log2(p) with the 0*log(0) = 0 convention.

    Entries <= 0 contribute exactly 0; no validation is performed.
    """
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = -p[mask] * np.log2(p[mask])
    return out


def vn_entropy(spectrum):
    """Von Neumann entropy in bits from an eigenvalue spectrum.

    Eigenvalues in [-1e-10, 0) are treated as exact zeros (roundoff from
    singular states); anything lower raises InvalidStateError, as does an empty
    spectrum or one that does not sum to 1 within 1e-10 or has a non-finite entry.
    A term -x log2 x below 0, from an eigenvalue that rounds above 1, adds 0.
    """
    lam = np.ravel(np.asarray(spectrum, dtype=float))
    if lam.size == 0:
        raise InvalidStateError("spectrum is empty")
    _require_finite(lam, "spectrum")
    if lam.min() < STATE_EIG_FLOOR:
        raise InvalidStateError(
            f"eigenvalue {lam.min():.6e} below {STATE_EIG_FLOOR}; not a state")
    if abs(lam.sum() - 1.0) > 1e-10:
        raise InvalidStateError(f"eigenvalues sum to {lam.sum()!r}, not 1")
    return _vn_sum(lam)


def _vn_sum(lam):
    """vn_entropy of a 1-D float spectrum that passes its checks, without them."""
    # summing in sorted order makes the value exactly permutation-invariant
    terms = plogp(np.sort(np.clip(lam, 0.0, None)))
    terms[terms < 0.0] = 0.0
    return float(terms.sum())


def partial_trace(m, keep):
    """Reduce two-qubit operators to one qubit; accepts batches (..., 4, 4).

    keep="a" sums over the b indices: out(m, n) = sum_mu in(m mu, n mu).
    keep="b" sums over the a indices: out(mu, nu) = sum_m in(m mu, m nu).
    Trace is preserved.
    """
    m = np.asarray(m)
    if m.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected (..., 4, 4), got shape {m.shape}")
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    if keep == "a":
        return np.einsum("...abcb->...ac", r)
    if keep == "b":
        return np.einsum("...abac->...bc", r)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


def partial_transpose_b(m):
    """Transpose the second-qubit indices: out(m mu, n nu) = in(m nu, n mu).

    A pure index shuffle; Hermiticity and trace are preserved, positivity
    is not. Accepts batches of shape (..., 4, 4).
    """
    m = np.asarray(m)
    if m.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected (..., 4, 4), got shape {m.shape}")
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    k = r.ndim - 4
    axes = tuple(range(k)) + (k, k + 3, k + 2, k + 1)
    return r.transpose(axes).reshape(m.shape)


# _det2, _det3 and _det4 read entries m[r][k] of a nested sequence: one
# matrix's .tolist() (Python floats) or a stack's entry-major view
# np.moveaxis(s, (-2, -1), (0, 1)) (arrays over the batch). Both take the same
# float operations in the same order, so a matrix's W3 and W4 equal its row of
# a stack's bit for bit; as floats they take about 12 us, against 28 us through
# the former fancy-indexed stack form (2-vCPU Xeon, numpy 2.4)
def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m, rows=(0, 1, 2), cols=(0, 1, 2)):
    (a, b, c), (d, e, f), (g, h, i) = ([m[r][k] for k in cols] for r in rows)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det4(m):
    # cofactor expansion along row 0, minor k without column k
    terms = [m[0][k] * _det3(m, (1, 2, 3), (*range(k), *range(k + 1, 4))) for k in range(4)]
    return (((0.0 + terms[0]) - terms[1]) + terms[2]) - terms[3]


def principal_minor(m, k):
    """Determinant of the top-left k x k block of a real symmetric 4x4 matrix.

    Direct cofactor expansion; k must be the integer 1, 2, 3 or 4.
    """
    if not (isinstance(k, numbers.Integral) and 1 <= k <= 4):
        raise ValueError(f"minor order must be an integer in 1..4, got {k!r}")
    m = _require_real_symmetric(m).tolist()
    return float(m[0][0] if k == 1 else (_det2, _det3, _det4)[k - 2](m))


def validate_state(m):
    """Check symmetry, unit trace and positivity of a real 4x4 state.

    Returns the (descending) spectrum so callers can reuse it. Raises
    InvalidStateError on any violation, a shape other than 4x4 included.
    """
    spectrum = eig_sym4(m)
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"state has trace {tr!r}, expected 1")
    if spectrum[-1] < STATE_EIG_FLOOR:
        raise InvalidStateError(
            f"state has eigenvalue {spectrum[-1]:.6e} below {STATE_EIG_FLOOR}")
    return spectrum
