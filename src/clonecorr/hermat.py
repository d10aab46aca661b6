"""Dense numerics for the small Hermitian matrices used throughout the package.

Everything is fixed-size: 2x2 Hermitian (complex allowed) and 4x4 real
symmetric. Eigenvalues come from the 2x2 closed form and, for 4x4, from
LAPACK (np.linalg.eigvalsh), or from cyclic Jacobi sweeps for the pinned
sweep stacks; determinants are direct cofactor expansions. The Jacobi
routine, the 2x2 closed form, the partial trace and transpose and the
cofactor determinants operate on (..., n, n) batches so parameter scans
stay cheap.

Jacobi serves only the two stacks behind the sha256-pinned surface files
(in the tests and in bench/pinned.json): the states of
discord.discord_surface and their partial transposes in a stack call of
separability.ppt_data. There eigvalsh changes the last printed digit of
some rows, and the benchmark pins Jacobi's per-op stack count. Every other
spectrum is LAPACK, one matrix through eig_sym4. cloner.valid_j_range takes
no spectrum: it tests the sign of the triplet cubic at the eigenvalue floor.
A single eigvalsh call is about 80x faster than a one-matrix Jacobi batch, and
on copier states and their partial transposes the two agree to about 2e-15.
The exact spectra planned in ROADMAP.md revise those pins and then delete
Jacobi outright.

Every validating entry point rejects NaN and infinite entries: NaN compares
False against every tolerance, so it would otherwise pass as a state.

Basis convention for two-qubit operators: |00>, |01>, |10>, |11>, first
index = clone a, second = clone b.
"""

import numpy as np

from .errors import ConvergenceError, InvalidStateError

# eigenvalues of a state may dip this far below zero from roundoff
STATE_EIG_FLOOR = -1e-10
TRACE_TOL = 1e-12
HERM_ATOL = 1e-12

JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 50

_JACOBI_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# columns of the minors of row 0 in _det4, minor k without column k
_MINOR_COLS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


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
    """Eigenvalues of a batch of real symmetric 4x4 matrices, descending.

    Cyclic Jacobi rotations over the six upper-triangle positions until the
    off-diagonal Frobenius norm of every matrix in the batch drops below
    JACOBI_OFF_TOL. Raises ConvergenceError after JACOBI_MAX_SWEEPS sweeps.

    Parameters
    ----------
    mats : array_like, shape (..., 4, 4)
        Real symmetric matrices. Symmetry is the caller's responsibility
        here; use eig_sym4 for the validating single-matrix entry point.

    Returns
    -------
    ndarray, shape (..., 4)
    """
    a = np.array(mats, dtype=float)
    batch_shape = a.shape[:-2]
    a = a.reshape(-1, 4, 4)

    def max_off2(x):
        off = x.copy()
        off[:, range(4), range(4)] = 0.0
        return (off ** 2).sum(axis=(1, 2)).max()

    for _ in range(JACOBI_MAX_SWEEPS):
        if max_off2(a) <= JACOBI_OFF_TOL ** 2:
            break
        for p, q in _JACOBI_PAIRS:
            apq = a[:, p, q]
            with np.errstate(divide="ignore", invalid="ignore"):
                theta = (a[:, q, q] - a[:, p, p]) / (2.0 * apq)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = np.where(apq == 0.0, 0.0,
                             sgn / (np.abs(theta) + np.hypot(theta, 1.0)))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            cp, cq = a[:, :, p].copy(), a[:, :, q].copy()
            a[:, :, p] = c[:, None] * cp - s[:, None] * cq
            a[:, :, q] = s[:, None] * cp + c[:, None] * cq
            rp, rq = a[:, p, :].copy(), a[:, q, :].copy()
            a[:, p, :] = c[:, None] * rp - s[:, None] * rq
            a[:, q, :] = s[:, None] * rp + c[:, None] * rq
    if max_off2(a) > JACOBI_OFF_TOL ** 2:
        raise ConvergenceError(
            f"Jacobi sweep budget of {JACOBI_MAX_SWEEPS} exhausted "
            f"(max off-diagonal norm {np.sqrt(max_off2(a)):.3e})")

    eigs = a[:, range(4), range(4)]
    eigs = -np.sort(-eigs, axis=1)
    return eigs.reshape(batch_shape + (4,))


def _require_real_symmetric(m, what="matrix"):
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 {what}, got shape {m.shape}")
    _require_finite(m, what)
    if np.iscomplexobj(m):
        if np.abs(m.imag).max() > HERM_ATOL:
            raise InvalidStateError(f"{what} has complex entries")
        m = m.real
    if np.abs(m - m.T).max() > HERM_ATOL:
        raise InvalidStateError(f"{what} is not symmetric")
    return np.asarray(m, dtype=float)


def eig_sym4(m):
    """All four eigenvalues of a 4x4 real symmetric matrix, descending.

    Validates the matrix (finite, real, symmetric within 1e-12) and takes
    its spectrum from LAPACK (np.linalg.eigvalsh). This is the single-matrix
    path; the sweep's stacks go through jacobi_eigvals, whose results feed
    byte-pinned surface files (see the module docstring).
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
    singular states); anything lower raises InvalidStateError, as does a
    spectrum that does not sum to 1 within 1e-10 or has a non-finite entry.
    """
    return float(_entropies(np.ravel(spectrum)))


def _entropies(spectra):
    """vn_entropy of each spectrum on the last axis of spectra, one check for them all."""
    lam = np.asarray(spectra, dtype=float)
    _require_finite(lam, "spectrum")
    if lam.min() < STATE_EIG_FLOOR:
        raise InvalidStateError(
            f"eigenvalue {lam.min():.6e} below {STATE_EIG_FLOOR}; not a state")
    if (np.abs(lam.sum(axis=-1) - 1.0) > 1e-10).any():
        raise InvalidStateError(f"eigenvalues sum to {lam.sum(axis=-1)!r}, not 1")
    # summing in sorted order makes the value exactly permutation-invariant
    return plogp(np.sort(np.clip(lam, 0.0, None), axis=-1)).sum(axis=-1)


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


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _det3(m):
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def _det4(m):
    # cofactor expansion along row 0: one _det3 call on the four minors,
    # stacked on axis -3
    terms = m[..., 0, :] * _det3(np.moveaxis(m[..., 1:, _MINOR_COLS], -2, -3))
    return (((0.0 + terms[..., 0]) - terms[..., 1]) + terms[..., 2]) - terms[..., 3]


def principal_minor(m, k):
    """Determinant of the top-left k x k block of a real symmetric 4x4 matrix.

    Direct cofactor expansion; k must be 1, 2, 3 or 4.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError(f"minor order must be 1..4, got {k}")
    m = _require_real_symmetric(m)
    block = m[:k, :k]
    if k == 1:
        return float(block[0, 0])
    if k == 2:
        return float(_det2(block))
    if k == 3:
        return float(_det3(block))
    return float(_det4(block))


def swap_qubits(m):
    """Relabel the two qubits: SWAP . m . SWAP."""
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {m.shape}")
    perm = [0, 2, 1, 3]
    return m[np.ix_(perm, perm)]


def validate_state(m, what="state"):
    """Check Hermiticity, unit trace and positivity of a 2x2 or 4x4 state.

    Returns the (descending) spectrum so callers can reuse it. Raises
    InvalidStateError on any violation.
    """
    m = np.asarray(m)
    if m.shape == (2, 2):
        spectrum = eig_herm2(m)
    elif m.shape == (4, 4):
        spectrum = eig_sym4(m)
    else:
        raise InvalidStateError(f"expected 2x2 or 4x4, got shape {m.shape}")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"{what} has trace {tr!r}, expected 1")
    if spectrum[-1] < STATE_EIG_FLOOR:
        raise InvalidStateError(
            f"{what} has eigenvalue {spectrum[-1]:.6e} below {STATE_EIG_FLOOR}")
    return spectrum
