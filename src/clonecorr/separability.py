"""Peres-Horodecki separability analysis of the copier output.

For two qubits, positivity of the partial transpose is necessary and
sufficient for separability, so the sign of the smallest eigenvalue of the
partially transposed state is the ground truth here. The closed-form
determinants of that matrix,

    W3 = (alpha^2 j (1-2j) / 2) * (2j - beta^2 (1-2j))          (leading 3x3)
    W4 = (1/2) * (alpha^2 beta^2 j (1-2j)^2 (6j-1) - 2 j^4)     (full det)

give an equivalent shortcut test (both nonnegative <=> separable). classify
evaluates its agreement with the spectral check on every call and surfaces
it in the verdict rather than assuming it. ppt_data computes W3, W4 (as
cofactor determinants) and the minimum PPT eigenvalue for one state (LAPACK)
or a whole stack of states (Jacobi); classify and scan_grid go through it.

separable_intervals uses the formulas themselves, w3_closed and w4_closed:
W3 changes sign only at j3 = beta^2 / (2 (1 + beta^2)), and W4 = (j/2) g(j)
with a cubic g, so the window endpoints are j3 and the roots of g, and each
piece between them is kept when w3_closed and w4_closed are nonnegative at
its midpoint; there is no grid and no bisection.
"""

from dataclasses import dataclass

import numpy as np

from . import hermat
from .cloner import _amplitudes, build_output_batch, build_output_state, valid_j_range
from .errors import DomainError
# unused; bench/test_bench.py::test_every_binding_is_traced_and_restored checks this binding
from .search import bisect_boundary  # noqa: F401


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Classification of one (alpha, j) point."""
    w3: float
    w4: float
    min_ppt_eigenvalue: float
    classification: str   # "Separable" | "Entangled"
    agreement: bool       # determinant test vs spectral PPT test


@dataclass(frozen=True)
class JInterval:
    """Closed interval of machine parameters with exact (closed-form) endpoints."""
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi <= 0.5:
            raise DomainError(f"need 0 <= lo <= hi <= 1/2, got [{self.lo}, {self.hi}]")


def w3_closed(alpha, j):
    """Order-3 leading principal minor of the partial transpose, closed form."""
    (alpha, beta), j = _amplitudes(alpha), float(j)
    n = 1.0 - 2.0 * j
    return (alpha ** 2 * j * n / 2.0) * (2.0 * j - beta ** 2 * n)


def w4_closed(alpha, j):
    """Determinant of the partial transpose, closed form."""
    (alpha, beta), j = _amplitudes(alpha), float(j)
    n = 1.0 - 2.0 * j
    a2 = alpha ** 2
    b2 = beta ** 2
    return 0.5 * (a2 * b2 * j * n * n * (6.0 * j - 1.0) - 2.0 * j ** 4)


def ppt_data(rhos):
    """(W3, W4, minimum PPT eigenvalue) for each state of a (..., 4, 4) stack.

    W3 and W4 are the leading 3x3 and full determinants of the partial
    transpose by cofactor expansion. The eigenvalue of a single 4x4 state
    comes from eig_sym4 (LAPACK), that of a stack from one batched Jacobi
    call (the sweep's pinned bytes; see hermat). Each result has the stack's
    batch shape (0-d for a single 4x4 state).
    """
    sigmas = hermat.partial_transpose_b(rhos)
    spectra = hermat.eig_sym4(sigmas) if sigmas.ndim == 2 else hermat.jacobi_eigvals(sigmas)
    return hermat._det3(sigmas[..., :3, :3]), hermat._det4(sigmas), spectra[..., -1]


def classify(alpha, j):
    """Separable/Entangled verdict for the output state at (alpha, j).

    Refuses unphysical points (minimum eigenvalue of the state below
    -1e-10) with a DomainError carrying the offending eigenvalue. The
    classification follows the PPT minimum eigenvalue; the determinant
    shortcut is evaluated alongside and any disagreement is reported in the
    verdict's agreement flag.
    """
    (alpha, _), j = _amplitudes(alpha), float(j)
    rho = build_output_state(alpha, j)
    min_eig = hermat.eig_sym4(rho)[-1]
    if min_eig < hermat.STATE_EIG_FLOOR:
        exc = DomainError(
            f"output state unphysical at alpha={alpha}, j={j}: "
            f"minimum eigenvalue {min_eig:.6e}")
        exc.min_eigenvalue = float(min_eig)
        raise exc
    return _ppt_verdict(rho)


def _ppt_verdict(rho):
    """classify's verdict for a 4x4 state whose physicality is already checked."""
    w3, w4, min_ppt = (float(x) for x in ppt_data(rho))
    separable = min_ppt >= hermat.STATE_EIG_FLOOR
    det_separable = w3 >= 0.0 and w4 >= 0.0
    return SeparabilityVerdict(
        w3=w3, w4=w4, min_ppt_eigenvalue=min_ppt,
        classification="Separable" if separable else "Entangled",
        agreement=(separable == det_separable),
    )


def scan_grid(alpha, scan_step=1e-4):
    """Dense-grid scan over the physical j domain intersected with (0, 1/2].

    Returns (js, w3s, w4s, min_ppt) arrays. The dense determinant-versus-PPT
    cross-check used by selftest and the tests; separable_intervals does not
    scan. scan_step must be finite and positive.
    """
    if not 0.0 < scan_step < np.inf:
        raise DomainError(f"scan_step must be finite and positive, got {scan_step}")
    lo, hi = valid_j_range(alpha)
    js = np.round(np.arange(scan_step, 0.5 + scan_step / 2, scan_step), 12)
    js[js > 0.5] = 0.5
    js = js[(js >= lo) & (js <= hi)]
    if js.size == 0:
        return js, js, js, js
    return (js, *ppt_data(build_output_batch(alpha, js)))


def separable_intervals(alpha):
    """Maximal intervals of j on which the output state is separable.

    alpha is a number in [-1, 1] and beta = +sqrt(1 - alpha^2). Exact, from
    the determinants: with k = alpha^2 beta^2, W4 = (j/2) g(j) for the cubic
    g(j) = k (1-2j)^2 (6j-1) - 2j^3, and for alpha != 0 and j in (0, 1/2),
    W3 >= 0 exactly when j >= j3 = beta^2 / (2 (1 + beta^2)).
    The physical window (one valid_j_range call) is cut at j3 and at the
    real parts of the roots of g; each piece at whose midpoint w3_closed
    and w4_closed are nonnegative is kept, and touching pieces are merged.
    A complex root only adds a cut inside a piece of constant sign. For
    alpha in {0, +-1}, g = -2j^3 < 0 and the list is empty.
    """
    alpha, beta = _amplitudes(alpha)
    lo, hi = valid_j_range(alpha)
    k = (alpha * beta) ** 2
    j3 = beta ** 2 / (2.0 * (1.0 + beta ** 2))
    roots = np.roots([24.0 * k - 2.0, -28.0 * k, 10.0 * k, -k]).real
    cuts = np.unique(np.clip(np.r_[lo, hi, j3, roots], lo, hi)).tolist()
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        j = 0.5 * (a + b)
        if w3_closed(alpha, j) >= 0.0 and w4_closed(alpha, j) >= 0.0:
            if pieces and pieces[-1][1] == a:
                pieces[-1][1] = b
            else:
                pieces.append([a, b])
    return [JInterval(lo=a, hi=b) for a, b in pieces]
