"""Peres-Horodecki separability analysis of the copier output.

For two qubits, positivity of the partial transpose is necessary and
sufficient for separability, so the sign of the smallest eigenvalue of the
partially transposed state is the ground truth here. The closed-form
determinants of that matrix, W3 and W4 (w3_closed, w4_closed in _model),
give an equivalent shortcut test (both nonnegative <=> separable). classify
evaluates its agreement with the spectral check on every call and surfaces
it in the verdict rather than assuming it. ppt_data computes W3, W4 (as
cofactor determinants) and the minimum PPT eigenvalue for one state (LAPACK)
or a whole stack of states (Jacobi) through _ppt_triple, which
cli.surface_records and classify share; scan_grid goes through ppt_data.

separable_intervals needs neither spectra nor W3: W4 = (j/2) g(j) for a
cubic g, and the separable window is the stretch between g's two roots in
(1/6, 1/3), which _model derives and computes in scalar floating point.
"""

from dataclasses import dataclass

import numpy as np

from . import hermat
# w3_closed and w4_closed stay importable from separability
from ._model import _g_roots, w3_closed, w4_closed  # noqa: F401
from .cloner import _copier_state, build_output_batch, valid_j_range
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
    """Closed interval of machine parameters.

    separable_intervals puts its endpoints within a few ulp of g's roots.
    """
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi <= 0.5:
            raise DomainError(f"need 0 <= lo <= hi <= 1/2, got [{self.lo}, {self.hi}]")


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
    return _ppt_triple(sigmas, spectra)


def _ppt_triple(sigmas, spectra):
    """ppt_data's (W3, W4, minimum eigenvalue) from partial transposes and their spectra."""
    return hermat._det3(sigmas[..., :3, :3]), hermat._det4(sigmas), spectra[..., -1]


def classify(alpha, j):
    """Separable/Entangled verdict for the output state at (alpha, j).

    Refuses a j outside FEASIBLE_J = [1/6, 1/2], where no copier exists,
    with a DomainError. The classification follows the PPT minimum
    eigenvalue; the determinant shortcut is evaluated alongside and any
    disagreement is reported in the verdict's agreement flag.
    """
    return _ppt_verdict(_copier_state(alpha, j))


def _ppt_verdict(rho):
    """classify's verdict for a copier state already admitted by _copier_state.

    The library built rho, so its partial transpose's spectrum is eig_sym4's
    without the checks.
    """
    sigma = hermat.partial_transpose_b(rho)
    w3, w4, min_ppt = (float(x) for x in _ppt_triple(sigma, np.linalg.eigvalsh(sigma)[::-1]))
    separable = min_ppt >= hermat.STATE_EIG_FLOOR
    det_separable = w3 >= 0.0 and w4 >= 0.0
    return SeparabilityVerdict(
        w3=w3, w4=w4, min_ppt_eigenvalue=min_ppt,
        classification="Separable" if separable else "Entangled",
        agreement=(separable == det_separable),
    )


def scan_grid(alpha, scan_step=1e-4):
    """Dense-grid scan over the PSD window (valid_j_range) intersected with (0, 1/2].

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

    alpha is a number in [-1, 1]. With k = alpha^2 beta^2, a copier output
    is separable exactly where the cubic g of _model is >= 0. The result is
    [JInterval(r1, r2)] when g has two real roots r1 <= r2 in (1/6, 1/3),
    i.e. k >= 27/128 (clipped to the PSD window of one valid_j_range call,
    which contains them), and [] otherwise, alpha in {0, +-1} included.
    """
    lo, hi = valid_j_range(alpha)
    return [JInterval(lo=max(r1, lo), hi=min(r2, hi)) for r1, r2 in _g_roots(float(alpha))]
