"""Peres-Horodecki separability analysis of the copier output.

For two qubits, positivity of the partial transpose is necessary and
sufficient for separability, and its determinant W4 is negative exactly
when one of its eigenvalues is. On the copier W4 = (j/2) g(j) for a cubic
g, so the verdict is the exact sign of g at the float j and the rational
k of the float alpha (_model._separable), decided in integers: classify,
the point report, the surface's classification column (through the window
ends) and separable_intervals all read that one test. The closed-form
determinants W3 and W4 (w3_closed, w4_closed in _model), their cofactor
values and the minimum PPT eigenvalue are printed quantities, not tests.
ppt_data computes W3, W4 (as cofactor determinants) and the minimum PPT
eigenvalue for one state (LAPACK) or a whole stack of states (Jacobi)
through _ppt_triple, which cli.surface_records shares; classify takes the
same determinants of its one matrix as Python floats (hermat._det2), and
scan_grid goes through ppt_data.

separable_intervals needs no spectra: the separable window is the stretch
between g's two roots in (1/6, 1/3), whose ends _model finds as the
outermost floats where g >= 0.
"""

from dataclasses import dataclass

import numpy as np

from . import hermat
# w3_closed and w4_closed stay importable from separability
from ._model import _exact_k, _g_roots, _separable, w3_closed, w4_closed  # noqa: F401
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
    classification: str   # "Separable" | "Entangled", the exact sign of g


@dataclass(frozen=True)
class JInterval:
    """Closed interval of machine parameters.

    separable_intervals puts its endpoints at the outermost floats where g >= 0.
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
    entries = np.moveaxis(sigmas, (-2, -1), (0, 1))
    return hermat._det3(entries), hermat._det4(entries), spectra[..., -1]


def classify(alpha, j):
    """Separable/Entangled verdict for the output state at (alpha, j).

    Refuses a j outside FEASIBLE_J = [1/6, 1/2], where no copier exists,
    with a DomainError. The classification is the exact sign of g at the
    float j (see _model); W3, W4 and the minimum PPT eigenvalue are
    reported beside it.
    """
    return _ppt_verdict(alpha, j, _copier_state(alpha, j))


def _ppt_verdict(alpha, j, rho):
    """classify's verdict at (alpha, j) for its copier state rho, admitted by _copier_state.

    The library built rho, so its partial transpose's least eigenvalue is
    eig_sym4's without the checks. W3 and W4 take ppt_data's float operations
    on Python floats, with the same bits.
    """
    sigma = hermat.partial_transpose_b(rho)
    entries = sigma.tolist()
    separable = _separable(*_exact_k(float(alpha)), float(j))
    return SeparabilityVerdict(
        w3=hermat._det3(entries), w4=hermat._det4(entries),
        min_ppt_eigenvalue=float(np.linalg.eigvalsh(sigma)[0]),
        classification="Separable" if separable else "Entangled")


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
    [JInterval(r1, r2)] when g has two real roots in (1/6, 1/3), i.e.
    k >= 27/128, with r1 <= r2 the outermost floats where g >= 0 (clipped
    to the PSD window of one valid_j_range call, which contains them), and
    [] otherwise, alpha in {0, +-1} included.
    """
    lo, hi = valid_j_range(alpha)
    return [JInterval(lo=max(r1, lo), hi=min(r2, hi)) for r1, r2 in _g_roots(float(alpha))]
