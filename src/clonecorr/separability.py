"""Peres-Horodecki separability analysis of the copier output.

For two qubits, positivity of the partial transpose is necessary and
sufficient for separability, so the sign of the smallest eigenvalue of the
partially transposed state is the ground truth here. The closed-form
determinants of that matrix,

    W3 = (alpha^2 j (1-2j) / 2) * (2j - beta^2 (1-2j))          (leading 3x3)
    W4 = (1/2) * (alpha^2 beta^2 j (1-2j)^2 (6j-1) - 2 j^4)     (full det)

give an equivalent shortcut test (both nonnegative <=> separable) whose
agreement with the spectral check is evaluated on every call and surfaced
in the verdict rather than assumed. ppt_data computes W3, W4 (as cofactor
determinants) and the minimum PPT eigenvalue for a whole stack of states;
every caller here goes through it, and w3_closed/w4_closed keep the
formulas above as cross-checks.
"""

from dataclasses import dataclass

import numpy as np

from . import hermat
from .cloner import _as_input, _as_machine, build_output_batch, build_output_state, valid_j_range
from .errors import DomainError
from .search import bisect_boundary


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
    """Closed interval of machine parameters with bisection-refined endpoints."""
    lo: float
    hi: float
    boundary_tol: float

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi <= 0.5:
            raise DomainError(f"need 0 <= lo <= hi <= 1/2, got [{self.lo}, {self.hi}]")

    def contains(self, j, slack=0.0):
        return self.lo - slack <= j <= self.hi + slack


def w3_closed(state, machine):
    """Order-3 leading principal minor of the partial transpose, closed form."""
    st, mp = _as_input(state), _as_machine(machine)
    j, n = mp.j, mp.n
    return (st.alpha ** 2 * j * n / 2.0) * (2.0 * j - st.beta ** 2 * n)


def w4_closed(state, machine):
    """Determinant of the partial transpose, closed form."""
    st, mp = _as_input(state), _as_machine(machine)
    j, n = mp.j, mp.n
    a2 = st.alpha ** 2
    b2 = st.beta ** 2
    return 0.5 * (a2 * b2 * j * n * n * (6.0 * j - 1.0) - 2.0 * j ** 4)


def ppt_data(rhos):
    """(W3, W4, minimum PPT eigenvalue) for each state of a (..., 4, 4) stack.

    W3 and W4 are the leading 3x3 and full determinants of the partial
    transpose by cofactor expansion; the eigenvalue comes from one batched
    Jacobi call. Each result has the stack's batch shape (0-d for a single
    4x4 state).
    """
    sigmas = hermat.partial_transpose_b(rhos)
    return (hermat._det3(sigmas[..., :3, :3]), hermat._det4(sigmas),
            hermat.jacobi_eigvals(sigmas)[..., -1])


def w_direct(rho):
    """(W3, W4) computed directly as minors of the partially transposed matrix."""
    w3, w4, _ = ppt_data(hermat._require_real_symmetric(rho))
    return float(w3), float(w4)


def classify(state, machine):
    """Separable/Entangled verdict for the output state at (alpha, j).

    Refuses unphysical points (minimum eigenvalue of the state below
    -1e-10) with a DomainError carrying the offending eigenvalue. The
    classification follows the PPT minimum eigenvalue; the determinant
    shortcut is evaluated alongside and any disagreement is reported in the
    verdict's agreement flag.
    """
    st, mp = _as_input(state), _as_machine(machine)
    rho = build_output_state(st, mp)
    min_eig = hermat.eig_sym4(rho)[-1]
    if min_eig < hermat.STATE_EIG_FLOOR:
        exc = DomainError(
            f"output state unphysical at alpha={st.alpha}, j={mp.j}: "
            f"minimum eigenvalue {min_eig:.6e}")
        exc.min_eigenvalue = float(min_eig)
        raise exc
    w3, w4, min_ppt = (float(x) for x in ppt_data(rho))
    separable = min_ppt >= hermat.STATE_EIG_FLOOR
    det_separable = w3 >= 0.0 and w4 >= 0.0
    return SeparabilityVerdict(
        w3=w3, w4=w4, min_ppt_eigenvalue=min_ppt,
        classification="Separable" if separable else "Entangled",
        agreement=(separable == det_separable),
    )


def scan_grid(state, scan_step=1e-4):
    """Dense-grid scan over the physical j domain intersected with (0, 1/2].

    Returns (js, w3s, w4s, min_ppt) arrays; empty js when no physical point
    exists. Shared by separable_intervals and the consistency checks.
    """
    st = _as_input(state)
    window = valid_j_range(st)
    if window is None:
        return np.array([]), np.array([]), np.array([]), np.array([])
    lo, hi = window
    js = np.round(np.arange(scan_step, 0.5 + scan_step / 2, scan_step), 12)
    js[js > 0.5] = 0.5
    js = js[(js >= lo) & (js <= hi)]
    if js.size == 0:
        return js, js, js, js
    return (js, *ppt_data(build_output_batch(st, js)))


def separable_intervals(state, scan_step=1e-4, tol=1e-6):
    """Maximal intervals of j on which the output state is separable.

    The scan domain is the physical j window intersected with (0, 1/2];
    separability on the grid requires W3 >= 0, W4 >= 0 and PPT minimum
    eigenvalue >= -1e-10 (the three agree except within roundoff of a
    boundary). Each interval endpoint is refined by bisection on the sign
    of min(W3, W4, min PPT eigenvalue) to tol.
    """
    if scan_step <= 0 or tol <= 0:
        raise DomainError("scan_step and tol must be positive")
    st = _as_input(state)
    js, w3s, w4s, min_ppt = scan_grid(st, scan_step)
    if js.size == 0:
        return []
    sep = (w3s >= 0.0) & (w4s >= 0.0) & (min_ppt >= hermat.STATE_EIG_FLOOR)

    def is_separable(j):
        w3, w4, min_ppt = ppt_data(build_output_state(st, j))
        return min(w3, w4, min_ppt - hermat.STATE_EIG_FLOOR) >= 0.0

    intervals = []
    i = 0
    while i < len(js):
        if not sep[i]:
            i += 1
            continue
        k = i
        while k + 1 < len(js) and sep[k + 1]:
            k += 1
        lo = js[i] if i == 0 else bisect_boundary(is_separable, js[i - 1], js[i], tol)
        hi = js[k] if k == len(js) - 1 else bisect_boundary(is_separable, js[k + 1], js[k], tol)
        intervals.append(JInterval(lo=float(lo), hi=float(hi), boundary_tol=tol))
        i = k + 1
    return intervals
