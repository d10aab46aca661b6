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

separable_intervals needs neither spectra nor W3: with k = alpha^2 beta^2
and n = 1 - 2j, W4 = (j/2) g(j) for the cubic g(j) = k n^2 (6j-1) - 2j^3,
and the separable window is the stretch between g's two roots in
(1/6, 1/3), found in scalar floating point from their trigonometric
(Viete) form and one Newton step; the derivation is in its docstring.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hermat
from .cloner import _amplitudes, _physical_state, build_output_batch, valid_j_range
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
    rho, _ = _physical_state(alpha, j)
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


# g's roots in (1/6, 1/3) lie either side of 3/14, where y = (1 - 2j)/j = 8/3
_ROOT_BRACKETS = ((1.0 / 6.0, 3.0 / 14.0), (3.0 / 14.0, 1.0 / 3.0))


def separable_intervals(alpha):
    """Maximal intervals of j on which the output state is separable.

    alpha is a number in [-1, 1] and beta = +sqrt(1 - alpha^2). The result
    is [JInterval(r1, r2)] when g has two real roots r1 <= r2 in (1/6, 1/3)
    (clipped to the physical window, one valid_j_range call),
    [JInterval(0, 0)] for alpha in {0, +-1} (see below), and [] otherwise.
    With k = alpha^2 beta^2 <= 1/4 and n = 1 - 2j, W4 = (j/2) g(j) for

        g(j) = k n^2 (6j-1) - 2j^3 = (24k-2) j^3 - 28k j^2 + 10k j - k,

    and the state is separable exactly where g >= 0:
    - On (0, 1/6), 6j - 1 < 0, so g < 0.
    - On [1/3, 1/2], g < 0 because k <= 1/4: there n^2 (6j-1) <= 2/9, so
      k n^2 (6j-1) <= 1/18 < 2/27 <= 2j^3.
    - g(1/6) = -1/108 and g(1/3) = k/9 - 2/27 are both negative, so g has
      0 or 2 roots (with multiplicity) in between.
    - For j >= 1/6, g >= 0 implies W3 >= 0, so neither the cut of W3 at
      j3 = beta^2 / (2 (1 + beta^2)) nor a W3 test adds anything. W3 has the
      sign of 2j - beta^2 n, i.e. W3 >= 0 for j >= j3. If beta^2 < 1/2,
      then j3 < 1/6. If beta^2 >= 1/2 and j < j3, then beta^2 > 2j/n >= 1/2.
      So k < 2j (1-4j) / n^2, and therefore g < -2j (5j-1)^2 <= 0.
    The roots: with y = n/j, which maps (1/6, 1/3) onto (1, 4),
    g(j) = -k j^3 (y^3 - 4y^2 + 2/k). With y = 4/3 + z that cubic is
    z^3 - (16/3) z + 2/k - 128/27, whose roots are
    z = (8/3) cos(theta - 2 pi m / 3) with cos(3 theta) = 1 - 27/(64k).
    They are all real exactly when k >= 27/128 (|alpha| from about 0.5499
    to 0.8352). For 27/128 <= k <= 1/4, m = 0 and m = 1 give y in
    [8/3, 1 + sqrt 5] and [2, 8/3], i.e. r1 = 1/(2 + y) in
    [(3 - sqrt 5)/4, 3/14] and r2 in [3/14, 1/4]; m = 2 gives y < 0.
    Whether k >= 27/128 is decided exactly, on the rational k of the float
    alpha. Each root then takes one Newton step on g from its Viete value,
    with g's value at that float j computed exactly in integer arithmetic
    and rounded once, so the step corrects the Viete value's rounding. The
    step is kept only when it stays in the root's bracket, [1/6, 3/14] or
    [3/14, 1/3], so it never reorders the roots and never raises. For
    alpha in {0, +-1}, k = 0 and g(j) = -2j^3 vanishes only at j = 0, where
    rho is the product |11><11| or |00><00|: the result is [JInterval(0, 0)].
    """
    alpha, _ = _amplitudes(alpha)
    lo, hi = valid_j_range(alpha)
    p, d = alpha.as_integer_ratio()
    p2, d2 = p * p, d * d
    kn, kd = p2 * (d2 - p2), d2 * d2   # k = alpha^2 (1 - alpha^2) = kn / kd exactly
    if kn == 0:
        return [JInterval(0.0, 0.0)]
    if 128 * kn < 27 * kd:
        return []
    k = kn / kd
    theta = math.acos(max(1.0 - 27.0 / (64.0 * k), -1.0)) / 3.0
    r1, r2 = (_newton_step(kn, kd, k, 1.0 / (10.0 / 3.0 + 8.0 / 3.0 * math.cos(t)), a, b)
              for t, (a, b) in zip((theta, theta - 2.0 * math.pi / 3.0), _ROOT_BRACKETS))
    return [JInterval(lo=max(r1, lo), hi=min(r2, hi))]


def _newton_step(kn, kd, k, j, a, b):
    """One Newton step on g from j clamped into [a, b]; k = kn / kd.

    g(j) is exact for the float j, rounded once; g' is in floats. Returns
    the clamped j when g' vanishes or the step leaves [a, b].
    """
    j = min(max(j, a), b)
    q, dj = j.as_integer_ratio()
    g = (kn * (dj - 2 * q) ** 2 * (6 * q - dj) - 2 * kd * q ** 3) / (kd * dj ** 3)
    n = 1.0 - 2.0 * j
    slope = k * n * (10.0 - 36.0 * j) - 6.0 * j * j
    if slope == 0.0:
        return j
    step = j - g / slope
    return step if a <= step <= b else j
