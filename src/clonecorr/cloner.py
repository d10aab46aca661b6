"""Buzek-Hillery copier model: two-clone output state and its diagnostics.

The machine is characterized by a single parameter j (the squared norm of
the failure vectors). The input is alpha|0> + beta|1>, given by alpha alone
(a number in [-1, 1]), with beta = +sqrt(1 - alpha^2). The two-clone output
in basis |00>, |01>, |10>, |11> is

    [[ a^2 n,  c,  c,  0     ],
     [ c,      j,  j,  c     ],      n = 1 - 2j,  c = alpha*beta*n/2.
     [ c,      j,  j,  c     ],
     [ 0,      c,  c,  b^2 n ]]

The |01>/|10> rows are identical, so the singlet (|01> - |10>)/sqrt(2) is
annihilated exactly for every (alpha, j). The state is physical on the j
window (lo, 1/2), where lo is the one root in [0, 1/6] of F(j), the triplet
cubic at the eigenvalue floor, to 1e-15, or 0 when F(0) <= 0, i.e.
k = alpha^2 beta^2 <= 2 (1 + eps) eps^2 (see valid_j_range).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hermat
from .errors import DomainError
from .search import bisect_boundary

# machine-vector norms and overlaps admit a solution only on this j interval
FEASIBLE_J = (1.0 / 6.0, 0.5)
# bracket width at which valid_j_range's bisection on [0, 1/6] stops
WINDOW_TOL = 1e-15


@dataclass(frozen=True)
class MachineConstraintReport:
    """Existence check for machine vectors with the required inner products."""
    j: float
    n: float
    norms_ok: bool        # <Y|Y> = j >= 0 and <Q|Q> = 1 - 2j >= 0
    overlap: float        # required cross overlap n/2
    overlap_bound: float  # Cauchy-Schwarz bound sqrt(j(1-2j)); nan if norms fail
    overlap_ok: bool
    satisfied: bool
    feasible_j: tuple     # j interval on which all constraints hold


def _amplitudes(alpha):
    """(alpha, beta) as floats, beta = +sqrt(1 - alpha^2); DomainError outside [-1, 1]."""
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [-1, 1], got {alpha}")
    return alpha, math.sqrt(1.0 - alpha * alpha)


def build_output_state(alpha, j):
    """Two-clone 4x4 output density matrix for the given input and machine.

    alpha and j are numbers. alpha outside [-1, 1] or j outside [0, 1/2]
    raises DomainError; positivity of the result is alpha-dependent and
    deliberately not enforced here -- scans cover non-positive parameter
    regions too. Use valid_j_range for the physical window. The
    one-element case of build_output_batch.
    """
    return build_output_batch(alpha, float(j))


def build_output_batch(alpha, js):
    """Stack of output states, shape np.shape(js) + (4, 4), for an array of j values."""
    a, b = _amplitudes(alpha)
    js = np.asarray(js, dtype=float)
    bad = js[~((js >= 0.0) & (js <= 0.5))]
    if bad.size:
        raise DomainError(f"machine parameter j={bad.flat[0]} outside [0, 1/2]")
    n = 1.0 - 2.0 * js
    c = a * b * n / 2.0
    z = np.zeros_like(js)
    rows = [
        [a * a * n, c, c, z],
        [c, js, js, c],
        [c, js, js, c],
        [z, c, c, b * b * n],
    ]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def reduced_clone(rho, which="b"):
    """Reduced 2x2 state of one clone; for copier output both are equal."""
    if which not in ("a", "b"):
        raise ValueError(f"which must be 'a' or 'b', got {which!r}")
    return hermat.partial_trace(rho, keep=which)


def clone_fidelity(alpha, j):
    """Overlap of one clone with the source state, <chi| rho_a |chi>.

    Analytically equal to 1 - j for every normalized real input.
    """
    chi = np.array(_amplitudes(alpha))
    rho_a = reduced_clone(build_output_state(alpha, j), "a")
    return float(chi @ rho_a @ chi)


def _triplet_cubic_at_floor(k, j):
    """f(-eps) for the triplet cubic f, eps = -STATE_EIG_FLOOR; k = alpha^2 beta^2."""
    eps = -hermat.STATE_EIG_FLOOR
    n = 1.0 - 2.0 * j
    return ((-eps - 1.0) * eps - 2.0 * j * n) * eps - k * n * n * (2.0 * j - 0.5 * n)


def valid_j_range(alpha):
    """Interval (lo, 1/2) of j in [0, 1/2] on which the output state is physical.

    Physical means minimum eigenvalue >= -eps, eps = 1e-10. With
    k = alpha^2 beta^2 and n = 1 - 2j, rho's spectrum is 0 and the roots of
    the triplet cubic f(lambda) = lambda^3 - lambda^2 + 2jn lambda
    - k n^2 (2j - n/2), all real since rho is symmetric. The shifted cubic
    f(x - eps) has coefficients 1, -(1 + 3 eps), 3 eps^2 + 2 eps + 2jn and
    F(j) = f(-eps), so by Descartes' rule its roots are all >= 0, i.e. rho
    is physical, exactly when F(j) <= 0. F is negative on [1/6, 1/2], where
    both of its j-dependent terms are <= 0, and strictly decreasing on
    [0, 1/6], where its derivative -2 eps (1 - 4j) - k n (5 - 18j) is
    negative. So lo is 0 when F(0) <= 0, i.e. k <= 2 (1 + eps) eps^2, and
    otherwise the one root of F in [0, 1/6], bisected to WINDOW_TOL. No
    state is built and no spectrum is taken.
    """
    a, b = _amplitudes(alpha)
    k = (a * b) ** 2
    if _triplet_cubic_at_floor(k, 0.0) <= 0.0:
        return (0.0, 0.5)

    def is_physical(j):
        return _triplet_cubic_at_floor(k, j) <= 0.0

    return (bisect_boundary(is_physical, 0.0, 1.0 / 6.0, WINDOW_TOL), 0.5)


def check_machine_constraints(j):
    """Report whether machine vectors with the required overlaps can exist.

    Needs <Q|Q> = 1 - 2j >= 0, <Y|Y> = j >= 0, and the cross overlap n/2 to
    respect Cauchy-Schwarz, |n/2| <= sqrt(j(1-2j)); the last holds exactly
    for j in [1/6, 1/2], with equality at j = 1/6. Any number j is accepted,
    so out-of-range values get a report too.
    """
    j = float(j)
    n = 1.0 - 2.0 * j
    norms_ok = j >= 0.0 and n >= 0.0
    bound = math.sqrt(j * n) if norms_ok else math.nan
    overlap = n / 2.0
    overlap_ok = bool(norms_ok and abs(overlap) <= bound + 1e-12)
    return MachineConstraintReport(
        j=j, n=n, norms_ok=norms_ok,
        overlap=overlap, overlap_bound=bound, overlap_ok=overlap_ok,
        satisfied=bool(norms_ok and overlap_ok),
        feasible_j=FEASIBLE_J,
    )
