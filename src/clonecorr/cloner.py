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
annihilated exactly for every (alpha, j). A copier exists only for j in
FEASIBLE_J = [1/6, 1/2], and there the state is positive semidefinite for
every alpha. The wider PSD window (lo, 1/2), lo <= 1/6, comes from the
triplet cubic F(j) of _model; below 1/6 it holds matrices no copier makes.
"""

import numpy as np

from . import hermat
from ._model import _amplitudes, _physical_at_floor
from .errors import DomainError
from .search import bisect_boundary

# machine-vector norms and overlaps admit a solution only on this j interval
FEASIBLE_J = (1.0 / 6.0, 0.5)
# bracket width at which valid_j_range's bisection on [0, 1/6] stops
WINDOW_TOL = 1e-15


def build_output_state(alpha, j):
    """Two-clone 4x4 output density matrix for the given input and machine.

    alpha and j are numbers. alpha outside [-1, 1] or j outside [0, 1/2]
    raises DomainError; positivity of the result is alpha-dependent and
    deliberately not enforced here -- scans cover non-positive parameter
    regions too. Use valid_j_range for the PSD window, and
    check_machine_constraints for the copier domain FEASIBLE_J. The
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
    c = (a * b * n / 2.0)[..., None]
    rho = np.zeros(js.shape + (4, 4))
    rho[..., 0, 0], rho[..., 3, 3] = a * a * n, b * b * n
    rho[..., 1:3, 1:3] = js[..., None, None]
    rho[..., 0, 1:3] = rho[..., 1:3, 0] = rho[..., 3, 1:3] = rho[..., 1:3, 3] = c
    return rho


def reduced_clone(rho, which="b"):
    """Reduced 2x2 state of one clone; for copier output both are equal."""
    return hermat.partial_trace(rho, keep=which)


def clone_fidelity(alpha, j):
    """Overlap of one clone with the source state, <chi| rho_a |chi>.

    Analytically equal to 1 - j for every normalized real input.
    """
    return _fidelity(alpha, reduced_clone(build_output_state(alpha, j), "a"))


def _fidelity(alpha, rho_a):
    """clone_fidelity from clone a's reduced state rho_a."""
    chi = np.array(_amplitudes(alpha))
    return float(chi @ rho_a @ chi)


def valid_j_range(alpha):
    """The PSD window: the interval (lo, 1/2) of j in [0, 1/2] where the output is PSD.

    PSD here means minimum eigenvalue >= -eps, eps = -STATE_EIG_FLOOR =
    1e-10; _model derives the window from the triplet cubic F(j). The
    window contains FEASIBLE_J, the copier domain, and below 1/6 it holds
    matrices no copier makes. lo is 0 when F(0) <= 0, and otherwise the
    one root of F in [0, 1/6], bisected to WINDOW_TOL by the test
    F(j) <= 0, built once per alpha with F's j-free part precomputed.
    """
    a, b = _amplitudes(alpha)
    is_physical = _physical_at_floor((a * b) ** 2, -hermat.STATE_EIG_FLOOR)
    lo = 0.0 if is_physical(0.0) else bisect_boundary(is_physical, 0.0, 1.0 / 6.0, WINDOW_TOL)
    return (lo, 0.5)


def _copier_state(alpha, j):
    """The copier's output state rho at (alpha, j), a PSD unit-trace state.

    The one refusal of a j no copier has: j outside FEASIBLE_J, for every alpha.
    """
    rho = build_output_state(alpha, j)
    if not check_machine_constraints(j):
        raise DomainError(f"no copier has j={j}: machine vectors exist only for j in [1/6, 1/2]")
    return rho


def check_machine_constraints(j):
    """Whether machine vectors with the required overlaps can exist at j, as a bool.

    Needs <Q|Q> = n = 1 - 2j >= 0, <Y|Y> = j >= 0, and the cross overlap n/2
    to respect Cauchy-Schwarz, |n/2| <= sqrt(j n); the last holds exactly
    for j in [1/6, 1/2], so all three are decided on j against FEASIBLE_J,
    with no float slack. Any number j is accepted; NaN gives False.
    """
    return FEASIBLE_J[0] <= float(j) <= FEASIBLE_J[1]
