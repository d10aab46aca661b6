"""Buzek-Hillery copier model: two-clone output state and its diagnostics.

The machine is characterized by a single parameter j (the squared norm of
the failure vectors); the two-clone output in basis |00>, |01>, |10>, |11>
for input alpha|0> + beta|1> is

    [[ a^2 n,  c,  c,  0     ],
     [ c,      j,  j,  c     ],      n = 1 - 2j,  c = alpha*beta*n/2.
     [ c,      j,  j,  c     ],
     [ 0,      c,  c,  b^2 n ]]

The |01>/|10> rows are identical, so the singlet (|01> - |10>)/sqrt(2) is
annihilated exactly for every (alpha, j).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hermat
from .errors import DomainError
from .search import bisect_boundary

# machine-vector norms and overlaps admit a solution only on this j interval
FEASIBLE_J = (1.0 / 6.0, 0.5)
# j spacing of the grid that valid_j_range scans before bisecting
WINDOW_GRID_STEP = 1e-3
# bracket width at which valid_j_range's bisection stops
WINDOW_TOL = 1e-6


@dataclass(frozen=True)
class InputState:
    """Real-amplitude qubit state alpha|0> + beta|1> to be copied."""
    alpha: float
    beta: float

    def __post_init__(self):
        norm = self.alpha ** 2 + self.beta ** 2
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"amplitudes not normalized: alpha^2+beta^2 = {norm!r}")

    @classmethod
    def from_alpha(cls, alpha):
        """Construct with beta = +sqrt(1 - alpha^2)."""
        alpha = float(alpha)
        if not -1.0 <= alpha <= 1.0:
            raise DomainError(f"alpha must lie in [-1, 1], got {alpha}")
        return cls(alpha, math.sqrt(1.0 - alpha * alpha))


@dataclass(frozen=True)
class MachineParams:
    """Copier strength j; the output mixes in the symmetric |+><+| with weight 2j.

    Any float is accepted so that check_machine_constraints can report on
    out-of-range values; build_output_state enforces j in [0, 1/2].
    """
    j: float

    @property
    def n(self):
        return 1.0 - 2.0 * self.j


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


def _as_input(state):
    if isinstance(state, InputState):
        return state
    return InputState.from_alpha(state)


def _as_machine(machine):
    if isinstance(machine, MachineParams):
        return machine
    return MachineParams(float(machine))


def build_output_state(state, machine):
    """Two-clone 4x4 output density matrix for the given input and machine.

    Parameters may be given as InputState / MachineParams or as bare floats
    (alpha and j). j outside [0, 1/2] raises DomainError; positivity of the
    result is alpha-dependent and deliberately not enforced here -- scans
    cover non-positive parameter regions too. Use valid_j_range for the
    physical window. The one-element case of build_output_batch.
    """
    return build_output_batch(state, _as_machine(machine).j)


def build_output_batch(state, js):
    """Stack of output states, shape np.shape(js) + (4, 4), for an array of j values."""
    st = _as_input(state)
    js = np.asarray(js, dtype=float)
    bad = js[~((js >= 0.0) & (js <= 0.5))]
    if bad.size:
        raise DomainError(f"machine parameter j={bad.flat[0]} outside [0, 1/2]")
    a, b = st.alpha, st.beta
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


def clone_fidelity(state, machine):
    """Overlap of one clone with the source state, <chi| rho_a |chi>.

    Analytically equal to 1 - j for every normalized real input.
    """
    st = _as_input(state)
    rho_a = reduced_clone(build_output_state(st, machine), "a")
    chi = np.array([st.alpha, st.beta])
    return float(chi @ rho_a @ chi)


def valid_j_range(state):
    """Maximal interval of j in [0, 1/2] on which the output state is physical.

    Physical means minimum eigenvalue >= -1e-10. A grid scan at
    WINDOW_GRID_STEP locates the interval; each interior boundary is refined
    by bisection to WINDOW_TOL. Returns (lo, hi), never empty: at j = 1/2 the
    state has spectrum {1, 0, 0, 0} for every alpha.
    """
    st = _as_input(state)
    js = np.round(np.arange(0.0, 0.5 + WINDOW_GRID_STEP / 2, WINDOW_GRID_STEP), 12)
    min_eigs = hermat.jacobi_eigvals(build_output_batch(st, js))[:, -1]
    phys = min_eigs >= hermat.STATE_EIG_FLOOR

    # longest contiguous run of physical grid points (first on ties)
    best = None
    i = 0
    while i < len(js):
        if phys[i]:
            k = i
            while k + 1 < len(js) and phys[k + 1]:
                k += 1
            if best is None or (k - i) > (best[1] - best[0]):
                best = (i, k)
            i = k + 1
        else:
            i += 1
    i0, i1 = best

    def is_physical(j):
        rho = build_output_state(st, j)
        return hermat.eig_sym4(rho)[-1] >= hermat.STATE_EIG_FLOOR

    lo = js[i0] if i0 == 0 else bisect_boundary(is_physical, js[i0 - 1], js[i0], WINDOW_TOL)
    hi = (js[i1] if i1 == len(js) - 1
          else bisect_boundary(is_physical, js[i1 + 1], js[i1], WINDOW_TOL))
    return (float(lo), float(hi))


def check_machine_constraints(machine):
    """Report whether machine vectors with the required overlaps can exist.

    Needs <Q|Q> = 1 - 2j >= 0, <Y|Y> = j >= 0, and the cross overlap n/2 to
    respect Cauchy-Schwarz, |n/2| <= sqrt(j(1-2j)); the last holds exactly
    for j in [1/6, 1/2], with equality at j = 1/6.
    """
    mp = _as_machine(machine)
    j, n = mp.j, mp.n
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
