"""Quantum correlations in the output of the Buzek-Hillery qubit copier.

The package builds the two-clone output state for a real-amplitude input
and machine parameter j, computes the quantum discord between the clones
by minimizing the measured conditional entropy over projective bases, and
classifies separability through the Peres-Horodecki (PPT) criterion: the
exact sign of the partial transpose's determinant, which on the copier is
that of a cubic g(j), decided in integers.

The package namespace holds only what that question needs. The numerics
helpers are imported from their modules: the eigensolvers, partial
trace and transpose, principal minors, entropy and the 4x4 state check
from `clonecorr.hermat`; `ppt_data` from `clonecorr.separability`;
`reduced_clone` and `check_machine_constraints` (a bool: can a copier
have this j?) from `clonecorr.cloner`; and `ConvergenceError` from
`clonecorr.errors`.
"""

from .cloner import (FEASIBLE_J, build_output_batch, build_output_state, clone_fidelity,
                     valid_j_range)
from .discord import (DiscordResult, conditional_entropy, conditional_entropy_curve, discord_at,
                      discord_min, discord_surface, mutual_info_i, mutual_info_j)
from .errors import DomainError, InvalidStateError
from .separability import (JInterval, SeparabilityVerdict, classify, separable_intervals,
                           w3_closed, w4_closed)

__version__ = "0.1.0"

__all__ = [
    "DiscordResult", "DomainError", "FEASIBLE_J", "InvalidStateError", "JInterval",
    "SeparabilityVerdict", "build_output_batch", "build_output_state", "classify",
    "clone_fidelity", "conditional_entropy", "conditional_entropy_curve", "discord_at",
    "discord_min", "discord_surface", "mutual_info_i", "mutual_info_j",
    "separable_intervals", "valid_j_range", "w3_closed", "w4_closed",
]
