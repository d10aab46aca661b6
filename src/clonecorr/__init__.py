"""Quantum correlations in the output of the Buzek-Hillery qubit copier.

The package builds the two-clone output state for a real-amplitude input
and machine parameter j, computes the quantum discord between the clones
by minimizing the measured conditional entropy over projective bases, and
classifies separability through the Peres-Horodecki (PPT) criterion, both
spectrally and via closed-form determinants of the partial transpose.
"""

from .cloner import (FEASIBLE_J, MachineConstraintReport, build_output_batch, build_output_state,
                     check_machine_constraints, clone_fidelity, reduced_clone, valid_j_range)
from .discord import (DiscordResult, conditional_entropy, conditional_entropy_curve, discord_at,
                      discord_min, discord_surface, mutual_info_i, mutual_info_j)
from .errors import ConvergenceError, DomainError, InvalidStateError
from .hermat import (eig_herm2, eig_sym4, jacobi_eigvals, partial_trace,
                     partial_transpose_b, principal_minor, swap_qubits, vn_entropy)
from .separability import (JInterval, SeparabilityVerdict, classify, ppt_data,
                           separable_intervals, w3_closed, w4_closed)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DiscordResult", "DomainError", "FEASIBLE_J",
    "InvalidStateError", "JInterval", "MachineConstraintReport", "SeparabilityVerdict",
    "build_output_batch", "build_output_state", "check_machine_constraints",
    "classify", "clone_fidelity", "conditional_entropy",
    "conditional_entropy_curve", "discord_at", "discord_min", "discord_surface",
    "eig_herm2", "eig_sym4", "jacobi_eigvals", "mutual_info_i",
    "mutual_info_j", "partial_trace", "partial_transpose_b", "ppt_data", "principal_minor",
    "reduced_clone", "separable_intervals", "swap_qubits", "valid_j_range",
    "vn_entropy", "w3_closed", "w4_closed",
]
