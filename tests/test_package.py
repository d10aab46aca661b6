"""The package's public namespace."""

import inspect

import clonecorr

PUBLIC = {
    "ConvergenceError", "DiscordResult", "DomainError", "FEASIBLE_J",
    "InvalidStateError", "JInterval", "MachineConstraintReport", "SeparabilityVerdict",
    "build_output_batch", "build_output_state", "check_machine_constraints", "classify",
    "clone_fidelity", "conditional_entropy", "conditional_entropy_curve", "discord_at",
    "discord_min", "discord_surface", "eig_herm2", "eig_sym4", "jacobi_eigvals",
    "mutual_info_i", "mutual_info_j", "partial_trace", "partial_transpose_b", "ppt_data",
    "principal_minor", "reduced_clone", "separable_intervals", "swap_qubits",
    "valid_j_range", "vn_entropy", "w3_closed", "w4_closed",
}


def test_all_is_the_public_api():
    assert len(clonecorr.__all__) == len(PUBLIC)
    assert set(clonecorr.__all__) == PUBLIC


def test_public_attributes_are_exactly_all():
    # every name in __all__ resolves, and no public name outside it remains
    public = {name for name, value in vars(clonecorr).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(clonecorr.__all__)
