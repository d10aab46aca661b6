"""The package's public namespace."""

import importlib
import inspect

import pytest

import clonecorr

PUBLIC = {
    "DiscordResult", "DomainError", "FEASIBLE_J", "InvalidStateError", "JInterval",
    "SeparabilityVerdict", "build_output_batch", "build_output_state", "classify",
    "clone_fidelity", "conditional_entropy", "conditional_entropy_curve", "discord_at",
    "discord_min", "discord_surface", "mutual_info_i", "mutual_info_j",
    "separable_intervals", "valid_j_range", "w3_closed", "w4_closed",
}

# numerics helpers and model internals: imported from their modules, not the package
MODULE_ONLY = {
    "jacobi_eigvals": "hermat", "principal_minor": "hermat", "eig_herm2": "hermat",
    "eig_sym4": "hermat", "partial_trace": "hermat", "partial_transpose_b": "hermat",
    "validate_state": "hermat", "vn_entropy": "hermat",
    "ConvergenceError": "errors",
    "ppt_data": "separability",
    "reduced_clone": "cloner", "check_machine_constraints": "cloner",
}


def test_all_is_the_public_api():
    assert len(clonecorr.__all__) == len(PUBLIC)
    assert set(clonecorr.__all__) == PUBLIC


def test_public_attributes_are_exactly_all():
    # every name in __all__ resolves, and no public name outside it remains
    public = {name for name, value in vars(clonecorr).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(clonecorr.__all__)


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_helper_lives_in_its_module_only(name):
    module = importlib.import_module(f"clonecorr.{MODULE_ONLY[name]}")
    assert getattr(module, name).__module__ == module.__name__
    assert not hasattr(clonecorr, name)
