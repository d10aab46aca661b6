import dataclasses
import math

import numpy as np
import pytest

from clonecorr import (FEASIBLE_J, build_output_batch, build_output_state,
                       check_machine_constraints, classify, clone_fidelity, discord_surface,
                       eig_sym4, reduced_clone, separable_intervals, swap_qubits, valid_j_range,
                       w3_closed, w4_closed)
from clonecorr import hermat
from clonecorr.cli import point_report
from clonecorr.cloner import _amplitudes, _triplet_cubic_at_floor
from clonecorr.separability import scan_grid
from clonecorr.errors import DomainError
from oracles import valid_j_range_jacobi, window_edge_roots

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
X_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
# 501 j values, 0 to 1/2 in steps of 1e-3
J_GRID = np.round(np.arange(0.0, 0.5 + 5e-4, 1e-3), 12)


def random_alpha_j(rng):
    return rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)


# every public function that takes the input amplitude alpha, with the other arguments fixed
ALPHA_FUNCTIONS = {
    "build_output_state": lambda alpha: build_output_state(alpha, 0.3),
    "build_output_batch": lambda alpha: build_output_batch(alpha, [0.2, 0.3]),
    "clone_fidelity": lambda alpha: clone_fidelity(alpha, 0.3),
    "valid_j_range": valid_j_range,
    "w3_closed": lambda alpha: w3_closed(alpha, 0.3),
    "w4_closed": lambda alpha: w4_closed(alpha, 0.3),
    "classify": lambda alpha: classify(alpha, 0.3),
    "scan_grid": lambda alpha: scan_grid(alpha, scan_step=1e-2),
    "separable_intervals": separable_intervals,
    "discord_surface": lambda alpha: discord_surface(alpha, [0.2, 0.3], [0.0, 0.4]),
}


def _bits(value):
    """Type, dtype, shape and raw bytes of a result, recursively."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits(dataclasses.astuple(value))
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [_bits(v) for v in value]
    a = np.asarray(value)
    return type(value).__name__, a.dtype.str, a.shape, a.tobytes()


class TestPlainAlpha:
    @pytest.mark.parametrize("name", ALPHA_FUNCTIONS)
    def test_rejects_alpha_outside_domain(self, name):
        for bad in (1.5, -1.5, float("nan"), float("inf")):
            with pytest.raises(DomainError, match=r"\[-1, 1\]"):
                ALPHA_FUNCTIONS[name](bad)

    @pytest.mark.parametrize("name", ALPHA_FUNCTIONS)
    def test_numpy_and_int_alpha_match_float_bits(self, name):
        f = ALPHA_FUNCTIONS[name]
        for given, plain in ((np.float64(0.7), 0.7), (0, 0.0), (1, 1.0)):
            assert _bits(f(given)) == _bits(f(plain)), given


class TestBuildOutputState:
    def test_alpha_one_is_mixture_of_00_and_plus(self):
        plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        for j in (0.0, 0.17, 0.5):
            expected = np.zeros((4, 4))
            expected[0, 0] = 1.0 - 2.0 * j
            expected += 2.0 * j * np.outer(plus, plus)
            np.testing.assert_allclose(build_output_state(1.0, j), expected,
                                       rtol=0, atol=1e-15)

    def test_universal_point_matrix(self):
        expected = np.array([
            [1 / 3, 1 / 6, 1 / 6, 0.0],
            [1 / 6, 1 / 6, 1 / 6, 1 / 6],
            [1 / 6, 1 / 6, 1 / 6, 1 / 6],
            [0.0, 1 / 6, 1 / 6, 1 / 3],
        ])
        np.testing.assert_allclose(build_output_state(1 / np.sqrt(2), 1 / 6), expected,
                                   rtol=0, atol=1e-15)

    def test_alpha_06_j_02_entries(self):
        rho = build_output_state(0.6, 0.2)
        assert rho[0, 0] == pytest.approx(0.216, abs=1e-15)
        assert rho[3, 3] == pytest.approx(0.384, abs=1e-15)
        for i, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            assert rho[i, k] == pytest.approx(0.2, abs=1e-15)
        for i, k in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert rho[i, k] == pytest.approx(0.144, abs=1e-15)
        assert rho[0, 3] == 0.0

    def test_beta_is_the_positive_root(self):
        # at alpha = 0.6, j = 0.2: n = 0.6, rho[3, 3] = beta^2 n, rho[0, 1] = alpha beta n / 2
        rho = build_output_state(0.6, 0.2)
        assert rho[3, 3] / 0.6 == pytest.approx(0.64, abs=1e-15)
        assert 2.0 * rho[0, 1] / (0.6 * 0.6) == pytest.approx(0.8, abs=1e-15)

    def test_rejects_j_outside_domain(self):
        for j in (-0.01, 0.51, 0.6, float("nan")):
            with pytest.raises(DomainError):
                build_output_state(0.5, j)
            with pytest.raises(DomainError):
                build_output_batch(0.5, [0.2, j])

    def test_batch_matches_scalar(self):
        js = np.array([0.0, 0.1, 1 / 6, 0.37, 0.5])
        batch = build_output_batch(0.42, js)
        for rho, j in zip(batch, js):
            assert np.array_equal(rho, build_output_state(0.42, float(j)))


class TestReducedClone:
    def test_universal_point(self):
        rho = build_output_state(1 / np.sqrt(2), 1 / 6)
        expected = np.array([[0.5, 1 / 3], [1 / 3, 0.5]])
        np.testing.assert_allclose(reduced_clone(rho, "b"), expected, rtol=0, atol=1e-15)

    def test_both_clones_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            alpha, j = random_alpha_j(rng)
            rho = build_output_state(alpha, j)
            assert np.abs(reduced_clone(rho, "a") - reduced_clone(rho, "b")).max() <= 1e-14

    def test_alpha_one(self):
        rho = build_output_state(1.0, 0.3)
        np.testing.assert_allclose(reduced_clone(rho, "b"), np.diag([0.7, 0.3]),
                                   rtol=0, atol=1e-15)


class TestCloneFidelity:
    def test_universal_machine_value(self):
        for alpha in (0.0, 0.25, 1 / np.sqrt(2), 0.9, 1.0):
            assert abs(clone_fidelity(alpha, 1 / 6) - 5 / 6) <= 1e-15

    def test_perfect_at_j_zero(self):
        assert clone_fidelity(1.0, 0.0) == 1.0

    def test_fidelity_law(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            alpha, j = random_alpha_j(rng)
            assert abs(clone_fidelity(alpha, j) - (1.0 - j)) <= 1e-12


class TestValidJRange:
    def test_alpha_one_full_range(self):
        assert valid_j_range(1.0) == (0.0, 0.5)

    def test_alpha_zero_full_range(self):
        assert valid_j_range(0.0) == (0.0, 0.5)

    def test_symmetric_input_excludes_small_j(self):
        lo, hi = valid_j_range(1 / np.sqrt(2))
        assert hi == 0.5
        assert lo > 0.1          # j = 0.1 is unphysical here
        assert lo <= 1 / 6 + 1e-6
        # the 3x3 minor on rows {1,2,4} is negative at j = 0.1
        rho = build_output_state(1 / np.sqrt(2), 0.1)
        sub = rho[np.ix_([0, 1, 3], [0, 1, 3])]
        assert np.linalg.det(sub) == pytest.approx(-0.016, abs=1e-15)
        assert eig_sym4(rho)[-1] < -1e-10

    def test_contains_universal_point_for_all_alpha(self):
        for alpha in np.linspace(0.05, 0.95, 10):
            window = valid_j_range(alpha)
            assert window is not None
            lo, hi = window
            assert lo <= 1 / 6 + 1e-9 <= hi

    def test_matches_jacobi_oracle_within_5e7(self):
        # the grid-plus-bisection search with Jacobi spectra, bisected to
        # 1e-6, finds the same window to within its own half tolerance
        alphas = [*np.linspace(-1.0, 1.0, 201), 1e-3, 1e-5, 1e-8, 1 - 1e-9]
        for alpha in alphas:
            (lo, hi), (ref_lo, ref_hi) = valid_j_range(alpha), valid_j_range_jacobi(alpha)
            assert hi == ref_hi == 0.5, alpha
            assert abs(lo - ref_lo) <= 5e-7, alpha

    def test_edge_is_the_cubic_root(self):
        # lo is the root in [0, 1/6] of the triplet cubic at the eigenvalue
        # floor as a polynomial in j (np.roots), and 0 exactly when it has none
        alphas = [*np.linspace(-1.0, 1.0, 4001), 1e-3, 1e-5, 1e-8, 1e-9, 2e-10, 1e-10,
                  1 - 1e-9, 1 - 1e-12]
        rooted = 0
        for alpha in alphas:
            lo, _ = valid_j_range(alpha)
            roots = window_edge_roots(alpha)
            assert len(roots) <= 1, alpha
            if roots:
                rooted += 1
                assert abs(lo - roots[0]) <= 1e-12, alpha
            else:
                assert lo == 0.0, alpha
        assert rooted > 3900

    def test_physical_grid_points_are_a_suffix(self):
        # the window's upper edge is 1/2 because the physical grid points, by
        # the batched eigvalsh minimum, are exactly those from some index on
        js = J_GRID
        assert len(js) == 501 and js[-1] == 0.5
        alphas = [*np.linspace(-1.0, 1.0, 2001), 0.0, 1e-9, -1e-9, 1 - 1e-12]
        for alpha in alphas:
            min_eigs = np.linalg.eigvalsh(build_output_batch(alpha, js))[:, 0]
            phys = min_eigs >= hermat.STATE_EIG_FLOOR
            # argmax is the first physical point; all after it must be physical
            assert phys[-1] and phys[np.argmax(phys):].all(), alpha

    def test_cubic_flags_match_eigvalsh_on_grid(self):
        # the window's one criterion, f(-eps) <= 0 for the triplet cubic f,
        # flags the same grid points as the batched eigvalsh floor test
        js = J_GRID
        alphas = [*np.linspace(-1.0, 1.0, 2001), 0.0, 1e-9, -1e-9, 1e-3, 1e-5, 1e-8,
                  1 - 1e-12]
        for alpha in alphas:
            a, b = _amplitudes(alpha)
            min_eigs = np.linalg.eigvalsh(build_output_batch(alpha, js))[:, 0]
            cubic = _triplet_cubic_at_floor((a * b) ** 2, js)
            assert np.array_equal(cubic <= 0.0, min_eigs >= hermat.STATE_EIG_FLOOR), alpha

    def test_window_edge_agrees_with_point_report(self):
        # point_report's own eig_sym4 physicality test accepts j just above lo
        # and rejects j just below it
        alphas = [*np.linspace(-0.99, 0.99, 199), 1e-3, 1e-4, 1e-5, 6e-6, 1e-6, 1 - 1e-9]
        edged = 0
        for alpha in alphas:
            lo, _ = valid_j_range(alpha)
            if lo == 0.0:
                continue
            edged += 1
            assert point_report(alpha, lo + 1e-8)["physical"], alpha
            with pytest.raises(DomainError, match="physical j range"):
                point_report(alpha, lo - 1e-8)
        assert edged > 150

    def test_window_takes_no_jacobi_stack(self, monkeypatch):
        # the window takes no 4x4 spectrum at all: its bisection evaluates
        # the triplet cubic
        calls = {"jacobi_eigvals": 0, "eig_sym4": 0, "eigvalsh": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(hermat, "jacobi_eigvals")
        counting(hermat, "eig_sym4")
        counting(np.linalg, "eigvalsh")
        assert valid_j_range(0.7)[0] > 0.0
        assert calls == {"jacobi_eigvals": 0, "eig_sym4": 0, "eigvalsh": 0}

    def test_grid_step_is_not_a_keyword(self):
        # the bracket [0, 1/6] and the tolerance WINDOW_TOL are fixed
        for keyword in ("grid_step", "tol"):
            with pytest.raises(TypeError):
                valid_j_range(0.7, **{keyword: 1e-3})


class TestMachineConstraints:
    def test_universal_point_saturates_overlap_bound(self):
        report = check_machine_constraints(1 / 6)
        assert report.satisfied
        assert abs(report.overlap - report.overlap_bound) <= 1e-12

    def test_j_04_satisfied(self):
        report = check_machine_constraints(0.4)
        assert report.satisfied
        assert report.overlap == pytest.approx(0.1, abs=1e-15)
        assert report.overlap_bound == pytest.approx(np.sqrt(0.08), abs=1e-15)

    def test_j_06_violates_norms(self):
        report = check_machine_constraints(0.6)
        assert not report.norms_ok
        assert not report.satisfied

    def test_feasible_window(self):
        report = check_machine_constraints(0.3)
        assert report.feasible_j == FEASIBLE_J == (1 / 6, 0.5)
        # overlap constraint fails strictly below the window
        assert not check_machine_constraints(0.1).overlap_ok


class TestStructuralInvariants:
    def test_trace_one(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            alpha, j = random_alpha_j(rng)
            assert abs(np.trace(build_output_state(alpha, j)) - 1.0) <= 1e-15

    def test_singlet_zero_mode(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            alpha, j = random_alpha_j(rng)
            rho = build_output_state(alpha, j)
            assert np.abs(rho @ SINGLET).max() <= 1e-14

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            alpha, j = random_alpha_j(rng)
            rho = build_output_state(alpha, j)
            assert np.array_equal(swap_qubits(rho), rho)

    def test_alpha_beta_covariance(self):
        rng = np.random.default_rng(12)
        flip = np.kron(X_FLIP, X_FLIP)
        for _ in range(200):
            alpha, j = random_alpha_j(rng)
            beta = np.sqrt(1.0 - alpha ** 2)
            # the input of build_output_state(beta, j) is (beta, sqrt(1 - beta^2)),
            # whose mirror (sqrt(1 - beta^2), beta) is built from sqrt(1 - beta^2)
            swapped = build_output_state(beta, j)
            conjugated = flip @ build_output_state(math.sqrt(1 - beta * beta), j) @ flip
            assert np.abs(swapped - conjugated).max() <= 1e-14
