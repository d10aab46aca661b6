import warnings

import numpy as np
import pytest

from clonecorr import (build_output_batch, build_output_state, eig_herm2, eig_sym4, hermat,
                       jacobi_eigvals, partial_trace, partial_transpose_b, principal_minor,
                       swap_qubits, vn_entropy)
from clonecorr.cli import RunConfig
from clonecorr.errors import ConvergenceError, InvalidStateError
from clonecorr.hermat import HERM_ATOL, validate_state
from oracles import (bell_phi_plus, charpoly_eigvals_sym4, jacobi_eigvals_row_major, random_herm2,
                     random_sym4)

# regression constant: -(5/6)log2(5/6) - (1/6)log2(1/6)
ENTROPY_5_6 = 0.6500224216483541


class TestEigHerm2:
    def test_maximally_mixed(self):
        assert np.array_equal(eig_herm2(np.eye(2) / 2), [0.5, 0.5])

    def test_pure_projector(self):
        assert np.array_equal(eig_herm2(np.array([[1.0, 0.0], [0.0, 0.0]])), [1.0, 0.0])

    def test_reduced_clone_closed_form(self):
        # reduced clone at alpha = 1/sqrt(2), j = 1/6: eigenvalues 1/2 +- 1/3
        m = np.array([[0.5, 1 / 3], [1 / 3, 0.5]])
        np.testing.assert_allclose(eig_herm2(m), [5 / 6, 1 / 6], rtol=0, atol=1e-15)

    def test_complex_offdiagonal_matches_lapack(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = random_herm2(rng)
            np.testing.assert_allclose(
                eig_herm2(m), np.linalg.eigvalsh(m)[::-1], rtol=0, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            eig_herm2(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InvalidStateError):
            eig_herm2(np.array([[1j, 0.0], [0.0, 0.0]]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(33)
        stack = np.stack([random_herm2(rng) for _ in range(6)]).reshape(3, 2, 2, 2)
        batch = eig_herm2(stack)
        assert batch.shape == (3, 2, 2)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(batch[idx], eig_herm2(stack[idx]))

    def test_rejects_non_hermitian_batch_member(self):
        stack = np.stack([np.eye(2) / 2, np.array([[0.5, 0.1], [0.0, 0.5]])])
        with pytest.raises(InvalidStateError):
            eig_herm2(stack)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidStateError):
            eig_herm2(np.eye(3))

    def test_rejects_nan(self):
        m = np.eye(2) / 2
        m[1, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="NaN or infinite"):
                eig_herm2(m)
            with pytest.raises(InvalidStateError, match="NaN or infinite"):
                eig_herm2(np.stack([np.eye(2) / 2, m]))


class TestEigSym4:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(eig_sym4(np.eye(4) / 4), [0.25] * 4, rtol=0, atol=1e-15)

    def test_bell_projector(self):
        np.testing.assert_allclose(
            eig_sym4(bell_phi_plus()), [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)

    def test_copier_output_spectrum(self):
        # exact spectrum {2/3, 1/3, 0, 0}; the doubly degenerate zero includes
        # the singlet mode annihilated by construction
        rho = build_output_state(1 / np.sqrt(2), 1 / 6)
        spectrum = eig_sym4(rho)
        np.testing.assert_allclose(spectrum, [2 / 3, 1 / 3, 0.0, 0.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            spectrum, charpoly_eigvals_sym4(rho), rtol=0, atol=1e-7)

    def test_random_against_charpoly_oracle(self):
        for seed in (11, 13):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                m = random_sym4(rng)
                np.testing.assert_allclose(
                    eig_sym4(m), charpoly_eigvals_sym4(m), rtol=0, atol=1e-12)

    def test_random_against_lapack(self):
        # the single-matrix path is LAPACK's spectrum, descending, bit for bit;
        # accuracy is checked against the charpoly oracle above
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = random_sym4(rng)
            np.testing.assert_array_equal(eig_sym4(m), np.linalg.eigvalsh(m)[::-1])

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(InvalidStateError):
            eig_sym4(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_diagonal(self, value):
        # the symmetry test alone lets these through: NaN compares False with
        # its tolerance, and inf - inf is NaN
        m = np.eye(4) / 4
        m[3, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="NaN or infinite"):
                eig_sym4(m)

    def test_jacobi_stack_matches_single_matrix_path(self):
        # stacks keep the Jacobi solver, single matrices use LAPACK
        rng = np.random.default_rng(17)
        stack = np.stack([random_sym4(rng) for _ in range(200)])
        np.testing.assert_allclose(jacobi_eigvals(stack), [eig_sym4(m) for m in stack],
                                   rtol=0, atol=1e-12)
        for alpha in (-0.9, 0.3, 0.7, 1.0):
            rhos = build_output_batch(alpha, np.linspace(0.0, 0.5, 51))
            for x in (rhos, partial_transpose_b(rhos)):
                np.testing.assert_allclose(jacobi_eigvals(x), [eig_sym4(m) for m in x],
                                           rtol=0, atol=1e-14)

    def test_exhausted_sweep_budget_raises(self, monkeypatch):
        monkeypatch.setattr(hermat, "JACOBI_MAX_SWEEPS", 0)
        rng = np.random.default_rng(1)
        with pytest.raises(ConvergenceError, match="budget of 0"):
            jacobi_eigvals(random_sym4(rng)[None])

    @pytest.mark.parametrize("keyword", ["max_sweeps", "off_tol"])
    def test_sweep_settings_are_not_keywords(self, keyword):
        # the module constants JACOBI_MAX_SWEEPS and JACOBI_OFF_TOL set them
        with pytest.raises(TypeError):
            jacobi_eigvals(np.eye(4)[None], **{keyword: 1})

    def test_eigenvalues_reconstruct_trace_and_frobenius(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = random_sym4(rng)
            ev = eig_sym4(m)
            assert abs(ev.sum() - np.trace(m)) <= 1e-12
            assert abs((ev ** 2).sum() - (m ** 2).sum()) <= 1e-10
            m2 = random_herm2(rng)
            ev2 = eig_herm2(m2)
            assert abs(ev2.sum() - np.trace(m2).real) <= 1e-12
            assert abs((ev2 ** 2).sum() - (np.abs(m2) ** 2).sum()) <= 1e-10


class TestJacobiEigvals:
    """jacobi_eigvals: independent stacks on the leading axes, and its refusals."""

    # the default surface's j grid; near-product alphas converge in different
    # sweep counts for the states and their partial transposes
    DEFAULT_JS = RunConfig().j_grid()
    ALPHAS = [0.0, 1.0, -1.0, 2 ** -0.5, -2 ** -0.5, 1.5e-10, 1e-6, 1 - 1e-12]

    @staticmethod
    def _stacks(alpha, js):
        rhos = build_output_batch(alpha, js)
        return rhos, partial_transpose_b(rhos)

    def test_stacked_call_equals_separate_calls_bit_for_bit(self):
        rng = np.random.default_rng(26)
        alphas = self.ALPHAS + rng.uniform(-1.0, 1.0, 80).tolist()
        alphas += (10.0 ** rng.uniform(-14.0, -3.0, 80) * rng.choice([-1.0, 1.0], 80)).tolist()
        grids = [self.DEFAULT_JS] + [np.sort(rng.uniform(0.0, 0.5, rng.integers(1, 120)))
                                     for _ in range(20)]
        cases = [(alpha, self.DEFAULT_JS) for alpha in alphas]
        cases += [(alpha, grids[k % len(grids)]) for k, alpha in enumerate(alphas)]
        for alpha, js in cases:
            rhos, sigmas = self._stacks(alpha, js)
            stacked = jacobi_eigvals(np.stack([rhos, sigmas]))
            separate = np.stack([jacobi_eigvals(rhos), jacobi_eigvals(sigmas)])
            assert stacked.tobytes() == separate.tobytes(), (alpha, len(js))

    def test_equals_row_major_oracle_bit_for_bit(self):
        rng = np.random.default_rng(27)
        default_alphas = RunConfig().alpha_list
        alphas = rng.uniform(-1.0, 1.0, 60).tolist()
        alphas += (10.0 ** rng.uniform(-14.0, -3.0, 60) * rng.choice([-1.0, 1.0], 60)).tolist()
        cases = [(alpha, self.DEFAULT_JS) for alpha in default_alphas + self.ALPHAS]
        cases += [(alpha, np.sort(rng.uniform(0.0, 0.5, rng.integers(1, 120))))
                  for alpha in alphas]
        uneven = 0   # cases whose two stacks converge in different sweep counts
        for alpha, js in cases:
            stacks = np.stack(self._stacks(alpha, js))
            got = jacobi_eigvals(stacks)
            assert got.tobytes() == jacobi_eigvals_row_major(stacks).tobytes(), (alpha, len(js))
            joined = jacobi_eigvals(stacks.reshape(-1, 4, 4))
            uneven += not np.array_equal(got.ravel(), joined.ravel())
        assert uneven > 0

    def test_every_batch_shape_equals_row_major_oracle(self):
        rng = np.random.default_rng(4)
        mats = np.stack([random_sym4(rng) for _ in range(3 * 5)]).reshape(3, 5, 4, 4)
        mats[0] = np.diag(rng.standard_normal(4))      # converged before the first sweep
        mats[2] = np.diag(rng.standard_normal(4)) + 1e-9 * mats[2]
        for x in (mats[1, 0], mats[1, :1], mats[:2, :1], mats, mats[None]):
            assert jacobi_eigvals(x).tobytes() == jacobi_eigvals_row_major(x).tobytes(), x.shape

    def test_whole_batch_convergence_would_differ(self):
        # what the per-stack test guards: at alpha = 1.5e-10 the states converge
        # in one sweep and their partial transposes in two, so sweeping the
        # joined batch until all of it converges moves the states' bits
        rhos, sigmas = self._stacks(1.5e-10, self.DEFAULT_JS)
        joined = jacobi_eigvals(np.concatenate([rhos, sigmas]))
        separate = np.concatenate([jacobi_eigvals(rhos), jacobi_eigvals(sigmas)])
        assert not np.array_equal(joined, separate)

    def test_more_batch_axes_equal_one_call_per_stack(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_sym4(rng) for _ in range(2 * 3 * 5)]).reshape(2, 3, 5, 4, 4)
        got = jacobi_eigvals(mats)
        assert got.shape == (2, 3, 5, 4)
        for i, k in np.ndindex(2, 3):
            assert got[i, k].tobytes() == jacobi_eigvals(mats[i, k]).tobytes()

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4, 4), (0, 99, 4, 4), (3, 0, 2, 4, 4)])
    def test_empty_stack_returns_batch_shape(self, shape):
        assert jacobi_eigvals(np.zeros(shape)).shape == shape[:-2] + (4,)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, value):
        mats = np.stack([np.eye(4) / 4] * 3)
        mats[1, 2, 0] = mats[1, 0, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="NaN or infinite"):
                jacobi_eigvals(mats)

    def test_overflow_to_nan_raises_convergence_error(self):
        # finite entries whose rotations overflow to NaN: a NaN norm compares
        # False with the tolerance, so it must keep its stack active to the budget
        m = np.diag([1e308, -1e308, 1.0, 1.0])
        m[0, 1] = m[1, 0] = 1e308
        with np.errstate(all="ignore"):
            with pytest.raises(ConvergenceError, match="max off-diagonal norm nan") as got:
                jacobi_eigvals(m[None])
            with pytest.raises(ConvergenceError) as expected:
                jacobi_eigvals_row_major(m[None])
        assert str(got.value) == str(expected.value)

    def test_rejects_complex_entry(self):
        # eigvalsh gives [0.35, 0.25, 0.25, 0.15]: dropping 0.1i would give 0.25 four times
        m = np.eye(4, dtype=complex) / 4
        m[0, 1], m[1, 0] = 0.1j, -0.1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="complex entries"):
                jacobi_eigvals(m[None])

    def test_complex_typed_real_stack_gives_the_float_bits(self):
        rhos, sigmas = self._stacks(0.7, self.DEFAULT_JS)
        stacks = np.stack([rhos, sigmas])
        roundoff = stacks + 1j * HERM_ATOL * np.triu(np.ones((4, 4)), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no ComplexWarning
            for x in (stacks.astype(complex), roundoff):
                assert jacobi_eigvals(x).tobytes() == jacobi_eigvals(stacks).tobytes()

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 3), (16,)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(InvalidStateError, match=r"expected \(\.\.\., 4, 4\), got shape"):
            jacobi_eigvals(np.zeros(shape))


class TestVnEntropy:
    def test_pure(self):
        assert vn_entropy([1.0, 0.0]) == 0.0

    def test_maximally_mixed(self):
        assert vn_entropy([0.5, 0.5]) == 1.0

    def test_five_sixths(self):
        assert abs(vn_entropy([5 / 6, 1 / 6]) - ENTROPY_5_6) <= 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = rng.dirichlet([1.0] * 4)
            assert vn_entropy(lam) == vn_entropy(lam[::-1])

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            h = vn_entropy(rng.dirichlet([0.7] * 4))
            assert 0.0 <= h <= 2.0

    def test_clamps_roundoff_negatives(self):
        # -5e-11 is treated as an exact zero instead of raising
        assert abs(vn_entropy([1.0 + 5e-11, -5e-11])) <= 1e-9
        assert abs(vn_entropy([1.0, -5e-11])) == 0.0

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            vn_entropy([1.001, -1e-3])

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            vn_entropy([0.6, 0.6])

    @pytest.mark.parametrize("spectrum", [[1.0, np.nan], [np.nan, 1.0, 0.0, 0.0],
                                          [np.inf, 0.0]])
    def test_rejects_non_finite(self, spectrum):
        with pytest.raises(InvalidStateError, match="NaN or infinite"):
            vn_entropy(spectrum)


class TestValidateState:
    @pytest.mark.parametrize("shape", [2, 4])
    def test_rejects_nan_state(self, shape):
        m = np.eye(shape) / shape
        m[-1, -1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="NaN or infinite"):
                validate_state(m)

    def test_spectrum_is_descending(self):
        rho = build_output_state(0.7, 0.22)
        spectrum = validate_state(rho)
        assert list(spectrum) == sorted(spectrum, reverse=True)
        np.testing.assert_allclose(spectrum, np.linalg.eigvalsh(rho)[::-1], rtol=0, atol=0)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(23)
        a = np.diag(rng.dirichlet([1, 1]))
        b = np.array([[0.7, 0.1], [0.1, 0.3]])
        rho = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(rho, "a"), a, rtol=0, atol=1e-15)
        np.testing.assert_allclose(partial_trace(rho, "b"), b, rtol=0, atol=1e-15)

    def test_copier_reduction_closed_form(self):
        # symbolic reduction: [[a^2 n + j, ab n], [ab n, b^2 n + j]]
        for alpha, j in [(0.3, 0.1), (1 / np.sqrt(2), 1 / 6), (0.95, 0.4)]:
            beta = np.sqrt(1 - alpha ** 2)
            n = 1 - 2 * j
            rho = build_output_state(alpha, j)
            expected = np.array([[alpha ** 2 * n + j, alpha * beta * n],
                                 [alpha * beta * n, beta ** 2 * n + j]])
            np.testing.assert_allclose(partial_trace(rho, "b"), expected, rtol=0, atol=1e-14)

    def test_bell_reduction(self):
        np.testing.assert_allclose(
            partial_trace(bell_phi_plus(), "b"), np.eye(2) / 2, rtol=0, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            m = random_sym4(rng)
            for keep in ("a", "b"):
                assert abs(np.trace(partial_trace(m, keep)) - np.trace(m)) <= 1e-13

    def test_rejects_bad_selector(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, "c")

    def test_batch_matches_single(self):
        rng = np.random.default_rng(31)
        stack = np.stack([random_sym4(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        for keep in ("a", "b"):
            batch = partial_trace(stack, keep)
            assert batch.shape == (2, 3, 2, 2)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(batch[idx], partial_trace(stack[idx], keep))


class TestPartialTransposeB:
    def test_diagonal_fixed(self):
        d = np.diag([0.4, 0.3, 0.2, 0.1])
        assert np.array_equal(partial_transpose_b(d), d)

    def test_bell_minimum_eigenvalue(self):
        sigma = partial_transpose_b(bell_phi_plus())
        assert abs(eig_sym4(sigma)[-1] - (-0.5)) <= 1e-14

    def test_copier_minors(self):
        # hand-evaluated closed forms at alpha = 0.6, j = 0.2
        sigma = partial_transpose_b(build_output_state(0.6, 0.2))
        assert abs(principal_minor(sigma, 3) - 3.456e-4) <= 1e-12
        assert abs(principal_minor(sigma, 4) - 5.888e-5) <= 1e-12

    def test_involution(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = random_sym4(rng)
            assert np.array_equal(partial_transpose_b(partial_transpose_b(m)), m)

    def test_reduced_state_unchanged(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            m = random_sym4(rng)
            sigma = partial_transpose_b(m)
            assert np.abs(partial_trace(sigma, "a") - partial_trace(m, "a")).max() <= 1e-14


class TestPrincipalMinor:
    def test_identity(self):
        assert principal_minor(np.eye(4), 3) == 1.0

    def test_zero_row(self):
        m = np.diag([1.0, 1.0, 0.0, 1.0])
        assert principal_minor(m, 4) == 0.0

    def test_copier_w3_value(self):
        sigma = partial_transpose_b(build_output_state(0.6, 0.2))
        assert abs(principal_minor(sigma, 3) - 3.456e-4) <= 1e-12

    def test_full_determinant_equals_eigenvalue_product(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = random_sym4(rng)
            assert abs(principal_minor(m, 4) - np.prod(eig_sym4(m))) <= 1e-10

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            principal_minor(np.eye(4), 5)


class TestSwapQubits:
    def test_involution_and_basis_action(self):
        m = np.arange(16.0).reshape(4, 4)
        m = (m + m.T) / 2
        s = swap_qubits(m)
        assert np.array_equal(swap_qubits(s), m)
        # |01> <-> |10>
        assert s[1, 1] == m[2, 2] and s[0, 1] == m[0, 2]
