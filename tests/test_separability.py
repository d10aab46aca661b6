import numpy as np
import pytest

from clonecorr import (JInterval, build_output_batch, build_output_state, classify,
                       eig_sym4, jacobi_eigvals, partial_transpose_b, ppt_data,
                       principal_minor, separable_intervals, w3_closed, w4_closed, w_direct)
from clonecorr.errors import DomainError
from clonecorr.separability import scan_grid
from oracles import bell_phi_plus, separable_intervals_scan

# reference separability windows (3-decimal endpoints, +-0.002 comparison)
REFERENCE = {0.6: (0.196, 0.238), 0.7: (0.191, 0.250), 0.8: (0.196, 0.238)}


class TestClosedForms:
    def test_w3_alpha_one(self):
        for j in np.linspace(0.0, 0.5, 11):
            assert w3_closed(1.0, j) == pytest.approx(j * j * (1 - 2 * j), abs=1e-15)
            assert w3_closed(1.0, j) >= 0.0

    def test_w3_hand_value(self):
        assert abs(w3_closed(0.6, 0.2) - 3.456e-4) <= 1e-12

    def test_w3_vanishing_prefactor(self):
        for alpha in (0.3, 0.8):
            assert w3_closed(alpha, 0.0) == 0.0
            assert w3_closed(alpha, 0.5) == 0.0

    def test_w4_alpha_one(self):
        for j in np.linspace(0.01, 0.5, 9):
            assert w4_closed(1.0, j) == pytest.approx(-j ** 4, abs=1e-15)
            assert w4_closed(1.0, j) < 0.0

    def test_w4_hand_value(self):
        assert abs(w4_closed(0.6, 0.2) - 5.888e-5) <= 1e-12

    def test_w4_negative_below_one_sixth(self):
        for alpha in (0.2, 0.5, 0.9):
            for j in (0.01, 0.1, 0.16):
                assert w4_closed(alpha, j) < 0.0


class TestWDirect:
    def test_matches_closed_forms_at_hand_point(self):
        w3, w4 = w_direct(build_output_state(0.6, 0.2))
        assert abs(w3 - w3_closed(0.6, 0.2)) <= 1e-12
        assert abs(w4 - w4_closed(0.6, 0.2)) <= 1e-12
        assert abs(w3 - 3.456e-4) <= 1e-12
        assert abs(w4 - 5.888e-5) <= 1e-12

    def test_bell_state(self):
        sigma = partial_transpose_b(bell_phi_plus())
        np.testing.assert_allclose(eig_sym4(sigma), [0.5, 0.5, 0.5, -0.5],
                                   rtol=0, atol=1e-14)
        _, w4 = w_direct(bell_phi_plus())
        assert w4 == pytest.approx(-1 / 16, abs=1e-15)

    def test_diagonal_state(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            d = rng.dirichlet([1.0] * 4)
            w3, w4 = w_direct(np.diag(d))
            assert w3 == pytest.approx(d[0] * d[1] * d[2], abs=1e-15)
            assert w4 == pytest.approx(np.prod(d), abs=1e-15)
            assert w3 >= 0.0 and w4 >= 0.0

    def test_random_agreement_with_closed_forms(self):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            alpha, j = rng.uniform(0, 1), rng.uniform(0, 0.5)
            w3, w4 = w_direct(build_output_state(alpha, j))
            assert abs(w3 - w3_closed(alpha, j)) <= 1e-12
            assert abs(w4 - w4_closed(alpha, j)) <= 1e-12


class TestPptData:
    def test_stack_matches_minors_and_spectrum_per_state(self):
        # reference: principal minors and the spectrum of each state on its own
        js = np.round(np.arange(0.0, 0.5001, 0.025), 12)
        rhos = build_output_batch(0.7, js)
        w3, w4, min_ppt = ppt_data(rhos)
        assert w3.shape == w4.shape == min_ppt.shape == js.shape
        for k, rho in enumerate(rhos):
            sigma = partial_transpose_b(rho)
            assert w3[k] == principal_minor(sigma, 3)
            assert w4[k] == principal_minor(sigma, 4)
            assert min_ppt[k] == eig_sym4(sigma)[-1]
            assert abs(w3[k] - w3_closed(0.7, js[k])) <= 1e-15
            assert abs(w4[k] - w4_closed(0.7, js[k])) <= 1e-15

    def test_single_state_gives_scalars(self):
        w3, w4, min_ppt = ppt_data(build_output_state(0.6, 0.2))
        assert w3.shape == w4.shape == min_ppt.shape == ()
        assert abs(w3 - 3.456e-4) <= 1e-12 and abs(w4 - 5.888e-5) <= 1e-12
        assert min_ppt >= -1e-10


class TestClassify:
    def test_separable_point(self):
        verdict = classify(0.6, 0.2)
        assert verdict.classification == "Separable"
        assert verdict.min_ppt_eigenvalue >= -1e-10
        assert verdict.w3 >= 0.0 and verdict.w4 >= 0.0
        assert verdict.agreement

    def test_alpha_half_always_entangled(self):
        for j in (0.17, 0.2, 0.3, 0.4, 0.5):
            verdict = classify(0.5, j)
            assert verdict.classification == "Entangled"
            assert verdict.agreement

    def test_alpha_one_entangled(self):
        verdict = classify(1.0, 0.3)
        assert verdict.classification == "Entangled"
        assert verdict.w4 == pytest.approx(-0.0081, abs=1e-15)

    def test_refuses_unphysical_point(self):
        with pytest.raises(DomainError) as err:
            classify(0.5, 0.1)
        assert err.value.min_eigenvalue < -1e-10


class TestSeparableIntervals:
    @pytest.mark.parametrize("alpha", [0.6, 0.7, 0.8])
    def test_reference_windows(self, alpha):
        intervals = separable_intervals(alpha)
        assert len(intervals) == 1
        lo, hi = REFERENCE[alpha]
        assert abs(intervals[0].lo - lo) <= 0.002
        assert abs(intervals[0].hi - hi) <= 0.002

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_empty_for_entangled_rows(self, alpha):
        assert separable_intervals(alpha) == []

    def test_alpha_beta_symmetry(self):
        a = separable_intervals(0.6)[0]
        b = separable_intervals(0.8)[0]
        assert abs(a.lo - b.lo) <= 1e-12
        assert abs(a.hi - b.hi) <= 1e-12

    def test_interval_type_validation(self):
        with pytest.raises(DomainError):
            JInterval(lo=0.3, hi=0.2)

    def test_alpha_07_endpoints_are_the_cubic_roots(self):
        (iv,) = separable_intervals(0.7)
        assert iv.lo == pytest.approx(0.191004143621, abs=1e-10)
        assert iv.hi == pytest.approx(0.249949969966, abs=1e-10)

    def test_matches_grid_scan_and_bisection(self):
        # 0.5498/0.5499 straddle the onset of the window (1.1e-3 wide at
        # 0.5499), 0.8352 its end on the beta side
        rng = np.random.default_rng(7)
        stratified = np.round((np.arange(40) + rng.uniform(size=40)) / 40, 4)
        for alpha in [0.0, 1.0, 0.5498, 0.5499, 0.6, 0.7, 0.8, 0.8352, *stratified]:
            got = [(iv.lo, iv.hi) for iv in separable_intervals(alpha)]
            want = separable_intervals_scan(alpha)
            assert len(got) == len(want), f"alpha={alpha}: {got} vs {want}"
            for iv, ref in zip(got, want):
                assert np.allclose(iv, ref, rtol=0.0, atol=1e-6), f"alpha={alpha}: {got} vs {want}"


class TestScanConsistency:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.6, 0.7, 0.9])
    def test_determinant_and_ppt_tests_agree(self, alpha):
        js, w3s, w4s, min_ppt = scan_grid(alpha, scan_step=1e-3)
        det_sep = (w3s >= 0.0) & (w4s >= 0.0)
        ppt_sep = min_ppt >= -1e-10
        disagree = det_sep != ppt_sep
        assert not disagree.any(), f"alpha={alpha}, j={js[disagree]}"

    def test_at_most_one_negative_ppt_eigenvalue(self):
        for alpha in (0.25, 0.6, 0.85):
            js = np.round(np.arange(0.17, 0.5001, 0.005), 12)
            sigmas = partial_transpose_b(build_output_batch(alpha, js))
            eigs = jacobi_eigvals(sigmas)
            assert ((eigs < -1e-10).sum(axis=1) <= 1).all()

    def test_ppt_determinant_equals_eigenvalue_product(self):
        for alpha in (0.4, 0.7):
            js = np.round(np.arange(0.05, 0.5001, 0.05), 12)
            for j in js:
                sigma = partial_transpose_b(build_output_state(alpha, float(j)))
                _, w4 = w_direct(build_output_state(alpha, float(j)))
                assert abs(w4 - np.prod(eig_sym4(sigma))) <= 1e-10
