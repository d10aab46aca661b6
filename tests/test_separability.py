import math
from fractions import Fraction

import numpy as np
import pytest

from clonecorr import (JInterval, build_output_batch, build_output_state,
                       check_machine_constraints, classify, clone_fidelity, eig_sym4,
                       jacobi_eigvals, partial_transpose_b, ppt_data, principal_minor,
                       separable_intervals, valid_j_range, w3_closed, w4_closed)
from clonecorr.errors import DomainError
from clonecorr.separability import scan_grid
from oracles import bell_phi_plus, separable_intervals_scan

# reference separability windows (3-decimal endpoints, +-0.002 comparison)
REFERENCE = {0.6: (0.196, 0.238), 0.7: (0.191, 0.250), 0.8: (0.196, 0.238)}
# alpha^2 (1 - alpha^2) = 27/128 at the two onsets of the separable window
ONSETS = tuple(math.sqrt((1 + s * math.sqrt(5 / 32)) / 2) for s in (-1, 1))


def exact_k(alpha):
    """alpha^2 (1 - alpha^2) of the float alpha, as a Fraction."""
    a2 = Fraction(alpha) ** 2
    return a2 * (1 - a2)


def exact_g(k, j):
    """g(j) = k (1-2j)^2 (6j-1) - 2j^3 in exact rational arithmetic."""
    j = Fraction(j)
    return k * (1 - 2 * j) ** 2 * (6 * j - 1) - 2 * j ** 3


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


class TestNumpyScalarJ:
    def test_same_results_as_float(self):
        # j goes through float(j): numpy scalars and ints give a float's bits and types
        for j, plain in ((np.float64(0.22), 0.22), (0, 0.0)):
            for f in (w3_closed, w4_closed, clone_fidelity):
                assert type(f(0.7, j)) is float and f(0.7, j) == f(0.7, plain)
            assert check_machine_constraints(j) == check_machine_constraints(plain)
            assert type(check_machine_constraints(j).j) is float
        assert classify(0.7, np.float64(0.22)) == classify(0.7, 0.22)


class TestWDirect:
    """W3 and W4 as minors of the partial transpose, from ppt_data."""

    def test_matches_closed_forms_at_hand_point(self):
        w3, w4, _ = ppt_data(build_output_state(0.6, 0.2))
        assert abs(w3 - w3_closed(0.6, 0.2)) <= 1e-12
        assert abs(w4 - w4_closed(0.6, 0.2)) <= 1e-12
        assert abs(w3 - 3.456e-4) <= 1e-12
        assert abs(w4 - 5.888e-5) <= 1e-12

    def test_bell_state(self):
        sigma = partial_transpose_b(bell_phi_plus())
        np.testing.assert_allclose(eig_sym4(sigma), [0.5, 0.5, 0.5, -0.5],
                                   rtol=0, atol=1e-14)
        _, w4, _ = ppt_data(bell_phi_plus())
        assert w4 == pytest.approx(-1 / 16, abs=1e-15)

    def test_diagonal_state(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            d = rng.dirichlet([1.0] * 4)
            w3, w4, _ = ppt_data(np.diag(d))
            assert w3 == pytest.approx(d[0] * d[1] * d[2], abs=1e-15)
            assert w4 == pytest.approx(np.prod(d), abs=1e-15)
            assert w3 >= 0.0 and w4 >= 0.0

    def test_random_agreement_with_closed_forms(self):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            alpha, j = rng.uniform(0, 1), rng.uniform(0, 0.5)
            w3, w4, _ = ppt_data(build_output_state(alpha, j))
            assert abs(w3 - w3_closed(alpha, j)) <= 1e-12
            assert abs(w4 - w4_closed(alpha, j)) <= 1e-12


class TestPptData:
    def test_stack_matches_minors_and_spectrum_per_state(self):
        # reference: principal minors and the spectrum of each state on its own,
        # the spectrum as a one-matrix Jacobi stack like ppt_data's; the LAPACK
        # eig_sym4 agrees to 1e-14
        js = np.round(np.arange(0.0, 0.5001, 0.025), 12)
        rhos = build_output_batch(0.7, js)
        w3, w4, min_ppt = ppt_data(rhos)
        assert w3.shape == w4.shape == min_ppt.shape == js.shape
        for k, rho in enumerate(rhos):
            sigma = partial_transpose_b(rho)
            assert w3[k] == principal_minor(sigma, 3)
            assert w4[k] == principal_minor(sigma, 4)
            assert min_ppt[k] == jacobi_eigvals(sigma[None])[0, -1]
            assert abs(min_ppt[k] - eig_sym4(sigma)[-1]) <= 1e-14
            assert abs(w3[k] - w3_closed(0.7, js[k])) <= 1e-15
            assert abs(w4[k] - w4_closed(0.7, js[k])) <= 1e-15

    def test_empty_stack_gives_empty_arrays(self):
        for x in ppt_data(np.zeros((0, 4, 4))):
            assert x.shape == (0,)

    def test_single_state_matches_jacobi_stack_row(self):
        # one state takes its PPT spectrum from LAPACK (eig_sym4), a stack from
        # Jacobi: at the alpha = 0.7 window edges +-1e-9 and at random physical
        # points they agree to 1e-15 and give the same verdict
        [window] = separable_intervals(0.7)
        points = [(0.7, j + s) for j in (window.lo, window.hi) for s in (-1e-9, 1e-9)]
        rng = np.random.default_rng(12)
        for alpha in rng.uniform(-1.0, 1.0, 200):
            points.append((alpha, rng.uniform(*valid_j_range(alpha))))
        for alpha, j in points:
            rho = build_output_state(alpha, j)
            w3, w4, min_ppt = ppt_data(rho)
            stack_w3, stack_w4, stack_min = ppt_data(rho[None])
            assert w3 == stack_w3[0] and w4 == stack_w4[0]
            assert min_ppt == eig_sym4(partial_transpose_b(rho))[-1]
            assert abs(min_ppt - stack_min[0]) <= 1e-15, (alpha, j)
            verdict = classify(alpha, j)
            assert verdict.min_ppt_eigenvalue == min_ppt
            want = "Separable" if stack_min[0] >= -1e-10 else "Entangled"
            assert verdict.classification == want, (alpha, j)

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
        # no separable j > 0; at alpha = 1 the state at j = 0 is |00><00|, a product
        assert separable_intervals(alpha) == ([JInterval(0.0, 0.0)] if alpha == 1.0 else [])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0])
    def test_product_rows_are_separable_at_j_zero_only(self, alpha):
        # k = 0, so g(j) = -2j^3; rho at j = 0 is |11><11| or |00><00|
        assert separable_intervals(alpha) == [JInterval(0.0, 0.0)]
        assert classify(alpha, 0.0).classification == "Separable"
        assert classify(alpha, 1e-3).classification == "Entangled"

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
        # 0.5499), 0.8352 its end on the beta side; 0.54987/0.54988 and
        # 0.83524/0.83525 bracket the onsets at 0.5498706 and 0.8352499
        # (windows about 6e-4 and 8e-4 wide on the inner side)
        rng = np.random.default_rng(7)
        stratified = np.round((np.arange(40) + rng.uniform(size=40)) / 40, 4)
        for alpha in [0.0, 1.0, 0.5498, 0.5499, 0.6, 0.7, 0.8, 0.8352, *stratified,
                      0.54987, 0.54988, 0.83524, 0.83525]:
            got = [(iv.lo, iv.hi) for iv in separable_intervals(alpha)]
            # the scan starts at j = 1e-4, so it cannot see the separable j = 0
            # of alpha in {0, 1}; there the exact set is the point j = 0
            want = [(0.0, 0.0)] if alpha in (0.0, 1.0) else separable_intervals_scan(alpha)
            assert len(got) == len(want), f"alpha={alpha}: {got} vs {want}"
            for iv, ref in zip(got, want):
                assert np.allclose(iv, ref, rtol=0.0, atol=1e-6), f"alpha={alpha}: {got} vs {want}"

    @pytest.mark.parametrize("onset", ONSETS)
    def test_dense_sweep_across_onset(self, onset):
        # 10^4 alphas within 1e-6 of an onset plus the 200 floats nearest
        # to it: no DomainError, ordered ends inside (1/6, 1/3), and a
        # window exactly when the exact k is at least 27/128
        alphas = np.linspace(onset - 1e-6, onset + 1e-6, 10_000).tolist()
        x = onset
        for _ in range(100):
            x = math.nextafter(x, 0.0)
        for _ in range(200):
            alphas.append(x)
            x = math.nextafter(x, 1.0)
        for alpha in alphas:
            intervals = separable_intervals(alpha)
            assert len(intervals) == (exact_k(alpha) >= Fraction(27, 128)), alpha
            for iv in intervals:
                assert 1 / 6 < iv.lo <= iv.hi < 1 / 3, (alpha, iv)

    def test_endpoints_within_a_few_ulp_of_exact_roots(self):
        # exact g, at the exact k of the float alpha, changes sign within
        # m ulp of every endpoint; m = 4, 16 or 128 as the window narrows.
        # Alphas above the onset at 0.8352 have no window.
        rng = np.random.default_rng(21)
        alphas = 0.55 + 0.29 * (np.arange(200) + rng.uniform(size=200)) / 200
        windows = [(alpha, iv) for alpha in alphas.tolist() for iv in separable_intervals(alpha)]
        assert len(windows) == np.count_nonzero(alphas < ONSETS[1])
        for alpha, iv in windows:
            width = iv.hi - iv.lo
            m = 4 if width >= 0.03 else 16 if width >= 0.01 else 128
            k = exact_k(alpha)
            for e in (iv.lo, iv.hi):
                step = m * math.ulp(e)
                assert exact_g(k, e - step) * exact_g(k, e + step) <= 0, (alpha, e, m)


class TestScanConsistency:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.6, 0.7, 0.9])
    def test_determinant_and_ppt_tests_agree(self, alpha):
        js, w3s, w4s, min_ppt = scan_grid(alpha, scan_step=1e-3)
        det_sep = (w3s >= 0.0) & (w4s >= 0.0)
        ppt_sep = min_ppt >= -1e-10
        disagree = det_sep != ppt_sep
        assert not disagree.any(), f"alpha={alpha}, j={js[disagree]}"

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
    def test_rejects_bad_scan_step(self, step):
        with pytest.raises(DomainError, match="scan_step"):
            scan_grid(0.7, scan_step=step)

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
                _, w4, _ = ppt_data(build_output_state(alpha, float(j)))
                assert abs(w4 - np.prod(eig_sym4(sigma))) <= 1e-10
