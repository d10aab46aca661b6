import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from clonecorr import (build_output_batch, build_output_state,
                       conditional_entropy, conditional_entropy_curve, discord_at,
                       discord_min, discord_surface, mutual_info_i, mutual_info_j,
                       valid_j_range)
import clonecorr.discord as discord_module
from clonecorr.discord import DiscordResult
from clonecorr import hermat
from clonecorr.hermat import (eig_herm2, eig_sym4, jacobi_eigvals, partial_trace, plogp,
                             validate_state, vn_entropy)
from clonecorr.errors import DomainError, InvalidStateError
from clonecorr.search import golden_min
from oracles import (bell_phi_plus, conditional_entropy_at_signed, conditional_entropy_curve_complex,
                     conditional_entropy_curve_unselected, conditional_entropy_projector,
                     curve_all_passes, discord_grid_oracle, entropy_bits, phase_scan_loop,
                     random_product_state, random_sym_state4, same_bits, swap_qubits)

# Regression constants, frozen from the projector-based oracles in oracles.py
# (dense 20001-point t grid plus golden refinement, run once at development
# time); see the class docstrings for which point each belongs to.
COND_ENTROPY_A05_J03_T0 = 0.8258372290990348
DISCORD_AT_A05_J03_T0 = 0.5465402061388536
MUTUAL_J_UNIVERSAL = 0.38174900924221644
DISCORD_MIN_UNIVERSAL = 0.281774347176620
DISCORD_MIN_A07_J022 = 0.314734479368055

CLASSICAL_CORRELATED = np.diag([0.5, 0.0, 0.0, 0.5])
# a classical state whose eigenvalues dip to -0.9e-10, within the floor of
# -1e-10, while clone a's reduced state dips to -1.8e-10, below it
FLOOR_STATE = np.diag([0.5 + 0.9e-10, 0.5 + 0.9e-10, -0.9e-10, -0.9e-10])


def product_state():
    a = np.array([[0.7, 0.2], [0.2, 0.3]])
    b = np.array([[0.6, -0.1], [-0.1, 0.4]])
    return np.kron(a, b), a, b


def clamp_state():
    """(rho, t, phi) at which rad^2 rounds below 0 in the phase rows.

    r_a = -T m at (t, phi), so outcome + leaves clone a in I/2 and
    rad^2 = A + B cos(phi) + C cos(phi)^2 cancels O(1) terms to 0; here it
    rounds below 0, where only the clamp keeps sqrt from a NaN.
    """
    t, phi, txx, tzz = 0.05, 0.1, 0.4, 0.4
    sx, sz, i2 = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]), np.eye(2)
    ax, az = -txx * np.sin(2 * t) * np.cos(phi), -tzz * np.cos(2 * t)
    rho = (np.eye(4) + ax * np.kron(sx, i2) + az * np.kron(sz, i2)
           + txx * np.kron(sx, sx) + tzz * np.kron(sz, sz)) / 4
    return rho, t, phi


def oracle_states():
    """Random real symmetric states, product states and copier stacks from j = 0.

    The stacks include the unphysical j in [0, 1/6), where conditional
    spectra go negative and branches can be degenerate.
    """
    rng = np.random.default_rng(31)
    states = [random_sym_state4(rng) for _ in range(40)]
    states += [random_product_state(rng) for _ in range(40)]
    js = np.r_[np.linspace(0.0, 0.5, 41), rng.uniform(0.0, 1 / 6, 10)]
    stacks = [build_output_batch(alpha, js) for alpha in (0.0, 0.05, 0.3, 2 ** -0.5, 0.9, 1.0)]
    return states + stacks


def phase_scan_reference(rho, curve=conditional_entropy_curve, grid_points=721,
                         refine_tol=1e-9):
    """discord_min(rho, scan_phase=True) rebuilt on the per-phase loop's grid point.

    The grid goes through curve; the refinement, like discord_min's, through
    the scalar Bloch-form evaluator, and H(a) and H(b) through the package's
    Bloch-form entropies (TestMarginalEntropies checks them against eigvalsh).
    """
    best_t, best_phi, best_h = phase_scan_loop(rho, grid_points, curve)
    bloch = discord_module._bloch(rho)
    h_along = discord_module._conditional_entropy_at

    dt, dphi = (np.pi / 2) / grid_points, np.pi / grid_points
    best_t, best_h = golden_min(h_along(bloch, phi=best_phi), best_t - dt, best_t + dt,
                                refine_tol)
    best_phi, best_h = golden_min(h_along(bloch, t=best_t), best_phi - dphi,
                                  best_phi + dphi, refine_tol)
    best_t, best_h = golden_min(h_along(bloch, phi=best_phi), best_t - dt, best_t + dt,
                                refine_tol)
    ha, hb = discord_module._marginal_entropies(bloch)
    hab = vn_entropy(validate_state(rho))
    return DiscordResult(discord=hb - hab + best_h, optimal_t=best_t % (np.pi / 2),
                         optimal_phi=best_phi, entropy_joint=hab, entropy_a=ha, entropy_b=hb,
                         conditional_entropy=best_h, mutual_info_j=ha + hb - hab,
                         mutual_info_i=ha - best_h)


class TestConditionalEntropy:
    def test_product_state_gives_marginal_entropy(self):
        rho, a, _ = product_state()
        ha = vn_entropy(np.linalg.eigvalsh(a))
        for t in np.linspace(0, np.pi / 2, 7):
            assert conditional_entropy(rho, t) == pytest.approx(
                ha, abs=1e-12)

    def test_bell_state_is_zero(self):
        for t in (0.0, 0.4, 1.2):
            assert abs(conditional_entropy(bell_phi_plus(), t)) <= 1e-12

    def test_frozen_regression_alpha05_j03_t0(self):
        rho = build_output_state(0.5, 0.3)
        value = conditional_entropy(rho, 0.0)
        assert value == pytest.approx(COND_ENTROPY_A05_J03_T0, abs=1e-12)

    def test_plain_number_forms_are_bitwise(self):
        # the angles are plain numbers, phi defaulting to the real family's 0.0
        rng = np.random.default_rng(22)
        for _ in range(20):
            rho = build_output_state(rng.uniform(0, 1), rng.uniform(1 / 6, 0.5))
            t, phi = rng.uniform(0, np.pi), rng.uniform(0, np.pi)
            assert discord_at(rho, t) == discord_at(rho, t, 0.0)
            assert conditional_entropy(rho, t) == conditional_entropy(rho, t, 0.0)
            assert (conditional_entropy(rho, t, phi)
                    == conditional_entropy_curve(rho, [t], phi)[0])
        # one basis per call: an array of phases is refused, not cut to its first entry
        with pytest.raises(TypeError):
            conditional_entropy(rho, t, [0.0, phi])

    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            rho = build_output_state(rng.uniform(0, 1), rng.uniform(1 / 6, 0.5))
            t, phi = rng.uniform(0, np.pi), rng.uniform(0, np.pi)
            assert conditional_entropy(rho, t, phi) == pytest.approx(
                conditional_entropy_projector(rho, t, phi), abs=1e-12)

    def test_period_pi_over_2(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            rho = build_output_state(rng.uniform(0, 1), rng.uniform(1 / 6, 0.5))
            t = rng.uniform(0, np.pi)
            curve = conditional_entropy_curve(rho, [t, t + np.pi / 2])
            assert abs(curve[0] - curve[1]) <= 1e-12

    def test_stack_matches_single_states(self):
        rhos = build_output_batch(0.7, [[0.1, 0.2, 0.3], [0.35, 0.4, 0.5]])
        ts = np.linspace(0.0, np.pi / 2, 11)
        curves = conditional_entropy_curve(rhos, ts, 0.3)
        assert curves.shape == (2, 3, 11)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(curves[idx], conditional_entropy_curve(rhos[idx], ts, 0.3))

    def test_phase_block_matches_per_phase_calls_bitwise(self):
        rho = build_output_state(0.7, 0.22)
        ts = np.linspace(0.0, np.pi / 2, 97, endpoint=False)
        phis = np.linspace(0.0, np.pi, 13, endpoint=False)   # phis[0] == 0: the real branch
        rows = np.stack([conditional_entropy_curve(rho, ts, phi) for phi in phis])
        block = conditional_entropy_curve(rho, np.broadcast_to(ts, rows.shape), phis[:, None])
        assert block.shape == (13, 97)
        assert np.array_equal(block, rows)
        assert np.array_equal(conditional_entropy_curve(rho, ts, phis[:, None]), rows)

    def test_broadcast_shapes_with_state_stack(self):
        rhos = build_output_batch(0.6, [[0.2, 0.3, 0.4], [0.25, 0.35, 0.45]])
        ts = np.linspace(0.0, np.pi / 2, 7)
        phis = np.array([[0.0], [0.4], [2.5]])
        curves = conditional_entropy_curve(rhos, ts, phis)
        assert curves.shape == (2, 3, 3, 7)
        for idx in np.ndindex(2, 3):
            for k, phi in enumerate(phis[:, 0]):
                assert np.array_equal(curves[idx][k], conditional_entropy_curve(rhos[idx], ts, phi))
        # equal-shaped ts and phi pair up elementwise
        pairs = conditional_entropy_curve(rhos, ts[:3], phis[:, 0])
        assert pairs.shape == (2, 3, 3)
        for k in range(3):
            assert np.array_equal(pairs[..., k],
                                  conditional_entropy_curve(rhos, [ts[k]], phis[k, 0])[..., 0])

    def test_scalar_phi_keeps_shapes(self):
        rho = build_output_state(0.7, 0.22)
        rhos = build_output_batch(0.7, [0.2, 0.3])
        ts = np.linspace(0.0, np.pi / 2, 5)
        assert conditional_entropy_curve(rho, ts).shape == (5,)
        assert conditional_entropy_curve(rho, ts, 0.3).shape == (5,)
        assert conditional_entropy_curve(rho, 0.4, 0.3).shape == (1,)
        assert conditional_entropy_curve(rhos, ts, 0.3).shape == (2, 5)

    def test_real_family_matches_complex_oracle_bitwise(self):
        ts = np.r_[np.linspace(0.0, np.pi, 37), np.pi / 4, 0.3]
        phis = np.array([[0.0], [0.9], [0.0], [2.5]])
        for k, rho in enumerate(oracle_states()):
            want = conditional_entropy_curve_complex(rho, ts)
            assert same_bits(conditional_entropy_curve(rho, ts), want), k
            assert same_bits(conditional_entropy_curve(rho, ts, 0.0), want), k
            # the phi = 0 rows of an array phi, with ts as a row and at full shape
            for t_arg in (ts, np.broadcast_to(ts, (4, ts.size))):
                rows = conditional_entropy_curve(rho, t_arg, phis)
                assert same_bits(rows[..., 0, :], want) and same_bits(rows[..., 2, :], want), k

    def test_phase_rows_match_complex_oracle(self):
        ts = np.linspace(0.0, np.pi, 37)
        phis = np.linspace(0.0, 2 * np.pi, 11)[:, None]
        for k, rho in enumerate(oracle_states()):
            got = conditional_entropy_curve(rho, ts, phis)
            want = conditional_entropy_curve_complex(rho, ts, phis)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14, k
            for phi in (0.7, -2.0):
                diff = (conditional_entropy_curve(rho, ts, phi)
                        - conditional_entropy_curve_complex(rho, ts, phi))
                assert np.max(np.abs(diff)) <= 1e-14, k

    def test_phase_rows_match_complex_oracle_on_copier_grid(self):
        # 41 j on [0, 1/2], the unphysical j < 1/6 included, 97 t and 24 phi over
        # discord_min's scanned range [0, pi)
        js = np.linspace(0.0, 0.5, 41)
        ts = np.linspace(0.0, np.pi / 2, 97)
        phis = np.linspace(0.0, np.pi, 24, endpoint=False)[:, None]
        for alpha in (0.0, 0.3, 2 ** -0.5, 0.9, 1.0):
            rhos = build_output_batch(alpha, js)
            diff = (conditional_entropy_curve(rhos, ts, phis)
                    - conditional_entropy_curve_complex(rhos, ts, phis))
            assert np.max(np.abs(diff)) <= 1e-14, alpha
        # phi = pi is left out above: at j = 0 there, the complex oracle is itself
        # 1.9e-14 off the 40-digit value (mpmath, at these float inputs) at t =
        # ts[47], where a one-ulp change of t moves H by 4e-14. The kernel is
        # within 1e-15 of it
        rho = build_output_state(2 ** -0.5, 0.0)
        got = conditional_entropy_curve(rho, ts[47], np.pi)[0]
        assert abs(got - -1.659049792390732) <= 1e-15

    def test_phase_coefficient_cache_is_invisible(self):
        # the per-(outcome, state, t) coefficients of the last phase query are
        # cached; every call must equal a computation from an empty cache
        def fresh(rho, ts, phi):
            discord_module._phase_cache = (None,) * 4
            return conditional_entropy_curve(rho, ts, phi)

        rho = build_output_state(0.7, 0.22)
        other = build_output_state(0.3, 0.4)
        stack = build_output_batch(0.6, [0.1, 0.3, 0.45])
        ts = np.linspace(0.0, np.pi / 2, 41, endpoint=False)
        phis = np.linspace(0.1, np.pi, 5)[:, None]
        mutable = rho.copy()
        calls = [(rho, ts, phis), (rho, ts, phis), (other, ts, phis), (rho, ts, phis),
                 (rho, ts, phis[:, :, None]), (rho, ts[::-1], phis),   # angle rank 3, then 2
                 (rho, ts[:, None], phis.T),   # the same ts bytes as a column
                 (rho, np.broadcast_to(ts, (5, 41)), phis), (stack, ts, phis),
                 (stack[1], ts, phis), (rho[None], ts, phis), (rho, ts, phis),
                 (mutable, ts, phis), (mutable, ts, 0.4)]
        for k, (state, t_arg, phi) in enumerate(calls):
            if k == len(calls) - 1:
                mutable[:] = other   # in place, between two calls on the same array
            got = conditional_entropy_curve(state, t_arg, phi)
            assert same_bits(got, fresh(state, t_arg, phi)), k
        # a repeated query reuses the cached coefficients
        cached = discord_module._phase_cache[1]
        conditional_entropy_curve(mutable, ts, 1.1)
        assert discord_module._phase_cache[1] is cached

    def test_ket_cache_is_invisible(self, monkeypatch):
        # the kets of the last angle array are cached, keyed on its bytes: every
        # call must equal one from empty caches, and an array changed in place misses
        def cold(t_arg, phi):
            with monkeypatch.context() as m:
                m.setattr(discord_module, "_ket_cache", (None, None))
                m.setattr(discord_module, "_phase_cache", (None,) * 4)
                return conditional_entropy_curve(rho, t_arg, phi)

        monkeypatch.setattr(discord_module, "_ket_cache", (None, None))
        rho = build_output_state(0.7, 0.22)
        ts = np.linspace(0.0, np.pi / 2, 41, endpoint=False)
        other = ts + 0.01   # the same shape, other values
        for phi in (0.0, np.array([[0.0], [0.4]])):
            mutable = ts.copy()
            for k, t_arg in enumerate((ts, other, ts, other, mutable, mutable)):
                if k == 5:
                    mutable[:] = other   # in place, between two calls on the same array
                got = conditional_entropy_curve(rho, t_arg, phi)
                assert same_bits(got, cold(t_arg, phi)), (k, np.ndim(phi))

    def test_cached_kets_and_grids_are_read_only(self):
        ts = np.linspace(0.0, np.pi / 2, 41, endpoint=False)
        kets = discord_module._ket_products(ts, 0, 1)
        assert discord_module._ket_products(ts.copy(), 0, 1) is kets   # equal bytes hit
        grids = (discord_module._T_GRID, discord_module._PHI_GRID)
        for stop, grid in zip((np.pi / 2, np.pi), grids):
            assert same_bits(grid, np.linspace(0.0, stop, discord_module.GRID_POINTS,
                                               endpoint=False))
        for array in kets + grids + (discord_module._T_ROWS,):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_one_ket_set_serves_plain_and_phase_queries_and_surfaces(self):
        # discord_min's plain and phase queries share one angle array, and so
        # do the surfaces of one t grid at every alpha
        discord_min(build_output_state(0.7, 0.22))
        kets = discord_module._ket_cache[1]
        discord_min(build_output_state(0.3, 0.4), scan_phase=True)
        discord_min(build_output_state(0.5, 0.3))
        assert discord_module._ket_cache[1] is kets
        ts = np.linspace(0.0, np.pi / 2, 13)
        discord_surface(0.3, [0.2, 0.3], ts)
        kets = discord_module._ket_cache[1]
        discord_surface(0.7, [0.2, 0.3], ts)
        assert discord_module._ket_cache[1] is kets

    def test_phase_rows_are_finite(self):
        ts = np.linspace(0.0, np.pi, 121)
        phis = np.linspace(0.0, 2 * np.pi, 48)[:, None]
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            for k, rho in enumerate(oracle_states()):
                assert np.isfinite(conditional_entropy_curve(rho, ts, phis)).all(), k
        rho, t, phi = clamp_state()
        assert np.linalg.eigvalsh(rho)[0] > 0
        discord_module._phase_cache = (None,) * 4
        got = conditional_entropy_curve(rho, t, phi)
        a, b, c2 = discord_module._phase_cache[1][4:, 0, 0]
        assert (c2 * np.cos(phi) + b) * np.cos(phi) + a < 0.0
        assert np.isfinite(got).all()
        assert abs(got[0] - conditional_entropy_curve_complex(rho, [t], phi)[0]) <= 1e-14

    def test_phase_rows_equal_the_unselected_passes_bitwise(self):
        # the phase rows decide once per query whether a state can have a dead
        # branch or a rad^2 below 0, and per call whether some x- is <= 0, and
        # skip the masking, clamping and fix-up passes it cannot need. On
        # discord_min's grid, in its blocks and its last partial block, every
        # entry equals a run of every pass, and both sides of each decision run
        ts = np.linspace(0.0, np.pi / 2, discord_module.GRID_POINTS, endpoint=False)
        phis = np.linspace(0.0, np.pi, discord_module.GRID_POINTS, endpoint=False)
        tail = len(phis) % discord_module._PHASE_BLOCK or discord_module._PHASE_BLOCK
        blocks = [phis[5:6], phis[:16], phis[32:64], phis[-tail:]]
        copier_js = [1 / 6, 0.2, 0.25, 0.35, 0.5]
        states = [rho for alpha in (0.0, 1.0, -1.0, 2 ** -0.5, 1e-5, 0.3, 0.7)
                  for rho in build_output_batch(alpha, copier_js)]
        # not positive semidefinite: the sweep's j < 1/6
        states += list(build_output_batch(0.7, [0.0, 0.05, 0.1, 0.16]))
        states += list(build_output_batch(1e-5, [0.0, 0.1]))
        # pure products, clone b in |0>: a dead branch at t = 0
        up = np.diag([1.0, 0.0])
        plus = np.full((2, 2), 0.5)
        states += [np.kron(up, up), np.kron(plus, up), np.kron(np.diag([0.2, 0.8]), up)]
        states += [bell_phi_plus(), np.eye(4) / 4, np.zeros((4, 4)), clamp_state()[0]]
        live, unclamped, low = set(), set(), set()
        for k, rho in enumerate(states):
            for block in blocks:
                t_arg = np.broadcast_to(ts, (len(block), ts.size))
                got = conditional_entropy_curve(rho, t_arg, block[:, None])
                skips = discord_module._phase_cache[2:]
                want, (dead, negative, fixup) = conditional_entropy_curve_unselected(
                    rho, t_arg, block[:, None])
                assert same_bits(got, want), (k, len(block))
                # a skipped pass is one that could change no entry
                assert not (skips[0] and dead) and not (skips[1] and negative), k
                live.add(skips[0])
                unclamped.add(skips[1])
                low.add(fixup)
        assert live == unclamped == low == {False, True}
        # the clamp state's negative rad^2 is at its own (t, phi)
        rho, t, phi = clamp_state()
        got = conditional_entropy_curve(rho, t, phi)
        assert not discord_module._phase_cache[3]
        want, (_, negative, _) = conditional_entropy_curve_unselected(rho, t, phi)
        assert negative and same_bits(got, want)

    def test_scalar_evaluator_matches_kernel_and_complex_oracle(self):
        # discord_min's refinement evaluator, in Bloch form. Skipped: states
        # that are not positive semidefinite while clone b's marginal is pure
        # (the copier at j = 0). There p reaches 0 while the clipped spectrum
        # keeps |r_a +- T m| / 4, so H grows like log(1/p) and two roundings of
        # p disagree by up to 1e-11 bits
        ts = np.linspace(0.0, np.pi, 73)
        rhos = [rho for states in oracle_states() for rho in states.reshape(-1, 4, 4)]
        checked = 0
        for k, rho in enumerate(rhos):
            if (np.linalg.eigvalsh(rho)[0] < -1e-10
                    and eig_herm2(partial_trace(rho, "b"))[-1] < 1e-12):
                continue
            bloch = discord_module._bloch(rho)
            for phi in (0.0, 0.7, np.pi / 2, -2.0):
                got = np.array([discord_module._conditional_entropy_at(bloch, phi=phi)(t)
                                for t in ts])
                # the phase-refinement evaluator is the same arithmetic
                assert [discord_module._conditional_entropy_at(bloch, t=t)(phi)
                        for t in ts] == got.tolist()
                for kernel in (conditional_entropy_curve, conditional_entropy_curve_complex):
                    assert np.max(np.abs(got - kernel(rho, ts, phi))) <= 1e-14, (k, phi)
            checked += 1
        assert checked == len(rhos) - 4
        # a branch with 0 < p <= DEGENERATE_P contributes 0 in both (here p = 5e-13
        # and clone a's conditional state is I/2, worth 5e-13 bits if counted),
        # in the real family and in a phase row
        rho = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
        t = np.arcsin(np.sqrt(5e-13))
        for phi in (0.0, 0.7):
            got = discord_module._conditional_entropy_at(discord_module._bloch(rho), phi=phi)(t)
            assert abs(got - conditional_entropy_curve(rho, [t], phi)[0]) <= 1e-15, phi

    def test_phase_rows_are_elementwise(self):
        # a block of phase rows is the per-phase calls side by side, whether ts
        # is a row, a broadcast view or materialized, and the phi = 0 rows of a
        # mixed block are the real family's
        ts = np.r_[np.linspace(0.0, np.pi, 37), np.pi / 4, 0.3]
        phis = np.array([0.9, -2.0, np.pi / 2, np.pi, 1e-9])[:, None]
        mixed = np.array([0.0, 0.9, -0.0, 2.5, 0.0])[:, None]
        view = np.broadcast_to(ts, (len(phis), ts.size))
        for k, rho in enumerate(oracle_states()):
            rows = np.stack([conditional_entropy_curve(rho, ts, phi) for phi in phis[:, 0]], -2)
            for t_arg in (ts, view, np.array(view)):
                assert same_bits(conditional_entropy_curve(rho, t_arg, phis), rows), k
            block = conditional_entropy_curve(rho, view, mixed)
            real = conditional_entropy_curve(rho, ts)
            for r, phi in enumerate(mixed[:, 0]):
                want = real if phi == 0.0 else conditional_entropy_curve(rho, ts, phi)
                assert same_bits(block[..., r, :], want), (k, r)

    def test_all_real_phase_block_is_the_real_row_bitwise(self):
        # phi all +0.0 or all -0.0 over B > 1 rows: the real family alone,
        # its (outcome, state, t) terms broadcast up to the full (B, t) block
        ts = np.r_[np.linspace(0.0, np.pi, 37), np.pi / 4, 0.3]
        for k, rho in enumerate(oracle_states()):
            real = conditional_entropy_curve(rho, ts)
            for phis in (np.zeros((5, 1)), np.full((3, 1), -0.0)):
                want = np.stack([real] * len(phis), -2)
                for t_arg in (ts, np.broadcast_to(ts, (len(phis), ts.size))):
                    assert same_bits(conditional_entropy_curve(rho, t_arg, phis), want), k

    @pytest.mark.parametrize("shape", [(2, 8), (16,), (1, 16), (3, 4, 2)])
    def test_curve_refuses_a_non_4x4_shape(self, shape):
        for phi in (0.0, 0.4):
            with pytest.raises(InvalidStateError, match=r"expected \(\.\.\., 4, 4\), got shape"):
                conditional_entropy_curve(np.full(shape, 1 / 16), [0.3], phi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_curve_refuses_a_non_finite_state(self, bad):
        rhos = build_output_batch(0.7, [0.2, 0.3])
        rhos[1, 0, 3] = bad
        for rho in (rhos, rhos[1]):
            for phi in (0.0, 0.4):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(InvalidStateError, match="NaN or infinite"):
                        conditional_entropy_curve(rho, [0.3], phi)

    def test_broadcast_view_ts_matches_materialized(self):
        rho = build_output_state(0.7, 0.22)
        ts = np.linspace(0.0, np.pi / 2, 97, endpoint=False)
        phis = np.linspace(0.0, np.pi, 13, endpoint=False)[:, None]
        view = np.broadcast_to(ts, (13, 97))
        assert 0 in view.strides
        assert same_bits(conditional_entropy_curve(rho, view, phis),
                         conditional_entropy_curve(rho, np.array(view), phis))
        # stride-0 axes of phi and of a single-row ts
        assert same_bits(conditional_entropy_curve(rho, ts[:5], np.broadcast_to(0.4, (3, 5))),
                         conditional_entropy_curve(rho, ts[:5], np.full((3, 5), 0.4)))
        assert same_bits(conditional_entropy_curve(rho, np.broadcast_to(0.4, (3, 1)), phis[:3]),
                         conditional_entropy_curve(rho, np.full((3, 1), 0.4), phis[:3]))

    def test_result_is_not_overwritten_by_a_later_call(self):
        rho = build_output_state(0.7, 0.22)
        ts = np.linspace(0.0, np.pi / 2, 50)
        for phi in (0.0, np.array([[0.3], [1.1]])):
            first = conditional_entropy_curve(rho, ts, phi)
            kept = first.copy()
            conditional_entropy_curve(build_output_state(0.2, 0.4), ts + 0.1, phi)
            conditional_entropy_curve(rho, ts[::-1], phi)
            assert same_bits(first, kept)

    def test_continuity_in_t(self):
        rng = np.random.default_rng(27)
        delta = 1e-6
        for _ in range(50):
            rho = build_output_state(rng.uniform(0.05, 0.95), rng.uniform(1 / 6, 0.5))
            t = rng.uniform(0, np.pi / 2)
            curve = conditional_entropy_curve(rho, [t, t + delta])
            assert abs(curve[1] - curve[0]) <= 100 * delta


def lean_path_states():
    """Copier points, random real states of ranks 1 to 4, pure products and edge states.

    The pure products, the zero matrix and clamp_state have dead branches
    (p <= DEGENERATE_P) or conditional eigenvalues x <= 0 at some angles.
    """
    rng = np.random.default_rng(37)
    states = [build_output_state(alpha, j) for alpha in (0.0, 1.0, -1.0, 2 ** -0.5, 1e-5, 0.3, 0.7)
              for j in (1 / 6, 0.22, 1 / 3, 0.5)]
    for rank in range(1, 5):
        for _ in range(6):
            v = rng.standard_normal((4, rank))
            states.append(v @ v.T / np.trace(v @ v.T))
    for a, b in [(0.0, 0.0), (0.0, np.pi / 2), (np.pi / 4, 0.0)] + [tuple(rng.uniform(0, np.pi, 2))
                                                                   for _ in range(4)]:
        kets = [np.array([np.cos(x), np.sin(x)]) for x in (a, b)]
        states.append(np.kron(*(np.outer(u, u) for u in kets)))
    return states + [np.zeros((4, 4)), clamp_state()[0]]


class TestLeanPointPaths:
    """The point query's leaner paths equal the forms they replaced (tests/oracles.py) bit for bit."""

    @staticmethod
    def angles(grid, seed):
        # every fifth grid angle, the grid's ends and random angles beyond its range
        rng = np.random.default_rng(seed)
        return np.r_[grid[::5], grid[-1], rng.uniform(-1.0, 4.0, 40)].tolist()

    def test_scalar_evaluator_matches_signed_oracle(self):
        ts = self.angles(discord_module._T_GRID, 61)
        phis = self.angles(discord_module._PHI_GRID, 62)
        blochs = [discord_module._bloch(rho) for rho in lean_path_states()]
        # a NaN Bloch entry: p is NaN for both outcomes, and neither skips it (it adds nothing)
        blochs.append(np.zeros((4, 4)))
        blochs[-1][0, 0], blochs[-1][0, 3] = 1.0, np.nan
        for k, bloch in enumerate(blochs):
            for phi in (0.0, phis[7], phis[-3]):
                got = discord_module._conditional_entropy_at(bloch, phi=phi)
                want = conditional_entropy_at_signed(bloch, phi=phi)
                assert same_bits([got(t) for t in ts], [want(t) for t in ts]), (k, phi)
            for t in (ts[3], ts[-5]):
                got = discord_module._conditional_entropy_at(bloch, t=t)
                want = conditional_entropy_at_signed(bloch, t=t)
                assert same_bits([got(phi) for phi in phis], [want(phi) for phi in phis]), (k, t)

    def test_real_family_matches_all_passes_oracle(self):
        ts = np.array(self.angles(discord_module._T_GRID, 63))
        states = lean_path_states()
        needs = set()
        for k, rho in enumerate(states + [np.stack(states), np.stack(states[:28])]):
            want, need = curve_all_passes(rho, ts, ts.shape)
            needs.add(need)
            assert same_bits(conditional_entropy_curve(rho, ts), want), k
        # each pass is both needed and skipped somewhere: dead branches, x <= 0 entries
        assert {dead for dead, _ in needs} == {low for _, low in needs} == {False, True}


class TestMutualInformation:
    def test_product_state(self):
        rho, _, _ = product_state()
        assert abs(mutual_info_j(rho)) <= 1e-12
        assert abs(mutual_info_i(rho, 0.7)) <= 1e-12

    def test_bell_state(self):
        assert mutual_info_j(bell_phi_plus()) == pytest.approx(2.0, abs=1e-12)
        assert mutual_info_i(bell_phi_plus(), 0.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_classically_correlated(self):
        assert mutual_info_i(CLASSICAL_CORRELATED, 0.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_universal_point_frozen(self):
        rho = build_output_state(1 / np.sqrt(2), 1 / 6)
        assert mutual_info_j(rho) == pytest.approx(MUTUAL_J_UNIVERSAL, abs=1e-12)


class TestMarginalEntropies:
    """H(a) and H(b) from rho's Bloch matrix, discord._marginal_entropies."""

    @staticmethod
    def oracle_gap(rho):
        """Largest gap to entropy_bits of eigvalsh of tr_b rho and tr_a rho, traced by hand."""
        got = discord_module._marginal_entropies(discord_module._bloch(rho))
        traced = (rho[0::2, 0::2] + rho[1::2, 1::2], rho[:2, :2] + rho[2:, 2:])
        return max(abs(g - entropy_bits(np.linalg.eigvalsh(m))) for g, m in zip(got, traced))

    def test_agree_with_eigvalsh_of_the_traced_states(self):
        rng = np.random.default_rng(35)
        states = [rho for rho in oracle_states() if rho.ndim == 2]
        states += [random_sym_state4(rng) for _ in range(100)] + [np.eye(4) / 4]
        for rho in states:
            assert self.oracle_gap(rho) <= 1e-15

    def test_pure_products_agree_to_the_entropy_of_two_ulps(self):
        # a pure clone's eigenvalues round to within an ulp or two of 0, where
        # -x log2 x has unbounded slope: eigvalsh and the Bloch form each give
        # up to about 1e-14 bits there, against an exact 0. |r| can round
        # above the trace, which the Bloch form must survive
        rng = np.random.default_rng(35)
        eps = np.finfo(float).eps
        above = 0
        for _ in range(200):
            a, b = (np.array([np.cos(x), np.sin(x)]) for x in rng.uniform(0.0, 2 * np.pi, 2))
            rho = np.kron(np.outer(a, a), np.outer(b, b))
            bloch = discord_module._bloch(rho)
            above += max(math.hypot(*bloch[1:, 0]), math.hypot(*bloch[0, 1:])) > bloch[0, 0]
            assert self.oracle_gap(rho) <= -2 * eps * math.log2(2 * eps)
        assert above > 0

    def test_pure_products_have_nonnegative_entropies(self):
        # a pure clone's larger eigenvalue, or rho's, can round above 1, where
        # -x log2 x < 0; such a term adds 0
        rng = np.random.default_rng(36)
        for _ in range(300):
            a, b = (np.array([np.cos(x), np.sin(x)]) for x in rng.uniform(0.0, 2 * np.pi, 2))
            result = discord_min(np.kron(np.outer(a, a), np.outer(b, b)))
            assert min(result.entropy_a, result.entropy_b, result.entropy_joint) >= 0.0, (a, b)

    @pytest.mark.parametrize("j", [1 / 6, 0.22, 1 / 3, 0.5])
    def test_copier_clones_have_the_entropy_of_bloch_length_n(self, j):
        # r_a = r_b = n (2 alpha beta, 0, alpha^2 - beta^2), |r| = n = 1 - 2j,
        # the same for alpha, -alpha, beta and -beta (ROADMAP item 8)
        n = 1 - 2 * j
        h = entropy_bits([(1 - n) / 2, (1 + n) / 2])
        for a in (0.3, 0.7):
            b = math.sqrt(1 - a * a)
            for alpha in (a, -a, b, -b):
                result = discord_min(build_output_state(alpha, j))
                assert abs(result.entropy_a - h) <= 1e-15, alpha
                assert abs(result.entropy_b - h) <= 1e-15, alpha


class TestDiscordAt:
    def test_product_state_zero(self):
        rho, _, _ = product_state()
        for t in (0.0, 0.5, 1.3):
            assert abs(discord_at(rho, t)) <= 1e-12

    def test_classically_correlated_zero(self):
        assert abs(discord_at(CLASSICAL_CORRELATED, 0.0)) <= 1e-12

    def test_bell_state_one_bit(self):
        assert discord_at(bell_phi_plus(), 0.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_frozen_regression(self):
        rho = build_output_state(0.5, 0.3)
        assert discord_at(rho, 0.0) == pytest.approx(
            DISCORD_AT_A05_J03_T0, abs=1e-12)

    def test_equals_j_minus_i(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            rho = build_output_state(rng.uniform(0, 1), rng.uniform(1 / 6, 0.5))
            t, phi = rng.uniform(0, np.pi), rng.uniform(0, np.pi)
            lhs = discord_at(rho, t, phi)
            rhs = mutual_info_j(rho) - mutual_info_i(rho, t, phi)
            assert abs(lhs - rhs) <= 1e-12


class TestDiscordMin:
    def test_product_states_zero(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            rho = random_product_state(rng)
            result = discord_min(rho)
            assert abs(result.discord) <= 1e-9

    def test_bell_state_one_bit(self):
        result = discord_min(bell_phi_plus())
        assert result.discord == pytest.approx(1.0, abs=1e-9)

    def test_universal_point_frozen_regression(self):
        rho = build_output_state(1 / np.sqrt(2), 1 / 6)
        result = discord_min(rho)
        assert result.discord == pytest.approx(DISCORD_MIN_UNIVERSAL, abs=1e-9)
        assert result.discord > 1e-6
        # optimizer lands at t = 0 (mod pi/2) for the symmetric input
        assert min(result.optimal_t, np.pi / 2 - result.optimal_t) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 2 ** -0.5, 0.9, -0.6])
    def test_universal_cloner_is_the_same_for_every_alpha(self, alpha):
        # at j = 1/6, rho's spectrum is {2/3, 1/3, 0, 0} for every input, and the
        # discord is h(2/3) - S + h(sqrt(5)/3), h(x) the entropy of ((1 + x)/2, (1 - x)/2)
        def h(x):
            return -sum(p * math.log2(p) for p in ((1 + x) / 2, (1 - x) / 2))

        s = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
        exact = h(2 / 3) - s + h(math.sqrt(5) / 3)
        rho = build_output_state(alpha, 1 / 6)
        np.testing.assert_allclose(np.linalg.eigvalsh(rho), [0, 0, 1 / 3, 2 / 3],
                                   rtol=0, atol=1e-15)
        assert discord_min(rho).discord == pytest.approx(exact, abs=1e-9)
        assert discord_min(rho, scan_phase=True).discord == pytest.approx(exact, abs=1e-9)

    def test_separable_window_point_frozen_regression(self):
        rho = build_output_state(0.7, 0.22)
        result = discord_min(rho)
        assert result.discord == pytest.approx(DISCORD_MIN_A07_J022, abs=1e-9)

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(39)
        for _ in range(3):
            rho = build_output_state(rng.uniform(0.1, 0.9), rng.uniform(1 / 6, 0.5))
            oracle_value, _ = discord_grid_oracle(rho, npts=4001)
            result = discord_min(rho)
            assert result.discord <= oracle_value + 1e-12
            assert result.discord == pytest.approx(oracle_value, abs=1e-5)

    def test_result_fields_consistent(self):
        rho = build_output_state(0.8, 0.3)
        result = discord_min(rho)
        assert result.discord == pytest.approx(
            result.mutual_info_j - result.mutual_info_i, abs=1e-12)
        assert conditional_entropy(rho, result.optimal_t, result.optimal_phi) == pytest.approx(
            result.conditional_entropy, abs=1e-12)
        assert result.discord >= -1e-9

    def test_swap_side_equality(self):
        rho = build_output_state(0.35, 0.28)
        assert np.array_equal(swap_qubits(rho), rho)
        assert discord_min(swap_qubits(rho)).discord == discord_min(rho).discord

    def test_phase_scan_improves_asymmetric_input(self):
        # the y-axis correlation of the output is invisible to the real
        # (phi = 0) family; the phase scan must find a strictly lower value
        rho = build_output_state(0.9, 0.3)
        plain = discord_min(rho)
        scanned = discord_min(rho, scan_phase=True)
        assert scanned.discord <= plain.discord + 1e-12
        assert scanned.discord < plain.discord - 0.05
        assert scanned.discord >= -1e-9

    @pytest.mark.parametrize("alpha,j", [(0.7, 0.22), (2 ** -0.5, 0.3), (0.05, 0.3),
                                         (0.7, 1 / 6 + 1e-6), (0.7, 0.5)])
    def test_phase_scan_equals_per_phase_loop(self, alpha, j):
        rho = build_output_state(alpha, j)
        assert discord_min(rho, scan_phase=True) == phase_scan_reference(rho)

    def test_phase_scan_matches_closed_form(self):
        # the phase scan matches measuring sigma_y on clone b within 1e-8 bits
        # on these 24 points, D_full = h(n) - S(rho) + h(sqrt(n^2 + 4 j^2)) with
        # n = 1 - 2j and h(x) the entropy of a qubit of Bloch length x (ROADMAP
        # items 7 and 16); that sigma_y attains the projective discord is not
        # certified (item 6)
        def h(x):
            return vn_entropy(np.array([(1 + x) / 2, (1 - x) / 2]))

        for alpha in (0.3, 0.5, 0.6, 0.7, 0.8, 0.9):
            lo, hi = valid_j_range(alpha)
            for j in lo + (hi - lo) * np.array([0.1, 0.35, 0.6, 0.85]):
                rho = build_output_state(alpha, j)
                n = 1 - 2 * j
                exact = h(n) - vn_entropy(validate_state(rho)) + h(np.hypot(n, 2 * j))
                got = discord_min(rho, scan_phase=True).discord
                assert abs(got - exact) <= 1e-8, (alpha, j)

    def test_phase_scan_tie_rule(self, monkeypatch):
        # rounded to 0.01 bit, the grid ties within rows, within phase blocks
        # and across blocks; first phase row, then first t, must still win
        def coarse(rho, ts, phi=0.0):
            return np.round(conditional_entropy_curve(rho, ts, phi), 2)

        monkeypatch.setattr(discord_module, "conditional_entropy_curve", coarse)
        rho = build_output_state(2 ** -0.5, 0.3)   # first minimal rows 326, 327 share a block
        assert discord_min(rho, scan_phase=True) == phase_scan_reference(rho, coarse)

    def test_grid_points_is_not_a_keyword(self):
        # the grid has the module constant GRID_POINTS angles per axis
        assert discord_module.GRID_POINTS == 721
        with pytest.raises(TypeError):
            discord_min(bell_phi_plus(), grid_points=721)

    @pytest.mark.parametrize("grid_points", [100.0, 65.5, float("nan"), "721", None])
    def test_rejects_non_integer_grid(self, grid_points):
        # scan_phase is keyword-only, so a grid size passed by position is
        # refused rather than read as a phase-scan flag
        with pytest.raises(TypeError):
            discord_min(bell_phi_plus(), grid_points)

    def test_refine_tol_is_not_a_keyword(self):
        # the refinement tolerance is the module constant REFINE_TOL
        with pytest.raises(TypeError):
            discord_min(bell_phi_plus(), refine_tol=1e-9)

    def test_rejects_invalid_state(self):
        with pytest.raises(InvalidStateError):
            discord_min(np.diag([1.2, 0.0, 0.0, -0.2]))

    def test_rejects_nan_state(self):
        rho = np.eye(4) / 4
        rho[3, 3] = np.nan
        with pytest.raises(InvalidStateError, match="NaN or infinite"):
            discord_min(rho)


# the five discord functions of a user state, at one basis where they take one
USER_STATE_FUNCTIONS = {
    "conditional_entropy": lambda rho: conditional_entropy(rho, 0.3, 0.7),
    "mutual_info_j": mutual_info_j,
    "mutual_info_i": lambda rho: mutual_info_i(rho, 0.3, 0.7),
    "discord_at": lambda rho: discord_at(rho, 0.3, 0.7),
    "discord_min": discord_min,
}


class TestUserStateAdmission:
    """Each discord function takes a user matrix through one check, discord._admitted."""

    @pytest.mark.parametrize("name", USER_STATE_FUNCTIONS)
    def test_complex_typed_state_gives_the_float_bits(self, name):
        f = USER_STATE_FUNCTIONS[name]
        rho = build_output_state(0.7, 0.22)
        want = f(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # numpy's ComplexWarning included
            got = f(rho.astype(complex))
        if name == "discord_min":
            got, want = dataclasses.astuple(got), dataclasses.astuple(want)
        assert same_bits(got, want)

    @pytest.mark.parametrize("name", USER_STATE_FUNCTIONS)
    def test_two_by_two_state_is_refused(self, name):
        with pytest.raises(InvalidStateError, match="4x4 state"):
            USER_STATE_FUNCTIONS[name](np.eye(2) / 2)

    @pytest.mark.parametrize("name", USER_STATE_FUNCTIONS)
    def test_reduced_state_below_the_floor_is_not_checked_again(self, name):
        # the state check admits FLOOR_STATE; its clones' entropies take no second check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = USER_STATE_FUNCTIONS[name](FLOOR_STATE)
        if name == "discord_min":
            assert abs(got.discord) <= 1e-9
            got = dataclasses.astuple(got)
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("name", USER_STATE_FUNCTIONS)
    def test_state_is_validated_once(self, monkeypatch, name):
        # the check itself is counted, by the name it reports, and so is the one
        # spectrum call: a second check of the admitted matrix would show as "matrix"
        checks, spectra = [], []
        check, eigvalsh = hermat._require_real_symmetric, np.linalg.eigvalsh
        monkeypatch.setattr(hermat, "_require_real_symmetric",
                            lambda m, what="matrix": checks.append(what) or check(m, what))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: spectra.append(m) or eigvalsh(m))
        USER_STATE_FUNCTIONS[name](build_output_state(0.7, 0.22))
        assert checks == ["state"]
        assert len(spectra) == 1

    @pytest.mark.parametrize("name", USER_STATE_FUNCTIONS)
    @pytest.mark.parametrize("bad,message", [
        (np.eye(4) / 2, "state has trace 2.0, expected 1"),
        (np.diag([1.2, 0.0, 0.0, -0.2]), "state has eigenvalue -2.000000e-01 below -1e-10"),
        (np.eye(4) / 4 + np.eye(4, k=1) * 1e-6, "state is not symmetric"),
        (np.full((4, 4, 1), 1 / 16), "expected a 4x4 state, got shape (4, 4, 1)"),
        (np.diag([0.25, 0.25, 0.25, np.nan]), "state has NaN or infinite entries"),
        (np.diag([0.25, 0.25, 0.25, 0.25 + 1e-6j]), "state has complex entries"),
    ])
    def test_refusal_names_the_state(self, name, bad, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError) as exc:
                USER_STATE_FUNCTIONS[name](bad)
        assert str(exc.value) == message


class TestNonFiniteAngles:
    """A NaN or infinite basis angle raises DomainError instead of giving NaN."""

    @pytest.mark.parametrize("f", [conditional_entropy, mutual_info_i, discord_at])
    @pytest.mark.parametrize("t, phi", [(np.nan, 0.0), (np.inf, 0.0), (0.3, np.nan),
                                        (0.3, -np.inf)])
    def test_basis_functions_refuse(self, f, t, phi):
        rho = build_output_state(0.7, 0.22)
        with pytest.raises(DomainError, match="must be finite"):
            f(rho, t, phi)
        if phi == 0.0:
            with pytest.raises(DomainError, match="must be finite"):
                f(rho, t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_curve_refuses_before_any_trig_call(self, bad):
        # the kernel's one check: no "invalid value in cos" RuntimeWarning, no NaN result
        rho = build_output_state(0.7, 0.22)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ts, phi in [([bad], 0.0), ([0.3, bad], 0.4), ([0.3], bad),
                            ([0.3], [0.0, bad]), (np.broadcast_to([0.3, bad], (4, 2)), 0.4)]:
                with pytest.raises(DomainError, match="must be finite"):
                    conditional_entropy_curve(rho, ts, phi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_surface_refuses_t_grid(self, bad):
        with pytest.raises(DomainError, match="must be finite"):
            discord_surface(0.5, [0.2, 0.3], [0.1, bad])


class TestCurveComplexInput:
    """conditional_entropy_curve takes rho's real part only when rho is real within HERM_ATOL."""

    def test_complex_state_is_refused(self):
        # psi = (|00> + i|11>)/sqrt 2: its real part is another state, with H(a|b) = 0.4275
        psi = np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        for phi in (0.0, 0.4, [0.0, 0.4]):
            with pytest.raises(InvalidStateError, match="complex entries"):
                conditional_entropy_curve(rho, [0.3], phi)

    def test_complex_typed_stack_gives_the_float_bits(self):
        rho = build_output_batch(0.7, [0.2, 0.3, 0.45])
        ts = np.linspace(0.0, np.pi / 2, 9)
        noise = 1e-13 * np.ones((3, 4, 4))
        for phi in (0.0, np.array([[0.0], [0.4]])):
            want = conditional_entropy_curve(rho, ts, phi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # numpy's ComplexWarning included
                assert same_bits(conditional_entropy_curve(rho.astype(complex), ts, phi), want)
                assert same_bits(conditional_entropy_curve(rho + 1j * noise, ts, phi), want)


class TestDiscordSurface:
    def test_single_point_grid_equals_discord_at(self):
        rho = build_output_state(0.6, 0.2)
        for js, ts in (([0.2], [0.4]), (0.2, 0.4)):   # a scalar grid is one grid point
            discord, physical = discord_surface(0.6, js, ts)
            assert discord.shape == (1, 1) and physical.shape == (1,)
            assert discord[0, 0] == pytest.approx(
                discord_at(rho, 0.4), abs=1e-12)
            assert physical[0]

    def test_grid_matches_per_j_loop_bitwise(self):
        # reference: the per-j loop, one spectrum and one entropy curve per j;
        # the surface keeps the Jacobi solver, so the per-j spectrum is a
        # one-matrix Jacobi stack, and the LAPACK eig_sym4 agrees to 1e-14
        alpha = 0.3
        js = np.round(np.arange(0.01, 0.5001, 0.01), 12)
        ts = np.linspace(0.0, np.pi / 2, 13)
        discord, physical = discord_surface(alpha, js, ts)
        assert discord.shape == (len(js), len(ts))
        for row, phys, j in zip(discord, physical, js):
            rho = build_output_state(alpha, float(j))
            spectrum = jacobi_eigvals(rho[None])[0]
            np.testing.assert_allclose(eig_sym4(rho), spectrum, rtol=0, atol=1e-14)
            hab = float(plogp(np.clip(spectrum, 0.0, None)).sum())
            hb = vn_entropy(eig_herm2(partial_trace(rho, "b")))
            assert np.array_equal(row, hb - hab + conditional_entropy_curve(rho, ts, 0.0))
            assert phys == (spectrum[-1] >= -1e-10)

    def test_unphysical_rows_flagged_and_finite(self):
        js = np.round(np.arange(0.1, 0.46, 0.05), 12)
        ts = np.linspace(0.0, np.pi / 2, 7)
        discord, physical = discord_surface(0.5, js, ts)
        assert discord.shape == (len(js), len(ts))
        assert np.isfinite(discord).all()
        flags = dict(zip(js.tolist(), physical.tolist()))
        assert not flags[0.1] and not flags[0.15]   # below the physical window
        assert flags[0.2] and flags[0.45]
        assert (discord[physical] > 0).all()

    def test_alpha_beta_relabeling(self):
        # mirrored input gives the same surface with t relabeled to pi/2 - t
        alpha = 0.6
        mirrored = np.sqrt(1 - alpha ** 2)
        js = [0.2, 0.3, 0.45]
        ts = np.linspace(0.0, np.pi / 2, 9)
        discord, _ = discord_surface(alpha, js, ts)
        discord_m, _ = discord_surface(mirrored, js, ts[::-1])
        np.testing.assert_allclose(ts, np.pi / 2 - ts[::-1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(discord, discord_m, rtol=0, atol=1e-10)

    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError):
            discord_surface(0.5, [], [0.1])

    @pytest.mark.parametrize("js,ts", [([[0.2, 0.3]], [0.1]), ([0.2], [[0.1, 0.4]]),
                                       (np.full((2, 2), 0.3), np.zeros((1, 1)))])
    def test_rejects_grids_of_more_than_one_axis(self, js, ts):
        # a (1, 2) j grid once paired one j's H(b) - H(ab) with the other j's curve
        shapes = f"{np.shape(js)} and {np.shape(ts)}"
        with pytest.raises(DomainError, match=re.escape(shapes)):
            discord_surface(0.7, js, ts)
