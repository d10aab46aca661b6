"""End-to-end acceptance suite.

Every criterion runs at its stated tolerance and prints one PASS line when
it holds; a failure surfaces through the assertion message with the
offending coordinates.
"""

import io
import math
import time

import numpy as np

from clonecorr import (build_output_batch, build_output_state, classify, clone_fidelity, discord_at,
                       discord_min, mutual_info_i, mutual_info_j, w3_closed, w4_closed)
from clonecorr.cli import RunConfig, main, run_table1, table1_rows
from clonecorr.hermat import jacobi_eigvals
from clonecorr.separability import ppt_data, scan_grid
from oracles import random_product_state, swap_qubits

REFERENCE = {0.6: (0.196, 0.238), 0.7: (0.191, 0.250), 0.8: (0.196, 0.238)}
INSEPARABLE_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.9)
ALL_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
X_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def physical_grid(alpha, j_min=0.01, j_max=0.5, j_step=0.005):
    js = np.round(np.arange(j_min, j_max + j_step / 2, j_step), 12)
    js = js[js <= 0.5]
    min_eigs = jacobi_eigvals(build_output_batch(alpha, js))[:, -1]
    return js[min_eigs >= -1e-10]


def test_criterion_1_separability_table_reproduction():
    # time the command itself, then re-derive the rows for endpoint checks
    sink = io.StringIO()
    start = time.perf_counter()
    rc = run_table1(RunConfig(), out_stream=sink)
    elapsed = time.perf_counter() - start
    assert rc == 0, f"table1 exited {rc}:\n{sink.getvalue()}"
    assert elapsed < 10.0, f"table1 with defaults took {elapsed:.1f}s (limit 10s)"
    assert "MISMATCH" not in sink.getvalue()

    rows, mismatch = table1_rows(RunConfig())
    by_alpha = {round(row["alpha"], 1): row for row in rows}
    for alpha, (lo, hi) in REFERENCE.items():
        intervals = by_alpha[alpha]["intervals"]
        assert len(intervals) == 1, f"alpha={alpha}: expected one interval, got {intervals}"
        assert abs(intervals[0].lo - lo) <= 0.002, \
            f"alpha={alpha}: lo={intervals[0].lo:.4f} vs {lo}"
        assert abs(intervals[0].hi - hi) <= 0.002, \
            f"alpha={alpha}: hi={intervals[0].hi:.4f} vs {hi}"
    for alpha in INSEPARABLE_ALPHAS:
        assert by_alpha[alpha]["intervals"] == [], \
            f"alpha={alpha}: expected no separable j"
    assert not mismatch
    print(f"\nPASS criterion 1: separable j windows match the reference table "
          f"within +-0.002 ({elapsed:.1f}s)")


def test_criterion_2_closed_form_determinant_equivalence():
    rng = np.random.default_rng(20240801)
    worst3 = worst4 = 0.0
    for _ in range(10_000):
        alpha = rng.uniform(0.0, 1.0)
        j = rng.uniform(0.0, 0.5)
        w3d, w4d, _ = ppt_data(build_output_state(alpha, j))
        worst3 = max(worst3, abs(w3_closed(alpha, j) - w3d))
        worst4 = max(worst4, abs(w4_closed(alpha, j) - w4d))
    assert worst3 <= 1e-12, f"max |W3 closed - direct| = {worst3:.3e}"
    assert worst4 <= 1e-12, f"max |W4 closed - direct| = {worst4:.3e}"
    print(f"\nPASS criterion 2: closed-form determinants match direct minors on "
          f"10^4 random points (max dev {max(worst3, worst4):.2e})")


def test_criterion_3_fidelity_law():
    rng = np.random.default_rng(7151)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.0, 1.0)
        j = rng.uniform(0.0, 0.5)
        worst = max(worst, abs(clone_fidelity(alpha, j) - (1.0 - j)))
    assert worst <= 1e-12, f"max |F - (1-j)| = {worst:.3e}"
    for alpha in (0.0, 0.25, 1 / np.sqrt(2), 0.9, 1.0):
        dev = abs(clone_fidelity(alpha, 1 / 6) - 5 / 6)
        assert dev <= 1e-15, f"alpha={alpha}: |F - 5/6| = {dev:.3e}"
    print(f"\nPASS criterion 3: fidelity equals 1 - j (max dev {worst:.2e}); "
          f"universal machine value 5/6 reproduced")


def test_criterion_4_discord_positive_on_physical_domain():
    smallest = (np.inf, None, None)
    count = 0
    for alpha in ALL_ALPHAS:
        for j in physical_grid(alpha):
            value = discord_min(build_output_state(alpha, float(j))).discord
            count += 1
            if value < smallest[0]:
                smallest = (value, alpha, float(j))
            assert value > 1e-6, f"discord {value:.3e} at alpha={alpha}, j={j}"
    print(f"\nPASS criterion 4: minimized discord > 1e-6 at all {count} physical "
          f"grid points (smallest {smallest[0]:.4f} at alpha={smallest[1]}, j={smallest[2]})")


def test_criterion_5_discordant_but_separable_window():
    js = np.round(np.arange(0.195, 0.246 + 5e-4, 0.001), 12)
    assert len(js) == 52
    for j in js:
        verdict = classify(0.7, float(j))
        assert verdict.classification == "Separable", \
            f"j={j}: classified {verdict.classification}"
        value = discord_min(build_output_state(0.7, float(j))).discord
        assert value > 1e-6, f"j={j}: discord {value:.3e}"
    print("\nPASS criterion 5: alpha=0.7 window [0.195, 0.246] is separable with "
          "discord > 1e-6 throughout")


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(90911)
    flip = np.kron(X_FLIP, X_FLIP)

    for _ in range(100):
        alpha, j = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        rho = build_output_state(alpha, j)
        assert np.abs(rho @ SINGLET).max() <= 1e-14
        assert np.array_equal(swap_qubits(rho), rho)
        beta = np.sqrt(1.0 - alpha ** 2)
        # build_output_state(beta, j) takes the input (beta, sqrt(1 - beta^2)); its mirror
        # image is the state built from sqrt(1 - beta^2)
        mirrored = build_output_state(beta, j)
        flipped = flip @ build_output_state(math.sqrt(1 - beta * beta), j) @ flip
        assert np.abs(mirrored - flipped).max() <= 1e-14

    for _ in range(1000):
        alpha, j = rng.uniform(0.0, 1.0), rng.uniform(1 / 6, 0.5)
        rho = build_output_state(alpha, j)
        t, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, np.pi)
        gap = abs(discord_at(rho, t, phi)
                  - (mutual_info_j(rho) - mutual_info_i(rho, t, phi)))
        assert gap <= 1e-12, f"D != J - I by {gap:.3e} at alpha={alpha}, j={j}"

    for _ in range(100):
        rho = random_product_state(rng)
        value = discord_min(rho).discord
        assert abs(value) <= 1e-9, f"product-state discord {value:.3e}"

    print("\nPASS criterion 6: singlet zero mode, swap symmetry, amplitude-swap "
          "covariance, D = J - I at 10^3 bases, zero discord on 100 product states")


def test_criterion_7_ppt_determinant_consistency():
    disagreements = []
    for alpha in ALL_ALPHAS:
        js, w3s, w4s, min_ppt = scan_grid(alpha, scan_step=1e-4)
        det_sep = (w3s >= 0.0) & (w4s >= 0.0)
        ppt_sep = min_ppt >= -1e-10
        bad = det_sep != ppt_sep
        disagreements.extend((alpha, float(j)) for j in js[bad])
    assert not disagreements, f"PPT/determinant disagreement at {disagreements}"
    print("\nPASS criterion 7: determinant and PPT classifications agree at every "
          "physical point of the full scan grid")


def test_criterion_8_surface_determinism(tmp_path):
    args = ["surface", "--alpha", "0.3,0.7", "--j-min", "0.15", "--j-max", "0.35",
            "--j-step", "0.01", "--t-points", "25"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir()) and names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
            f"{name} differs between identical runs"

    json_args = [*args, "--format", "json"]
    out3, out4 = tmp_path / "run3", tmp_path / "run4"
    assert main([*json_args, "--out", str(out3)]) == 0
    assert main([*json_args, "--out", str(out4)]) == 0
    for p in sorted(out3.iterdir()):
        assert p.read_bytes() == (out4 / p.name).read_bytes()
    print("\nPASS criterion 8: identical surface configurations produce "
          "byte-identical CSV and JSON output")
