"""Step-by-step discord computation: the conditional entropy curve,
minimization, and the two mutual-information expressions.

Run:  python demos/discord_walkthrough.py
"""
import numpy as np

from clonecorr import (build_output_state, conditional_entropy_curve, discord_at,
                       discord_min, mutual_info_i, mutual_info_j)

np.set_printoptions(precision=6, suppress=True)

alpha, j = 1 / np.sqrt(2), 1 / 6
rho = build_output_state(alpha, j)
print("=" * 70)
print(f"Universal-copier point alpha = 1/sqrt(2), j = 1/6")
print("=" * 70)

print("\nConditional entropy H(a|t) over the canonical range t in [0, pi/2):")
ts = np.linspace(0.0, np.pi / 2, 13, endpoint=False)
curve = conditional_entropy_curve(rho, ts)
for t, h in zip(ts, curve):
    bar = "#" * int(round(40 * h))
    print(f"  t = {t:5.3f}  H = {h:.6f}  {bar}")

result = discord_min(rho)
print(f"\nminimized at t = {result.optimal_t:.6e}:")
print(f"  H(a)          = {result.entropy_a:.9f} bits")
print(f"  H(b)          = {result.entropy_b:.9f} bits")
print(f"  H(ab)         = {result.entropy_joint:.9f} bits")
print(f"  H(a|b), min   = {result.conditional_entropy:.9f} bits")
print(f"  J = H(a)+H(b)-H(ab)      = {result.mutual_info_j:.9f} bits")
print(f"  I = H(a)-H(a|b)          = {result.mutual_info_i:.9f} bits")
print(f"  discord D = J - I        = {result.discord:.9f} bits")

print("\n" + "=" * 70)
print("D = J - I holds at every basis, not only the optimum")
print("=" * 70)
for t in (0.2, 0.9, 1.4):
    d = discord_at(rho, t)
    gap = d - (mutual_info_j(rho) - mutual_info_i(rho, t))
    print(f"  t = {t:.2f}:  D = {d:.9f},  J - I differs by {gap:.1e}")

print("\n" + "=" * 70)
print("Optional phase scan (basis |1> component times e^{i phi})")
print("=" * 70)
rho_asym = build_output_state(0.9, 0.3)
plain = discord_min(rho_asym)
scanned = discord_min(rho_asym, scan_phase=True)
print(f"alpha = 0.9, j = 0.3:")
print(f"  real family (phi = 0):   D = {plain.discord:.6f} at t = {plain.optimal_t:.4f}")
print(f"  with phase scan:         D = {scanned.discord:.6f} at "
      f"t = {scanned.optimal_t:.4f}, phi = {scanned.optimal_phi:.4f}")
print("\nFor asymmetric inputs the output carries a y-axis correlation that the")
print("real basis family cannot probe, so the phase scan finds a lower minimum")
print("(phi lands at pi/2, the measurement tilting into the y direction). The")
print("default follows the real one-parameter family.")
