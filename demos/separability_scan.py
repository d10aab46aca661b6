"""Separability of the two clones across the machine-parameter range: the
determinant tests, the PPT spectrum, and the separable windows per input.

Run:  python demos/separability_scan.py
"""
import numpy as np

from clonecorr import (build_output_state, classify, discord_min, separable_intervals,
                       valid_j_range, w3_closed, w4_closed)

print("=" * 70)
print("Determinant tests along j at alpha = 0.6")
print("=" * 70)
print(f"{'j':>7} {'W3':>13} {'W4':>13} {'verdict':>12}")
for j in (0.18, 0.19, 0.20, 0.22, 0.24, 0.26, 0.30):
    w3, w4 = w3_closed(0.6, j), w4_closed(0.6, j)
    verdict = classify(0.6, j)
    print(f"{j:7.3f} {w3:13.3e} {w4:13.3e} {verdict.classification:>12}")
print("\nBoth determinants nonnegative <=> partial transpose positive:")
print("the verdict column is the exact sign of W4, decided in integer arithmetic.")

print("\n" + "=" * 70)
print("Separable j windows per input amplitude")
print("=" * 70)
print(f"{'alpha':>6} {'PSD window of j':>22} {'separable j':>22}")
for alpha in [round(0.1 * k, 1) for k in range(1, 10)]:
    lo, hi = valid_j_range(alpha)
    intervals = separable_intervals(alpha)
    ivs = ", ".join(f"[{iv.lo:.3f}, {iv.hi:.3f}]" for iv in intervals) or "(none)"
    print(f"{alpha:6.1f} {f'[{lo:.4f}, {hi:.4f}]':>22} {ivs:>22}")
print("\nOnly alpha in {0.6, 0.7, 0.8} admits separable output; the 0.6 and 0.8")
print("windows coincide because swapping the amplitudes is a local bit flip.")

print("\n" + "=" * 70)
print("Separable yet discordant: alpha = 0.7")
print("=" * 70)
iv = separable_intervals(0.7)[0]
print(f"separable window: [{iv.lo:.4f}, {iv.hi:.4f}]")
for j in np.linspace(iv.lo + 1e-3, iv.hi - 1e-3, 5):
    verdict = classify(0.7, float(j))
    d = discord_min(build_output_state(0.7, float(j))).discord
    print(f"  j = {j:.4f}: {verdict.classification}, discord = {d:.6f} bits")
print("\nEvery point in the window is separable by the PPT criterion yet carries")
print("discord well above zero: nonclassical correlation without entanglement.")
