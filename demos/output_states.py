"""Tour of the copier output state: construction, reductions, fidelity law,
and the PSD window of the machine parameter.

Run:  python demos/output_states.py
"""
import numpy as np

from clonecorr import build_output_state, clone_fidelity, valid_j_range
from clonecorr.cloner import check_machine_constraints, reduced_clone
from clonecorr.hermat import eig_sym4

np.set_printoptions(precision=6, suppress=True)

print("=" * 70)
print("Two-clone output state, basis |00>, |01>, |10>, |11>")
print("=" * 70)

for alpha, j in [(1 / np.sqrt(2), 1 / 6), (0.6, 0.2), (1.0, 0.3)]:
    rho = build_output_state(alpha, j)
    print(f"\nalpha = {alpha:.4f}, j = {j:.4f}")
    print(rho)
    print("spectrum:", eig_sym4(rho))
    print("reduced clone:")
    print(reduced_clone(rho, "b"))

print("\n" + "=" * 70)
print("Fidelity of each clone is 1 - j, independent of the input")
print("=" * 70)
for j in (0.0, 1 / 6, 0.25, 0.4):
    values = [clone_fidelity(a, j) for a in (0.2, 0.5, 0.8)]
    print(f"j = {j:.4f}:  F = {values[0]:.12f} (same for every alpha, "
          f"spread {max(values) - min(values):.1e})")
print("The universal machine j = 1/6 gives the optimal fidelity 5/6.")

print("\n" + "=" * 70)
print("Machine-vector constraints (norms and Cauchy-Schwarz on overlaps)")
print("=" * 70)
for j in (0.1, 1 / 6, 0.4, 0.6):
    n = 1 - 2 * j
    bound = f"{np.sqrt(j * n):.4f}" if n >= 0 else "none (n < 0)"
    print(f"j = {j:.4f}: |n/2| = {abs(n / 2):.4f} vs bound sqrt(j n) = {bound}"
          f"  -> satisfied={check_machine_constraints(j)}")
print(f"constraints hold exactly on j in [{1/6:.4f}, 0.5]")

print("\n" + "=" * 70)
print("PSD window of j (output positive semidefinite)")
print("=" * 70)
for alpha in (0.0, 0.3, 1 / np.sqrt(2), 0.9, 1.0):
    lo, hi = valid_j_range(alpha)
    print(f"alpha = {alpha:.4f}:  j in [{lo:.6f}, {hi:.6f}]")
print("\nFor every 0 < alpha < 1 the window starts at j = 1/6: below it one")
print("3x3 principal minor of the state is negative. At alpha in {0, 1} the")
print("output is a mixture of orthogonal states and every j is allowed.")
