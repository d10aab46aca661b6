"""Discord surface over (j, t): compute the grid, sketch it in ASCII, and
export plot-ready CSV files (same format as the `clonecorr surface` command).

Run:  python demos/surface_export.py [ALPHA]
"""
import sys

import numpy as np

from clonecorr import discord_surface
from clonecorr.cli import RunConfig, run_surface

alpha = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5

js = np.round(np.arange(0.05, 0.501, 0.025), 12)
ts = np.linspace(0.0, np.pi / 2, 33)
discord, physical = discord_surface(alpha, js, ts)

print("=" * 70)
print(f"Unminimized discord D(j, t) for alpha = {alpha}")
print("=" * 70)
print("rows: j (down); columns: t in [0, pi/2] (right); '.' marks rows where")
print("the state is not positive semidefinite (kept finite for plotting)\n")

shades = " .:-=+*#%@"
dmax = np.abs(discord).max()
levels = (np.minimum(np.abs(discord) / dmax, 0.999) * len(shades)).astype(int)
for j, row, phys in zip(js, levels, physical):
    line = "".join(shades[level] for level in row)
    tag = "" if phys else "   (unphysical)"
    print(f" j={j:5.3f} |{line}|{tag}")

print(f"\nmax |D| on the grid: {dmax:.4f} bits")
print("On the physical rows the discord is strictly positive for every t.")

out_dir = "surface_demo_out"
cfg = RunConfig(alpha_list=[alpha], j_min=0.05, j_max=0.5, j_step=0.025,
                t_points=33, output_path=out_dir)
run_surface(cfg)
print(f"\nCSV written under {out_dir}/ -- columns: alpha,j,t,discord,w3,w4,"
      "min_ppt_eig,physical,classification")
