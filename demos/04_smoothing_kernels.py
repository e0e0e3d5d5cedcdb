"""The two smoothing kernels and their envelope guarantees.

The solver replaces (s)_+ and |t| with quadratic-patched versions that are
exact outside a width-mu (resp. width-nu) window and overestimate by at most
mu/8 (resp. nu/4) inside it. Shrinking the widths therefore drives the
smoothed penalty to the exact one at a known rate.
"""

import numpy as np

from sparselp.smoothing import smoothed_abs, smoothed_plus

MU = 1.0
print(f"ramp kernel, width mu = {MU} (patch on |s| < {MU / 2}):")
print("     s     kernel    exact   gap (<= mu/8 = 0.125)")
for s in (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0):
    val, _ = smoothed_plus(s, MU)  # a float in, floats out
    print(f"  {s:5.2f}  {val:8.5f} {max(s, 0.0):8.5f}   {val - max(s, 0.0):7.5f}")

NU = 1.0
print(f"\nabsolute-value kernel, width nu = {NU} (patch on |t| < {NU / 2}):")
print("     t     kernel    exact   gap (<= nu/4 = 0.25)")
for t in (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0):
    val, _ = smoothed_abs(np.array(t), NU)
    print(f"  {t:5.2f}  {float(val):8.5f} {abs(t):8.5f}   {float(val) - abs(t):7.5f}")

print("\nworst gap over 100k random draws, as the widths shrink:")
rng = np.random.default_rng(0)
for width in (1.0, 0.1, 0.01):
    s = rng.uniform(-2, 2, 100_000)
    gp = max(smoothed_plus(si, width)[0] - max(si, 0.0) for si in s.tolist())
    ga = (smoothed_abs(s, width)[0] - np.abs(s)).max()
    print(f"  width {width:5.2f}: ramp gap {gp:.6f} (bound {width / 8:.6f}),"
          f" abs gap {ga:.6f} (bound {width / 4:.6f})")
