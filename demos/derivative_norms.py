"""Estimate pre-Schwarzian and Schwarzian norms against the sharp bounds.

The single-atom member h'(z) = (1 - zeta z)^alpha attains both bounds:
sup (1-|z|^2)|h''/h'| = 2 alpha and sup (1-|z|^2)^2 |S_h| = 2 alpha (2+alpha).
Multi-atom members stay strictly inside.  For alpha < 1/2 the report also
carries the quasiconformal extension constant (1+2 alpha)/(1-2 alpha).
"""

import numpy as np

from galpha import AtomicMeasure, GAlphaFunction, norms, single_atom

print(f"{'alpha':>6} {'|T| est':>10} {'2a':>7} {'|S| est':>10} {'2a(2+a)':>9} {'qc K':>6}")
for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
    member = GAlphaFunction(alpha=alpha, measure=single_atom(0.0))
    rep = norms(member)
    qc = f"{rep.qc_constant:.3f}" if rep.qc_constant is not None else "-"
    print(f"{alpha:>6.2f} {rep.pre_schwarzian_norm.value:>10.6f} {2*alpha:>7.3f}"
          f" {rep.schwarzian_norm.value:>10.6f} {2*alpha*(2+alpha):>9.4f} {qc:>6}")

# a three-atom member sits strictly below both bounds
member = GAlphaFunction(alpha=1.0, measure=AtomicMeasure(
    angles=[0.0, 2.2, 4.4], weights=[0.5, 0.3, 0.2]))
rep = norms(member)
print("\nthree-atom member, alpha = 1:")
print(f"  |T| = {rep.pre_schwarzian_norm.value:.6f} < 2")
print(f"  |S| = {rep.schwarzian_norm.value:.6f} < 6")
print(f"  Schwarzian argmax at {rep.schwarzian_norm.argmax:.6f}"
      f" (|z| = {abs(rep.schwarzian_norm.argmax):.6f})")

# the norm objective tends to its sup along the branch direction conj(zeta)
# of the dominant factor; norms reports that closed-form boundary limit
# with argmax exactly conj(zeta)
theta = 0.7
member = GAlphaFunction(alpha=0.5, measure=single_atom(theta))
rep = norms(member)
print(f"\nsingle atom at angle {theta}: argmax angle ="
      f" {np.angle(rep.schwarzian_norm.argmax):+.9f} (expected {-theta:+.9f})")
