"""Build sheared harmonic mappings f = h + conj(g) and check their univalence.

The dilatation omega = g'/h' controls local behavior: J = |h'|^2 (1-|omega|^2)
stays positive for sense-preserving maps, and |omega(z)| <= 1 - alpha|z|(1+|z|)
guarantees global univalence when alpha < 1/2.
"""

import numpy as np

from galpha import (DilatationSpec, GAlphaFunction, HarmonicMap, single_atom,
                    univalence_criterion)

member = GAlphaFunction(alpha=0.25, measure=single_atom(0.0))

# constant dilatation at the remark's threshold |omega| = 1 - 2 alpha
shear = HarmonicMap(analytic_part=member, dilatation=DilatationSpec.constant(0.5))
holds, margin = univalence_criterion(shear)
print("alpha = 0.25, omega = 0.5 (= 1 - 2 alpha):")
print(f"  univalence criterion holds: {holds} (margin {margin:.2e})")
print(f"  J(0) = {shear.jacobian(0.0 + 0.0j):.6f}")

# push the dilatation past the criterion: it fails near the boundary, as the
# bound 1 - alpha |z|(1+|z|) sinks to 1 - 2 alpha = 0.2 there, so the exact
# margin is 0.2 - 0.5
big = HarmonicMap(analytic_part=GAlphaFunction(alpha=0.4, measure=single_atom(0.0)),
                  dilatation=DilatationSpec.constant(0.5))
holds, margin = univalence_criterion(big)
print(f"\nalpha = 0.40, omega = 0.5: criterion holds: {holds}"
      f" (margin {margin:.3f})")

# a varying dilatation: omega(z) = 0.5 z^2 vanishes at 0 and peaks on the rim
spin = HarmonicMap(analytic_part=member, dilatation=DilatationSpec.monomial(0.5, 2))
theta = np.linspace(0.0, 2 * np.pi, 9)[:-1]
j_ring = spin.jacobian(0.9 * np.exp(1j * theta))
print(f"\nomega = 0.5 z^2: Jacobian on |z| = 0.9 within"
      f" [{j_ring.min():.4f}, {j_ring.max():.4f}]")
print(f"  g(0.9i) = {spin.g(0.9j):.6f}")
