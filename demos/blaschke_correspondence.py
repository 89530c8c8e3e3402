"""Walk through the correspondence between members and finite Blaschke products.

A member with h'(z) = prod (1 - zeta_k z)^(alpha t_k) determines the disk
self-map phi with z h''/h' = alpha z phi/(z phi - 1); phi is a finite
Blaschke product exactly when the measure has finitely many atoms, and the
atoms are recovered from the boundary roots of z*phi(z) = 1.
"""

import numpy as np

from galpha import (BlaschkeProduct, boundary_roots, induced_self_map,
                    measure_from_blaschke, blaschke_from_measure)

rng = np.random.default_rng(2024)

# the worked example: one zero at 1/2
phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
roots, residues = boundary_roots(phi)
print("zeros = [0.5]")
print("  boundary roots of z*phi(z) = 1:", np.round(roots, 12))
print("  residues t_k:", np.round(residues, 12), "(sum", residues.sum(), ")")

# residues become the atom weights; atoms sit at the conjugate roots
measure = measure_from_blaschke(phi)
print("  recovered atoms (angle, weight):")
for angle, weight in zip(measure.angles, measure.weights):
    print(f"    ({angle:.6f}, {weight:.6f})")

# the measure reproduces phi pointwise through the inverse map
z = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
print("  max |phi - induced map| at 5 points:",
      float(np.max(np.abs(phi(z) - induced_self_map(measure, z)))))

# a generic degree-5 product with a random rotation, driven both ways
degree = 5
zeros = 0.9 * np.sqrt(rng.uniform(0, 1, degree)) * np.exp(1j * rng.uniform(0, 2 * np.pi, degree))
phi = BlaschkeProduct(zeros=zeros, prefactor=np.exp(1j * rng.uniform(0, 2 * np.pi)))
measure = measure_from_blaschke(phi)
print(f"\ndegree {degree} product: {measure.count} atoms recovered")

recovered = blaschke_from_measure(measure)
print("  zeros recovered from the measure (sorted by angle):")
print("   ", np.round(np.sort_complex(recovered.zeros), 10))
print("   ", np.round(np.sort_complex(phi.zeros), 10), "(original)")

z = 0.85 * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 400))
print("  round-trip max pointwise error:",
      float(np.max(np.abs(phi(z) - recovered(z)))))
