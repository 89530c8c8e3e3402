"""Pre-Schwarzian and Schwarzian derivatives of family members, and their norms.

For a member with atoms zeta_k, weights t_k:

    P(z)  = h''/h'        = -alpha sum_k t_k zeta_k/(1 - zeta_k z)
    S(z)  = P' - P^2/2    = -alpha sum_k t_k zeta_k^2/(1 - zeta_k z)^2 - P^2/2

with hyperbolic norms sup (1-|z|^2)|P| and sup (1-|z|^2)^2 |S|.  The sharp
bounds are 2 alpha and 2 alpha (2 + alpha), attained by single-atom members;
for alpha < 1/2 the pre-Schwarzian bound yields a quasiconformal extension
with constant (1 + 2 alpha)/(1 - 2 alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexfn import (DiskGrid, NormEstimate, _require_finite, default_grid,
                        sup_norm_estimate)
from .family import GAlphaFunction, _over_atoms

_BOUND_SLACK = 1e-6
# the norm refinement also starts toward conj(zeta_k) of this many heaviest atoms
_ATOM_SEEDS = 8


def pre_schwarzian(f: GAlphaFunction, z):
    """P(z) = h''(z)/h'(z)."""
    return f.hprime_log_derivative(z)


def schwarzian(f: GAlphaFunction, z):
    """S(z) = P'(z) - P(z)^2/2, both terms in closed form.

    With g_k = zeta_k/(1 - zeta_k z), formed once per block,
    P = -alpha sum_k t_k g_k and P' = -alpha sum_k t_k g_k^2.
    """
    atoms, weights, alpha = f.measure.atoms, f.measure.weights, f.alpha

    def kernel(zb):
        g = _over_atoms(zb, atoms, atoms)
        p = -alpha * (g @ weights)
        return -alpha * (np.multiply(g, g, out=g) @ weights) - 0.5 * p ** 2

    return f._blocks(z, complex, kernel)


@dataclass(frozen=True)
class SchwarzReport:
    """Norm estimates next to the family's sharp bounds.

    qc_constant is present exactly when alpha < 1/2, where the member has a
    quasiconformal extension with that constant.
    """

    pre_schwarzian_norm: NormEstimate
    schwarzian_norm: NormEstimate
    alpha: float
    pre_schwarzian_bound: float
    schwarzian_bound: float
    qc_constant: float | None

    def __post_init__(self) -> None:
        if self.pre_schwarzian_norm.value > self.pre_schwarzian_bound + _BOUND_SLACK:
            raise ValueError("pre-Schwarzian norm exceeds its sharp bound")
        if self.schwarzian_norm.value > self.schwarzian_bound + _BOUND_SLACK:
            raise ValueError("Schwarzian norm exceeds its sharp bound")
        if (self.qc_constant is not None) != (self.alpha < 0.5):
            raise ValueError("qc_constant is present exactly when alpha < 1/2")

    def to_dict(self) -> dict:
        """The JSON report block shared by `galpha norms` and `galpha verify`."""
        return {
            "alpha": self.alpha,
            "pre_schwarzian_norm": self.pre_schwarzian_norm.value,
            "pre_schwarzian_bound": self.pre_schwarzian_bound,
            "schwarzian_norm": self.schwarzian_norm.value,
            "schwarzian_bound": self.schwarzian_bound,
            "qc_constant": self.qc_constant,
        }


def norms(f: GAlphaFunction, grid: DiskGrid | None = None,
          refine_iters: int = 40) -> SchwarzReport:
    """Estimate both hyperbolic norms and report them against the bounds.

    Besides the grid's top rows, the refinement starts at r_max conj(zeta_k)
    for the heaviest atoms, where the norms approach their closed-form
    limits 2 alpha t_k and 2 alpha t_k (2 + alpha t_k).
    """
    grid = grid if grid is not None else default_grid()
    heaviest = np.argsort(-f.measure.weights, kind="stable")[:_ATOM_SEEDS]
    seeds = grid.r_max * np.conj(f.measure.atoms[heaviest])

    def obj_pre(z):
        return (1.0 - np.abs(z) ** 2) * np.abs(pre_schwarzian(f, z))

    def obj_schwarz(z):
        return (1.0 - np.abs(z) ** 2) ** 2 * np.abs(schwarzian(f, z))

    alpha = f.alpha
    return SchwarzReport(
        pre_schwarzian_norm=sup_norm_estimate(obj_pre, grid, refine_iters, seeds),
        schwarzian_norm=sup_norm_estimate(obj_schwarz, grid, refine_iters, seeds),
        alpha=alpha,
        pre_schwarzian_bound=2.0 * alpha,
        schwarzian_bound=2.0 * alpha * (2.0 + alpha),
        qc_constant=(1.0 + 2.0 * alpha) / (1.0 - 2.0 * alpha) if alpha < 0.5 else None,
    )


class SchwarzianBoundWitness(NamedTuple):
    """Sampled certificate quantities behind the sharp Schwarzian bound.

    value and value_at_zero are the slack expression at the given alpha and
    at alpha = 0; monotonicity_factor controls the sign of d(value)/d(alpha).
    The bound's proof amounts to value <= value_at_zero <= 0 and
    monotonicity_factor < 0 for every |z| < 1, |w| <= 1.
    """

    value: np.ndarray | float
    value_at_zero: np.ndarray | float
    monotonicity_factor: np.ndarray | float


def schwarzian_bound_witness(alpha, z, w) -> SchwarzianBoundWitness:
    """Evaluate the bound-certificate quantities at (alpha, z, w).

    w stands in for any value of a disk self-map at z, so it ranges over the
    full closed disk; alpha ranges over [0, 1].  Accepts scalars or
    broadcastable arrays.
    """
    alpha = np.asarray(alpha, dtype=float)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    _require_finite("alpha", alpha)
    _require_finite("z", z)
    _require_finite("w", w)
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("z must lie in the open unit disk")
    if np.any(np.abs(w) > 1.0 + 1e-15):
        raise ValueError("w must lie in the closed unit disk")

    zz = np.abs(z) ** 2
    ww = np.abs(w) ** 2
    cross = (z * w).real

    def slack(a):
        return (((2.0 + a) * zz ** 2 - (10.0 + 6.0 * a) * zz + a) * ww
                + 8.0 * (2.0 + a) * cross - 2.0 * (zz + 2.0 * a + 3.0))

    value = slack(alpha)
    value_at_zero = slack(np.zeros_like(alpha))
    monotonicity_factor = (1.0 - zz) * np.abs(w) - 2.0 * np.abs(z * w - 1.0)
    if value.ndim == 0:
        return SchwarzianBoundWitness(float(value), float(value_at_zero),
                                      float(monotonicity_factor))
    return SchwarzianBoundWitness(value, value_at_zero, monotonicity_factor)
