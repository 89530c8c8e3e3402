"""The verification battery: every family property checked on one member.

Produces a VerifyReport whose `passed` flag is the conjunction of the
individual checks against the configured tolerances.  The battery covers
membership, the coefficient bound, the sharp pointwise real-part bound,
the subordination witness, both derivative norms, the Blaschke round trip
(when the spec came from a product), and the harmonic-shear checks (when a
dilatation is present).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .complexfn import DiskGrid, default_grid
from .family import induced_self_map, measure_from_blaschke
from .harmonic import HarmonicMap, univalence_criterion, winding_injectivity_probe
from .schwarz import SchwarzReport, norms
from .specfile import FunctionSpec

# the round trip is compared on these points filling |z| <= 0.9
_ROUNDTRIP_GRID = DiskGrid(radii=np.linspace(0.9 / 8, 0.9, 8), angles_per_circle=96)
# coefficients a_2..a_N checked against |a_n| <= alpha / (n (n - 1))
_N_COEFFICIENTS = 50


@dataclass(frozen=True)
class Tolerances:
    """Check tolerances; overridable from the CLI flags."""

    roundtrip: float = 1e-8
    norm: float = 1e-3
    pointwise: float = 1e-9


@dataclass(frozen=True)
class HarmonicChecks:
    univalence_criterion_holds: bool
    criterion_margin: float
    jacobian_min: float
    winding_ok: bool


@dataclass(frozen=True)
class VerifyReport:
    membership_margin: float
    coefficient_max_ratio: float
    real_part_bound_min_residual: float
    subordination_max_modulus: float
    schwarz: SchwarzReport
    roundtrip_error: float | None
    recovered_atoms: list | None
    harmonic: HarmonicChecks | None
    passed: bool

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["schwarz"] = self.schwarz.to_dict()
        data["harmonic"] = asdict(self.harmonic) if self.harmonic is not None else None
        return data

    def render_text(self) -> str:
        sch = self.schwarz
        lines = [
            "verification report",
            f"  membership margin            : {self.membership_margin:.6e}  (> 0)",
            f"  coefficient max ratio        : {self.coefficient_max_ratio:.12f}  (<= 1)",
            f"  real-part bound min residual : {self.real_part_bound_min_residual:.6e}  (>= 0)",
            f"  subordination max |omega|    : {self.subordination_max_modulus:.12f}  (< 1)",
            f"  pre-Schwarzian norm          : {sch.pre_schwarzian_norm.value:.9f}"
            f"  (bound {sch.pre_schwarzian_bound:.9f})",
            f"  Schwarzian norm              : {sch.schwarzian_norm.value:.9f}"
            f"  (bound {sch.schwarzian_bound:.9f})",
        ]
        if sch.qc_constant is not None:
            lines.append(f"  quasiconformal constant      : {sch.qc_constant:.9f}")
        if self.roundtrip_error is not None:
            lines.append(f"  blaschke roundtrip error     : {self.roundtrip_error:.3e}")
        if self.recovered_atoms is not None:
            lines.append("  recovered atoms (theta, weight):")
            for theta, weight in self.recovered_atoms:
                lines.append(f"    ({theta:.12f}, {weight:.12f})")
        if self.harmonic is not None:
            h = self.harmonic
            lines += [
                f"  univalence criterion         : "
                f"{'holds' if h.univalence_criterion_holds else 'fails'}"
                f" (margin {h.criterion_margin:.6e})",
                f"  jacobian min on grid         : {h.jacobian_min:.6e}  (> 0)",
                f"  winding probe                : {'ok' if h.winding_ok else 'failed'}",
            ]
        lines.append(f"  result                       : "
                     f"{'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def blaschke_roundtrip_error(phi, measure=None) -> float:
    """Max pointwise |phi - phi_hat| on |z| <= 0.9 through the measure."""
    measure = measure if measure is not None else measure_from_blaschke(phi)
    z = _ROUNDTRIP_GRID.points()
    return float(np.max(np.abs(phi(z) - induced_self_map(measure, z))))


def run_verification(spec: FunctionSpec, tol: Tolerances | None = None,
                     grid: DiskGrid | None = None) -> VerifyReport:
    tol = tol if tol is not None else Tolerances()
    grid = grid if grid is not None else default_grid()
    member = spec.resolve_member()
    z = grid.points()

    membership_margin = member.membership_margin(grid)

    n = np.arange(2, _N_COEFFICIENTS + 1)
    a = member.coefficients(_N_COEFFICIENTS)[1:]
    coefficient_max_ratio = float(np.max(np.abs(a) * n * (n - 1) / member.alpha))

    residual_min = float(np.min(member.real_part_bound_residual(z)))

    omega = member.subordination_witness(z)
    subordination_max = float(np.max(np.abs(omega)))
    origin_witness = abs(member.subordination_witness(0.0 + 0.0j))

    schwarz_report = norms(member, grid)

    roundtrip_error = None
    recovered = None
    if spec.blaschke is not None:
        roundtrip_error = blaschke_roundtrip_error(spec.blaschke, member.measure)
        recovered = [(float(t), float(w)) for t, w in
                     zip(member.measure.angles, member.measure.weights)]

    harmonic = None
    if spec.dilatation is not None:
        hmap = HarmonicMap(analytic_part=member, dilatation=spec.dilatation)
        holds, margin = univalence_criterion(hmap, grid)
        jac_min = float(np.min(hmap.jacobian(z)))
        winding_ok = all(winding_injectivity_probe(hmap, r, targets=20)
                         for r in (0.5, 0.9))
        harmonic = HarmonicChecks(univalence_criterion_holds=holds,
                                  criterion_margin=margin,
                                  jacobian_min=jac_min,
                                  winding_ok=winding_ok)

    checks = [
        membership_margin > 0.0,
        coefficient_max_ratio <= 1.0 + tol.pointwise,
        residual_min >= -tol.pointwise,
        subordination_max < 1.0,
        origin_witness <= tol.pointwise,
        schwarz_report.pre_schwarzian_norm.value
        <= schwarz_report.pre_schwarzian_bound + tol.norm,
        schwarz_report.schwarzian_norm.value
        <= schwarz_report.schwarzian_bound + tol.norm,
    ]
    if roundtrip_error is not None:
        checks.append(roundtrip_error < tol.roundtrip)
    if harmonic is not None:
        checks += [harmonic.jacobian_min > 0.0, harmonic.winding_ok]
        # the criterion is a sufficient condition only under alpha < 1/2
        if member.alpha < 0.5:
            checks.append(harmonic.univalence_criterion_holds)

    return VerifyReport(
        membership_margin=membership_margin,
        coefficient_max_ratio=coefficient_max_ratio,
        real_part_bound_min_residual=residual_min,
        subordination_max_modulus=subordination_max,
        schwarz=schwarz_report,
        roundtrip_error=roundtrip_error,
        recovered_atoms=recovered,
        harmonic=harmonic,
        passed=all(checks),
    )
