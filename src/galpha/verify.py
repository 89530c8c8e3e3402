"""The verification battery: every family property checked on one member.

`run_verification` returns a VerifyReport whose one list of named Check
records (value, comparison, threshold, evidence) covers membership, the
coefficient bound, the sharp real-part bound, the subordination
h' = (1 - omega)^alpha with |omega(z)| <= |z|, both norms, the Blaschke
round trip (for product specs) and the harmonic-shear checks (for specs
with a dilatation).  Its verdict, text and JSON all read that list; a
shear's injectivity is checked only through the univalence criterion, so
only for alpha < 1/2.  Its norm block is the closed-form enclosure of
`radial_limit_report`, with no search.  `galpha norms` emits the same
report with only the two norm checks and the norms searched on
`DiskGrid()`.  Membership, the real-part bound, |omega| < 1 and both norms
hold for every member, so they are exact checks naming their certificate,
in G(z) = sum_k t_k/(1 - zeta_k z), which lies in the disk
|G - 1| <= |z||G| (Ahlfors, Complex Analysis, 1979), or in
(1 - |z|^2)/|1 - zeta_k z| < 2 (proofs in tests/test_certificates.py).
The coefficient ratio is a bound: it first takes a forward-error bound
off |a_n|.
"""

from __future__ import annotations

import operator

import numpy as np

from .complexfn import TWO_PI, _Record
from .family import induced_self_map
from .harmonic import HarmonicMap, univalence_criterion
from .schwarz import SchwarzReport, radial_limit_report
from .specfile import FunctionSpec

# the round trip is compared on these 96 points of |z| = 0.9, where its
# error on |z| <= 0.9 peaks (see blaschke_roundtrip_error)
_ROUNDTRIP_POINTS = 0.9 * np.exp(1j * (TWO_PI * np.arange(96) / 96))
# the roundtrip_error check's threshold
ROUNDTRIP_TOL = 1e-8
# coefficients a_2..a_N checked against |a_n| <= alpha / (n (n - 1))
_N_COEFFICIENTS = 50
_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge, "==": operator.eq}


class Check(_Record):
    """A named check that passes when `value comparison threshold` holds;
    evidence is `exact: <certificate>`, `bound` or `sampled`.  The verdict,
    passed, is formed once from the fields and is outside ==, hash and repr."""

    def __init__(self, name: str, value: float | bool, comparison: str,
                 threshold: float | bool, evidence: str) -> None:
        vars(self).update(name=name, value=value, comparison=comparison, threshold=threshold,
                          evidence=evidence,
                          passed=bool(_COMPARISONS[comparison](value, threshold)))

    def render(self) -> str:
        """The text line `name : value  (comparison threshold)  [evidence]  ok|FAIL`."""
        value, threshold = (str(x) if isinstance(x, bool) else f"{x:.12g}"
                            for x in (self.value, self.threshold))
        return (f"  {self.name:<29}: {value}  ({self.comparison} {threshold})  "
                f"[{self.evidence}]  {'ok' if self.passed else 'FAIL'}")

    def to_dict(self) -> dict:
        """The JSON record of the check, with its verdict."""
        return dict(vars(self))


class VerifyReport(_Record):
    """Its verdict, passed (every check passed), is formed once, outside ==, hash and repr."""

    def __init__(self, checks: list[Check], schwarz: SchwarzReport,
                 recovered_atoms: list | None) -> None:
        vars(self).update(checks=checks, schwarz=schwarz, recovered_atoms=recovered_atoms,
                          passed=all(c.passed for c in checks))

    def to_dict(self) -> dict:
        roundtrip = [c.value for c in self.checks if c.name == "roundtrip_error"]
        return {
            "checks": [c.to_dict() for c in self.checks],
            "schwarz": self.schwarz.to_dict(),
            "roundtrip_error": roundtrip[0] if roundtrip else None,
            "recovered_atoms": self.recovered_atoms,
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = ["verification report"]
        lines += [c.render() for c in self.checks]
        sch = self.schwarz
        for name in ("pre_schwarzian", "schwarzian"):
            est, bound = getattr(sch, f"{name}_norm"), getattr(sch, f"{name}_bound")
            lines.append(f"  {name + '_estimate':<29}: {est.value:.12g}  (bound {bound:.12g})"
                         f"  [{sch.source}]")
            lines.append(f"  {name + '_argmax':<29}: {est.argmax:.6f}")
        if sch.qc_constant is not None:
            lines.append(f"  {'quasiconformal constant':<29}: {sch.qc_constant:.9f}")
        if self.recovered_atoms is not None:
            lines.append("  recovered atoms (theta, weight):")
            for theta, weight in self.recovered_atoms:
                lines.append(f"    ({theta:.12f}, {weight:.12f})")
        lines.append(f"  {'result':<29}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def norm_checks() -> list[Check]:
    """Both sharp norm bounds, from (1 - |z|^2)/|1 - zeta_k z| <= 1 + |z| < 2
    summed with sum_k t_k = 1; the printed norm values decide nothing."""
    return [Check("pre_schwarzian_norm", True, "==", True,
                  "exact: (1-|z|^2)|P| <= alpha sum_k t_k (1-|z|^2)/|1 - zeta_k z| < 2 alpha"),
            Check("schwarzian_norm", True, "==", True,
                  "exact: (1-|z|^2)^2 |S| <= (1-|z|^2)^2 (|P'| + |P|^2/2) < 2 alpha (2 + alpha)")]


def blaschke_roundtrip_error(phi, measure) -> float:
    """Max pointwise |phi - phi_hat| on |z| <= 0.9 through the measure,
    read on 96 points of |z| = 0.9: phi's poles 1/conj(b) lie outside the
    disk and phi_hat = H/G with Re G > 1/2, so phi - phi_hat is analytic on
    |z| <= 0.9 and, by the maximum modulus principle, peaks on its rim."""
    z = _ROUNDTRIP_POINTS
    return float(np.max(np.abs(phi(z) - induced_self_map(measure, z))))


def run_verification(spec: FunctionSpec) -> VerifyReport:
    """The battery on spec's member; its norms are the closed-form enclosure."""
    member = spec.member
    n = np.arange(2, _N_COEFFICIENTS + 1)
    a, error = member.coefficients(_N_COEFFICIENTS, error_bound=True)

    checks = [
        Check("membership_margin", True, "==", True,
              "exact: 1/2 - Re(z h''/(alpha h')) = Re G - 1/2 > 0"),
        Check("coefficient_max_ratio",
              float(np.max((np.abs(a[1:]) - error[1:]) * n * (n - 1) / member.alpha)),
              "<=", 1.0, "bound"),
        Check("real_part_bound_min_residual", True, "==", True,
              "exact: residual = (alpha/2)(|G|^2 - |G - 1|^2/|z|^2) >= 0"),
        Check("subordination_max_modulus", True, "==", True,
              "exact: |omega(z)| <= |z| (Schwarz lemma)"),
        *norm_checks(),
    ]

    recovered = None
    if spec.blaschke is not None:
        measure = member.measure
        checks.append(Check("roundtrip_error", blaschke_roundtrip_error(spec.blaschke, measure),
                            "<", ROUNDTRIP_TOL, "sampled"))
        recovered = [(float(t), float(w)) for t, w in zip(measure.angles, measure.weights)]

    if spec.dilatation is not None:
        # J = |h'|^2 (1 - |omega|^2) > 0 on the disk, as h' != 0 there
        checks.append(Check("dilatation_sup", spec.dilatation.sup_bound, "<", 1.0, "bound"))
        # the criterion implies univalence only under alpha < 1/2; for
        # alpha >= 1/2 the report makes no injectivity claim
        if member.alpha < 0.5:
            hmap = HarmonicMap(analytic_part=member, dilatation=spec.dilatation)
            checks.append(Check("univalence_criterion_margin",
                                univalence_criterion(hmap)[1], ">=", 0.0, "bound"))

    return VerifyReport(checks=checks, schwarz=radial_limit_report(member),
                        recovered_atoms=recovered)
