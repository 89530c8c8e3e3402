"""Input panels, operations and output checks for the benchmark workloads.

Each workload draws a fixed panel of inputs from PANEL_SEED and applies a
symmetry chosen by the run seed.  On the workloads that sweep galpha's
default grid the seed rotates every atom (and every Blaschke zero) by
k * 2 pi / 512, a multiple of the grid's angular step; on norms-small and
roundtrip it also shuffles the order of operations.  Such a rotation maps the grid onto itself, so the numerical
outcome of every operation (which members undershoot) is the same for every
seed, and the run-to-run spread of a metric measures the machine, not the
luck of the draw.  The panel seed is fixed once and never tuned: the
defects the panel exposes are reported as found.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
PANEL_SEED = 240714922
GRID_ANGLES = 512  # angles per circle of galpha.default_grid()

NORM_TOL = 1e-3  # galpha Tolerances.norm
BOUND_SLACK = 1e-6  # slack of the sharp-bound check in galpha.schwarz
ROUNDTRIP_TOL = 1e-8  # galpha Tolerances.roundtrip

# The ROADMAP item 2 member: norms() reports a Schwarzian norm ~8.4e-3 below
# its closed-form limit.
ITEM2_MEMBER = {"alpha": 0.444, "angles": [0.9025, 4.1982, 5.5588, 6.2819],
                "weights": [0.3288, 0.279, 0.0675, 0.3247]}

# Failures of these kinds are open ROADMAP items: they count in failed_frac
# but do not make a run incorrect.  Any other failure does.
KNOWN_DEFECTS = {
    "norm-undershoot": "ROADMAP item 2: a reported norm falls more than "
                       "Tolerances.norm below its closed-form limit",
    "inverse-conditioning": "ROADMAP item 4: blaschke_from_measure raises or "
                            "its product misses induced_self_map",
}

# comparison points for the inverse check: |z| <= 0.9, as in galpha.verify
_RADII = np.linspace(0.9 / 8, 0.9, 8)
INVERSE_SAMPLES = (np.exp(1j * TWO_PI * np.arange(96) / 96)[:, None]
                   * _RADII[None, :])


@dataclass
class Outcome:
    """What the output check found for one operation."""

    failures: list = field(default_factory=list)  # {"reason", "layer", "defect"}
    deficit: float | None = None  # max(0, closed-form limit - reported norm)
    roundtrip_error: float | None = None

    def fail(self, reason: str, layer: str, defect: str | None = None) -> None:
        self.failures.append({"reason": reason, "layer": layer, "defect": defect})


@dataclass
class Op:
    """One closed-loop operation: `call` is timed, `check` is not."""

    ident: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def norm_outcome(alpha: float, weights, pre: float, sch: float) -> Outcome:
    """Check both norms against the closed-form limits and the sharp bounds.

    As z -> conj(zeta_k) radially, (1-|z|^2)|P| -> 2 alpha t_k and
    (1-|z|^2)^2 |S| -> 2 alpha t_k (2 + alpha t_k), so each norm is at least
    the largest such limit.  For a single atom the limit equals the sharp
    bound, so this is also the 2 alpha / 2 alpha (2 + alpha) match.
    """
    t = np.asarray(weights, dtype=float)
    t = t / t.sum()
    checks = (
        ("pre-Schwarzian", pre, 2.0 * alpha * t.max(), 2.0 * alpha),
        ("Schwarzian", sch, float(np.max(2.0 * alpha * t * (2.0 + alpha * t))),
         2.0 * alpha * (2.0 + alpha)),
    )
    out = Outcome(deficit=0.0)
    for label, value, limit, bound in checks:
        out.deficit = max(out.deficit, limit - value)
        if value < limit - NORM_TOL:
            out.fail(f"{label} norm {value:.6g} below closed-form limit {limit:.6g}",
                     "complexfn.sup_norm_estimate", "norm-undershoot")
        if value > bound + BOUND_SLACK:
            out.fail(f"{label} norm {value:.6g} above sharp bound {bound:.6g}",
                     "schwarz.norms")
    return out


def _grid_rotation(rng: np.random.Generator) -> tuple[int, float]:
    """A random multiple of the default grid's angular step: (steps, angle)."""
    steps = int(rng.integers(GRID_ANGLES))
    return steps, TWO_PI * steps / GRID_ANGLES


def _random_atoms(rng: np.random.Generator, m: int) -> tuple[list, list]:
    while True:
        angles = np.sort(rng.uniform(0.0, TWO_PI, m))
        gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
        if m == 1 or gaps.min() > 1e-6:
            return angles.tolist(), rng.dirichlet(np.ones(m)).tolist()


def _alpha(rng: np.random.Generator, hi: float = 1.0) -> float:
    """A draw from (0, hi]."""
    return float(hi * (1.0 - rng.uniform()))


def _rotate_angles(angles, theta: float) -> list:
    return [float((a + theta) % TWO_PI) for a in angles]


def _rotate_product(zeros, prefactor_angle: float, theta: float):
    """Zeros and prefactor of e^(i theta) phi(e^(i theta) z).

    Its boundary roots turn by -theta, so the atoms of its measure turn by
    +theta.
    """
    rot = np.exp(1j * theta)
    rotated = np.asarray(zeros, dtype=complex) / rot
    return rotated, float((prefactor_angle + (len(rotated) + 1) * theta) % TWO_PI)


def _disk_zeros(rng: np.random.Generator, degree: int, r_max: float) -> np.ndarray:
    moduli = r_max * np.sqrt(rng.uniform(0.0, 1.0, degree))
    return moduli * np.exp(1j * rng.uniform(0.0, TWO_PI, degree))


def _complex(value) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


# ---------------------------------------------------------------- norms-small

class NormsSmall:
    name = "norms-small"
    nominal_pass_s = 6.6  # one pass at the defining commit, 2-core host
    why = ("galpha.norms() on members with 1-8 atoms: scalar refinement in "
           "complexfn.sup_norm_estimate does nearly all the work")

    def generate(self, seed: int) -> dict:
        panel = np.random.default_rng(PANEL_SEED)
        members = [
            {"id": "single-alpha-0.5", "alpha": 0.5, "angles": [0.0], "weights": [1.0]},
            {"id": "single-alpha-1", "alpha": 1.0, "angles": [0.0], "weights": [1.0]},
            dict(ITEM2_MEMBER, id="roadmap-item-2"),
        ]
        for i in range(24):
            m = 1 + i % 8
            angles, weights = _random_atoms(panel, m)
            members.append({"id": f"m{m}-{i:02d}", "alpha": _alpha(panel),
                            "angles": angles, "weights": weights})
        rng = np.random.default_rng(seed)
        steps, theta = _grid_rotation(rng)
        for member in members:
            member["angles"] = _rotate_angles(member["angles"], theta)
        order = rng.permutation(len(members)).tolist()
        return {"workload": self.name, "seed": seed, "rotation_steps": steps,
                "order": order, "members": members}

    def write(self, inputs: dict, directory: Path) -> list[Path]:
        path = directory / "inputs.json"
        path.write_text(json.dumps(inputs, sort_keys=True))
        return [path]

    def prepare(self, inputs: dict, directory: Path, galpha) -> list[Op]:
        ops = []
        for index in inputs["order"]:
            spec = inputs["members"][index]
            member = galpha.GAlphaFunction(
                alpha=spec["alpha"],
                measure=galpha.AtomicMeasure(angles=spec["angles"],
                                             weights=spec["weights"]))

            def call(member=member):
                return galpha.norms(member)

            def check(report, member=member) -> Outcome:
                return norm_outcome(member.alpha, member.measure.weights,
                                    report.pre_schwarzian_norm.value,
                                    report.schwarzian_norm.value)

            ops.append(Op(spec["id"], call, check))
        return ops


# --------------------------------------------------------------- verify-mixed

_DILATATION_KINDS = ("constant", "monomial", "polynomial", "blaschke_scaled")


def _dilatation(rng: np.random.Generator, kind: str, alpha: float) -> dict:
    """A dilatation with sup |omega| <= 0.9 (1 - 2 alpha).

    That is below 1 - alpha |z| (1 + |z|) on the disk, so the univalence
    criterion holds and the shear is univalent for alpha < 1/2.
    """
    cap = 0.9 * (1.0 - 2.0 * alpha) * rng.uniform(0.3, 1.0)
    phase = np.exp(1j * rng.uniform(0.0, TWO_PI))
    if kind == "constant":
        return {"kind": kind, "params": {"value": _complex(cap * phase)}}
    if kind == "monomial":
        return {"kind": kind, "params": {"scale": _complex(cap * phase),
                                         "degree": int(rng.integers(1, 5))}}
    if kind == "polynomial":
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        coeffs *= cap / np.abs(coeffs).sum()
        return {"kind": kind, "params": {"coefficients": [_complex(c) for c in coeffs]}}
    zeros = _disk_zeros(rng, 2, 0.8)
    return {"kind": kind, "params": {"scale": _complex(cap * phase),
                                     "zeros": [_complex(b) for b in zeros],
                                     "prefactor_angle": float(rng.uniform(0.0, TWO_PI))}}


class VerifyMixed:
    name = "verify-mixed"
    nominal_pass_s = 10.5
    why = ("galpha verify through cli.main on atom, harmonic and Blaschke specs "
           "with m up to 64: the product's main path and its O(m^2) kernels")

    # atom counts from 1 to 64; every third spec carries a dilatation
    ATOM_COUNTS = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64)
    BLASCHKE_DEGREES = (4, 8, 16)

    def generate(self, seed: int) -> dict:
        panel = np.random.default_rng(PANEL_SEED + 1)
        specs = []
        for i, m in enumerate(self.ATOM_COUNTS):
            angles, weights = _random_atoms(panel, m)
            spec = {"id": f"atoms-m{m}", "angles": angles, "weights": weights}
            if i % 3 == 1:
                kind = _DILATATION_KINDS[(i // 3) % 4]
                spec["alpha"] = _alpha(panel, 0.45)
                spec["dilatation"] = _dilatation(panel, kind, spec["alpha"])
                spec["id"] += f"-{kind}"
            else:
                spec["alpha"] = _alpha(panel)
            specs.append(spec)
        for degree in self.BLASCHKE_DEGREES:
            zeros = _disk_zeros(panel, degree, 0.9)
            specs.append({"id": f"blaschke-d{degree}", "alpha": _alpha(panel),
                          "zeros": zeros.tolist(),
                          "prefactor_angle": float(panel.uniform(0.0, TWO_PI))})
        specs.append(dict(ITEM2_MEMBER, id="roadmap-item-2"))

        rng = np.random.default_rng(seed)
        steps, theta = _grid_rotation(rng)
        files = {}
        for spec in specs:
            data = {"alpha": spec["alpha"]}
            if "zeros" in spec:
                zeros, pre = _rotate_product(spec["zeros"], spec["prefactor_angle"], theta)
                data["blaschke"] = {"zeros": [_complex(b) for b in zeros],
                                    "prefactor_angle": pre}
            else:
                data["atoms"] = [{"theta": a, "weight": w} for a, w in
                                 zip(_rotate_angles(spec["angles"], theta),
                                     spec["weights"])]
            if "dilatation" in spec:
                data["dilatation"] = spec["dilatation"]
            files[spec["id"]] = data
        # The order stays fixed: peak RSS depends on which large-m specs ran
        # before the largest one, through heap fragmentation.
        return {"workload": self.name, "seed": seed, "rotation_steps": steps,
                "order": [spec["id"] for spec in specs], "specs": files}

    def write(self, inputs: dict, directory: Path) -> list[Path]:
        paths = []
        for ident, data in sorted(inputs["specs"].items()):
            path = directory / f"{ident}.json"
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
            paths.append(path)
        index = directory / "inputs.json"
        index.write_text(json.dumps({k: v for k, v in inputs.items() if k != "specs"},
                                    sort_keys=True))
        return paths + [index]

    def prepare(self, inputs: dict, directory: Path, galpha) -> list[Op]:
        ops = []
        for ident in inputs["order"]:
            spec_path = directory / f"{ident}.json"
            report_path = directory / f"{ident}.report.json"
            data = inputs["specs"][ident]

            def call(spec_path=spec_path, report_path=report_path):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = galpha.cli.main(["verify", str(spec_path),
                                            "--out", str(report_path)])
                return code, sink.getvalue()

            def check(result, report_path=report_path, data=data) -> Outcome:
                return self._check(result, report_path, data)

            ops.append(Op(ident, call, check))
        return ops

    @staticmethod
    def _check(result, report_path: Path, data: dict) -> Outcome:
        code, text = result
        if code != 0:
            out = Outcome()
            last = text.strip().splitlines()[-1] if text.strip() else ""
            out.fail(f"verify exited {code}: {last}", "cli.main")
            return out
        report = json.loads(report_path.read_text())
        report_path.unlink()
        sch = report["schwarz"]
        if "atoms" in data:
            weights = [a["weight"] for a in data["atoms"]]
        else:
            weights = [w for _, w in report["recovered_atoms"]]
        out = norm_outcome(sch["alpha"], weights, sch["pre_schwarzian_norm"],
                           sch["schwarzian_norm"])
        if report["roundtrip_error"] is not None:
            out.roundtrip_error = report["roundtrip_error"]
        return out


# ------------------------------------------------------------------ roundtrip

class Roundtrip:
    name = "roundtrip"
    nominal_pass_s = 2.3
    why = ("Blaschke products of degree 8-128 through boundary_roots and back: "
           "the inverse correspondence, with no norm refinement")

    DEGREES = (8, 12, 16, 24, 32, 48, 64, 96, 128)

    def generate(self, seed: int) -> dict:
        panel = np.random.default_rng(PANEL_SEED + 2)
        products = []
        for degree in self.DEGREES:
            zeros = _disk_zeros(panel, degree, 0.9)
            # some zeros near the circle: |b| in [0.99, 0.999]
            near = max(1, degree // 16)
            moduli = 1.0 - 10.0 ** -panel.uniform(2.0, 3.0, near)
            moduli[0] = 0.999
            zeros[:near] = moduli * np.exp(1j * panel.uniform(0.0, TWO_PI, near))
            products.append({"id": f"d{degree}", "zeros": zeros,
                             "prefactor_angle": float(panel.uniform(0.0, TWO_PI))})
        for product in products:
            product["zeros"] = [[float(b.real), float(b.imag)] for b in product["zeros"]]
        # No rotation here: the explicit inverse is so ill-conditioned that a
        # rotation of the input changes its degree-32 error from 5e-11 to
        # 1e-6, so the seed only shuffles the order.
        order = np.random.default_rng(seed).permutation(len(products)).tolist()
        return {"workload": self.name, "seed": seed, "rotation_steps": 0,
                "order": order, "products": products}

    def write(self, inputs: dict, directory: Path) -> list[Path]:
        path = directory / "inputs.json"
        path.write_text(json.dumps(inputs, sort_keys=True))
        return [path]

    def prepare(self, inputs: dict, directory: Path, galpha) -> list[Op]:
        ops = []
        for index in inputs["order"]:
            spec = inputs["products"][index]
            phi = galpha.BlaschkeProduct(
                zeros=np.asarray([complex(re, im) for re, im in spec["zeros"]]),
                prefactor=np.exp(1j * spec["prefactor_angle"]))

            def call(phi=phi):
                measure = galpha.measure_from_blaschke(phi)
                error = galpha.blaschke_roundtrip_error(phi, measure)
                try:
                    rebuilt = galpha.blaschke_from_measure(measure)
                except galpha.ConvergenceError as exc:
                    return error, exc
                z = INVERSE_SAMPLES
                return error, float(np.max(np.abs(
                    rebuilt(z) - galpha.induced_self_map(measure, z))))

            ops.append(Op(spec["id"], call, self._check))
        return ops

    @staticmethod
    def _check(result) -> Outcome:
        error, inverse = result
        out = Outcome(roundtrip_error=error)
        if not error < ROUNDTRIP_TOL:
            out.fail(f"round-trip error {error:.3e} >= {ROUNDTRIP_TOL:g}",
                     "family.measure_from_blaschke")
        if isinstance(inverse, Exception):
            out.fail(f"{type(inverse).__name__}: {inverse}",
                     "family.blaschke_from_measure", "inverse-conditioning")
        elif not inverse < ROUNDTRIP_TOL:
            out.fail(f"rebuilt product misses induced_self_map by {inverse:.3e}",
                     "family.blaschke_from_measure", "inverse-conditioning")
        return out


WORKLOADS = {w.name: w for w in (NormsSmall(), VerifyMixed(), Roundtrip())}
