"""Load and save function-spec files (JSON) describing family members.

A spec carries alpha plus exactly one function source -- an atom list or a
Blaschke product -- and optionally a dilatation for harmonic shears:

    {"alpha": 0.5,
     "atoms": [{"theta": 0.0, "weight": 0.25}, {"theta": 3.14159, "weight": 0.75}],
     "dilatation": {"kind": "constant", "params": {"value": {"re": 0.1, "im": 0.0}}}}

    {"alpha": 0.5, "blaschke": {"zeros": [{"re": 0.5, "im": 0.0}],
                                "prefactor_angle": 0.0}}

Angles are radians.  Constant and monomial dilatations load as polynomials
and are saved as such.  A key an object does not define, at any level, is
rejected rather than ignored, so a misspelled key cannot fall back to its
default.  All invariants, the member's included (the alpha range and the
Blaschke root solve), are enforced on load; floats are written with
Python's shortest round-trip repr, so load -> save -> load is an identity
on the in-memory values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .blaschke import BlaschkeProduct
from .complexfn import ConvergenceError, _Record
from .family import AtomicMeasure, GAlphaFunction, measure_from_blaschke
from .harmonic import DilatationSpec

# A polynomial dilatation's sup bound takes one FFT of N >= 64 n points for
# degree n; this bound keeps N <= 2^18 (~11 ms), for monomial degrees and
# coefficient lists alike.
_MAX_DEGREE = 4096
# the params each dilatation kind reads
_PARAMS = {"constant": ("value",), "monomial": ("scale", "degree"),
           "polynomial": ("coefficients",),
           "blaschke_scaled": ("scale", "zeros", "prefactor_angle")}


class SpecFileError(ValueError):
    """A spec file is malformed or violates a constructor invariant."""


class FunctionSpec(_Record):
    """In-memory form of a spec file; exactly one of measure/blaschke is set,
    and member is the family member, built from it once."""

    def __init__(self, alpha: float, measure: AtomicMeasure | None = None,
                 blaschke: BlaschkeProduct | None = None,
                 dilatation: DilatationSpec | None = None) -> None:
        if (measure is None) == (blaschke is None):
            raise SpecFileError("exactly one of atoms/blaschke must be present")
        member = GAlphaFunction(alpha=alpha, measure=measure if measure is not None
                                else measure_from_blaschke(blaschke))
        vars(self).update(alpha=alpha, measure=measure, blaschke=blaschke,
                          dilatation=dilatation, member=member)


def _number(value, what: str) -> float:
    """A JSON number (int or float, not bool) as a float; else SpecFileError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise SpecFileError(f"{what} must be a number, got {value!r}")


def _known_keys(obj, keys: tuple[str, ...], where: str) -> None:
    """Reject a key of the object obj outside keys; a non-object is the caller's to check."""
    unknown = sorted(set(obj) - set(keys)) if isinstance(obj, dict) else []
    if unknown:
        raise SpecFileError(f"{where} has unknown key {unknown[0]!r} "
                            f"(expected {', '.join(keys)})")


def _complex_from(obj, where: str) -> complex:
    _known_keys(obj, ("re", "im"), where)
    try:
        return complex(_number(obj["re"], "re"), _number(obj["im"], "im"))
    except (TypeError, KeyError, ValueError):
        raise SpecFileError(f"{where} must be an object with re/im numbers") from None


def _complex_to(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def spec_from_dict(data: dict) -> FunctionSpec:
    """Build a FunctionSpec from parsed JSON, enforcing every invariant: a
    constructor's ValueError or ConvergenceError becomes a SpecFileError."""
    try:
        if not isinstance(data, dict):
            raise SpecFileError("spec must be a JSON object")
        _known_keys(data, ("alpha", "atoms", "blaschke", "dilatation"), "spec")
        if "alpha" not in data:
            raise SpecFileError("spec must provide alpha")
        alpha = _number(data["alpha"], "alpha")

        measure = None
        phi = None
        if "atoms" in data:
            atoms = data["atoms"]
            if not isinstance(atoms, list) or not atoms:
                raise SpecFileError("atoms must be a nonempty list")
            for atom in atoms:
                _known_keys(atom, ("theta", "weight"), "atom")
            try:
                angles = [_number(a["theta"], "theta") for a in atoms]
                weights = [_number(a["weight"], "weight") for a in atoms]
            except (TypeError, KeyError, ValueError):
                raise SpecFileError("every atom needs numeric theta and weight") from None
            measure = AtomicMeasure(angles=angles, weights=weights)
        if "blaschke" in data:
            _known_keys(data["blaschke"], ("zeros", "prefactor_angle"), "blaschke")
            phi = _blaschke_from(data["blaschke"], "blaschke")

        dilatation = None
        if "dilatation" in data:
            dilatation = _dilatation_from(data["dilatation"])

        return FunctionSpec(alpha=alpha, measure=measure, blaschke=phi,
                            dilatation=dilatation)
    except SpecFileError:
        raise
    except (ValueError, ConvergenceError) as exc:
        raise SpecFileError(str(exc)) from exc


def _blaschke_from(raw, where: str) -> BlaschkeProduct:
    if not isinstance(raw, dict) or not isinstance(raw.get("zeros"), list):
        raise SpecFileError(f"{where} must be an object with a zeros list")
    zeros = [_complex_from(b, f"{where} zero") for b in raw["zeros"]]
    prefactor = np.exp(1j * _number(raw.get("prefactor_angle", 0.0),
                                    f"{where} prefactor_angle"))
    return BlaschkeProduct(zeros=np.asarray(zeros, dtype=complex), prefactor=prefactor)


def _blaschke_to(phi: BlaschkeProduct) -> dict:
    return {"zeros": [_complex_to(b) for b in phi.zeros],
            "prefactor_angle": float(np.angle(phi.prefactor))}


def _dilatation_from(raw) -> DilatationSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SpecFileError("dilatation must be an object with a kind")
    _known_keys(raw, ("kind", "params"), "dilatation")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _PARAMS:
        raise SpecFileError(f"unknown dilatation kind {kind!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SpecFileError("dilatation params must be an object")
    _known_keys(params, _PARAMS[kind], f"{kind} dilatation params")
    if kind == "blaschke_scaled":
        scale = _complex_from(params.get("scale"), "dilatation scale")
        phi = _blaschke_from(params, "blaschke_scaled dilatation")
        return DilatationSpec.blaschke_scaled(scale, phi)
    if kind == "constant":
        return DilatationSpec.constant(_complex_from(params.get("value"), "dilatation value"))
    if kind == "monomial":
        degree = _number(params.get("degree", 1), "monomial degree")
        if not (degree.is_integer() and degree <= _MAX_DEGREE):
            raise SpecFileError(f"monomial degree must be an integer of at most "
                                f"{_MAX_DEGREE}, got {degree!r}")
        scale = _complex_from(params.get("scale"), "dilatation scale")
        return DilatationSpec.monomial(scale, int(degree))
    coeffs = params.get("coefficients")
    if not isinstance(coeffs, list) or not coeffs:
        raise SpecFileError("polynomial dilatation needs a coefficients list")
    if len(coeffs) > _MAX_DEGREE + 1:
        raise SpecFileError(f"polynomial dilatation takes at most {_MAX_DEGREE + 1} "
                            f"coefficients, got {len(coeffs)}")
    return DilatationSpec.polynomial([_complex_from(c, "dilatation coefficient")
                                      for c in coeffs])


def spec_to_dict(spec: FunctionSpec) -> dict:
    data: dict = {"alpha": float(spec.alpha)}
    if spec.measure is not None:
        data["atoms"] = [{"theta": float(t), "weight": float(w)}
                         for t, w in zip(spec.measure.angles, spec.measure.weights)]
    if spec.blaschke is not None:
        data["blaschke"] = _blaschke_to(spec.blaschke)
    if spec.dilatation is not None:
        data["dilatation"] = _dilatation_to(spec.dilatation)
    return data


def _dilatation_to(spec: DilatationSpec) -> dict:
    if spec.blaschke is None:
        return {"kind": "polynomial",
                "params": {"coefficients": [_complex_to(c) for c in spec.coefficients]}}
    return {"kind": "blaschke_scaled",
            "params": {"scale": _complex_to(spec.scale), **_blaschke_to(spec.blaschke)}}


def load_function_spec(path: str | Path) -> FunctionSpec:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"spec file is not valid JSON: {exc}") from exc
    return spec_from_dict(data)


def save_function_spec(spec: FunctionSpec, path: str | Path) -> None:
    Path(path).write_text(dumps_spec(spec))


def dumps_spec(spec: FunctionSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"
