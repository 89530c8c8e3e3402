"""Numerical toolkit for the disk family defined by Re(z h''/(alpha h')) < 1/2.

Members are built from finite atomic measures on the unit circle, correspond
bijectively to finite Blaschke products through the boundary roots of
z*phi(z) = 1, satisfy sharp pre-Schwarzian/Schwarzian norm bounds, and serve
as analytic parts of sheared univalent harmonic mappings.
"""

from .blaschke import BlaschkeProduct, boundary_roots
from .complexfn import ConvergenceError, DomainError, NormEstimate
from .family import (AtomicMeasure, GAlphaFunction, blaschke_from_measure,
                     induced_self_map, measure_from_blaschke,
                     roots_of_unity_measure, single_atom)
from .harmonic import DilatationSpec, HarmonicMap, univalence_criterion
from .schwarz import SchwarzReport, norms, pre_schwarzian, schwarzian
from .specfile import (FunctionSpec, SpecFileError, load_function_spec,
                       save_function_spec)
from .verify import Check, VerifyReport, blaschke_roundtrip_error, run_verification

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "BlaschkeProduct",
    "Check",
    "ConvergenceError",
    "DilatationSpec",
    "DomainError",
    "FunctionSpec",
    "GAlphaFunction",
    "HarmonicMap",
    "NormEstimate",
    "SchwarzReport",
    "SpecFileError",
    "VerifyReport",
    "blaschke_from_measure",
    "blaschke_roundtrip_error",
    "boundary_roots",
    "induced_self_map",
    "load_function_spec",
    "measure_from_blaschke",
    "norms",
    "pre_schwarzian",
    "roots_of_unity_measure",
    "run_verification",
    "save_function_spec",
    "schwarzian",
    "single_atom",
    "univalence_criterion",
]
