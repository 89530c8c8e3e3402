import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import galpha
from galpha import (AtomicMeasure, BlaschkeProduct, Check, DilatationSpec, FunctionSpec,
                    GAlphaFunction, HarmonicMap, NormEstimate, SchwarzReport, VerifyReport,
                    run_verification, verify)
from galpha.complexfn import DiskGrid, _Record


def test_every_exported_name_resolves():
    missing = [name for name in galpha.__all__ if not hasattr(galpha, name)]
    assert missing == []
    assert len(set(galpha.__all__)) == len(galpha.__all__)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, quoted annotations included."""
    tree = ast.parse(source)
    imported, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
    quoted = [ast.parse(n.value, mode="eval")
              for a in annotations if a is not None for n in ast.walk(a)
              if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    used = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(Path(galpha.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def private_definitions(tree: ast.Module) -> set[str]:
    """Private module-level functions and constants, and private methods."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ClassDef):
            names |= {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def test_no_unread_private_names():
    # a name counts as read where it is loaded or taken as an attribute;
    # definitions, assignments and imports do not read it
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(galpha.__file__).parent.glob("*.py"))]
    defined = set().union(*map(private_definitions, trees))
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name)
                                                 and isinstance(n.ctx, ast.Load))}
    assert sorted(defined - read) == []


def test_array_records_compare_and_hash_by_value():
    # one base gives every record its == and hash, by value over the fields
    # and elementwise over arrays, where a generated == would take the
    # truth value of an array; every class a galpha module defines,
    # exceptions and the base aside, is a record
    classes = {}
    for info in pkgutil.iter_modules(galpha.__path__):
        module = importlib.import_module(f"galpha.{info.name}")
        classes.update((name, cls) for name, cls in inspect.getmembers(module, inspect.isclass)
                       if cls.__module__ == module.__name__ and cls is not _Record
                       and not issubclass(cls, Exception))
    assert sorted(classes) == sorted(RECORD_SIGNATURES)
    for name, cls in classes.items():
        assert issubclass(cls, _Record), name
        assert cls.__eq__ is _Record.__eq__ and cls.__hash__ is _Record.__hash__, name


def test_no_generated_code_at_import():
    # numpy first, as every galpha process loads it; then every source
    # compiled while galpha and its CLI import, and every dataclass they define
    probe = (
        "import json, sys, numpy\n"
        "compiled, importing = [], True\n"
        "def hook(event, args):\n"
        "    if importing and event == 'compile':\n"
        "        compiled.append(str(args[1]))\n"
        "sys.addaudithook(hook)\n"
        "import galpha, galpha.cli\n"
        "importing = False\n"
        "import dataclasses, inspect\n"
        "classes = [f'{m.__name__}.{n}' for m in list(sys.modules.values())\n"
        "           if m.__name__.startswith('galpha')\n"
        "           for n, c in inspect.getmembers(m, dataclasses.is_dataclass)]\n"
        "print(json.dumps({'strings': compiled.count('<string>'), 'dataclasses': classes}))\n")
    src = str(Path(galpha.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(done.stdout) == {"strings": 0, "dataclasses": []}


EMPTY = inspect.Parameter.empty
# each record's constructor: its parameters, in order, with their defaults
RECORD_SIGNATURES = {
    "AtomicMeasure": (("angles", EMPTY), ("weights", EMPTY)),
    "BlaschkeProduct": (("zeros", EMPTY), ("prefactor", 1.0 + 0.0j)),
    "Check": (("name", EMPTY), ("value", EMPTY), ("comparison", EMPTY), ("threshold", EMPTY),
              ("evidence", EMPTY)),
    "DilatationSpec": (("coefficients", None), ("scale", 1.0 + 0.0j), ("blaschke", None)),
    "DiskGrid": (),
    "FunctionSpec": (("alpha", EMPTY), ("measure", None), ("blaschke", None),
                     ("dilatation", None)),
    "GAlphaFunction": (("alpha", EMPTY), ("measure", EMPTY)),
    "HarmonicMap": (("analytic_part", EMPTY), ("dilatation", EMPTY)),
    "NormEstimate": (("value", EMPTY), ("argmax", EMPTY)),
    "SchwarzReport": (("pre_schwarzian_norm", EMPTY), ("schwarzian_norm", EMPTY),
                      ("alpha", EMPTY), ("source", EMPTY)),
    "VerifyReport": (("checks", EMPTY), ("schwarz", EMPTY), ("recovered_atoms", EMPTY)),
}
# the attributes a record derives from its fields
DERIVED = {"AtomicMeasure": ("atoms",), "Check": ("passed",), "DilatationSpec": ("sup_bound",),
           "DiskGrid": ("radii", "angles", "points", "cells"), "FunctionSpec": ("member",),
           "VerifyReport": ("passed",)}


def test_record_constructors_keep_their_signatures():
    classes = {**vars(galpha), "DiskGrid": DiskGrid}  # galpha does not export DiskGrid
    for name in RECORD_SIGNATURES:
        params = inspect.signature(classes[name]).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), name
        assert tuple((p.name, p.default) for p in params) == RECORD_SIGNATURES[name], name


def equal_record_pairs():
    """Pairs of equal records of every value class, built apart."""
    def build(zero):
        phi = BlaschkeProduct(zeros=[zero, 0.5])
        measure = AtomicMeasure(angles=[0.0, 1.0], weights=[0.5, 0.5])
        member = GAlphaFunction(alpha=0.3, measure=measure)
        dilatation = DilatationSpec.blaschke_scaled(0.5, phi)
        spec = FunctionSpec(alpha=0.3, blaschke=phi, dilatation=dilatation)
        estimate = NormEstimate(value=0.5, argmax=complex(zero, 1.0))
        return [phi, measure, member, dilatation,
                DilatationSpec.polynomial([zero, 0.2j]),
                HarmonicMap(analytic_part=member, dilatation=dilatation), spec,
                Check("c", zero, "<=", 1.0, "bound"), estimate,
                SchwarzReport(estimate, estimate, 0.3, "search"),
                run_verification(spec), DiskGrid()]
    return zip(build(0.0), build(-0.0))


def test_equal_records_hash_equal():
    pairs = list(equal_record_pairs())
    assert {type(a).__name__ for a, _ in pairs} == set(RECORD_SIGNATURES)
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), type(a).__name__
        assert {a} == {b} and len({a, b}) == 1
        assert {a: type(a).__name__}[b] == type(a).__name__


def test_records_are_immutable_and_show_their_fields():
    for record, _ in equal_record_pairs():
        name = type(record).__name__
        fields = [f for f, _ in RECORD_SIGNATURES[name]]
        for attr in fields + list(DERIVED.get(name, ())):
            value = getattr(record, attr)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, attr, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, attr)
            assert getattr(record, attr) is value, (name, attr)
        # repr shows the fields, not the derived attributes
        shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
        assert repr(record) == f"{name}({shown})"


@pytest.mark.parametrize("comparison", sorted(verify._COMPARISONS))
def test_check_verdict_is_derived_once(comparison):
    # passed is value comparison threshold, formed in __init__; a record
    # with the same fields and a flipped verdict stays equal, with the same
    # hash and repr, and to_dict carries the verdict it holds
    compare = verify._COMPARISONS[comparison]
    for value, threshold in [(0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (True, True), (False, True)]:
        check = Check("c", value, comparison, threshold, "bound")
        assert check.passed is bool(compare(value, threshold))
        assert check.to_dict() == dict(name="c", value=value, comparison=comparison,
                                       threshold=threshold, evidence="bound",
                                       passed=check.passed)
        flipped = Check("c", value, comparison, threshold, "bound")
        vars(flipped)["passed"] = not check.passed
        assert flipped == check and hash(flipped) == hash(check)
        assert repr(flipped) == repr(check) and "passed" not in repr(check)
        assert flipped.to_dict()["passed"] is not check.passed
    assert "passed" not in Check._fields and "passed" not in VerifyReport._fields


def test_report_verdict_is_derived_once():
    spec = FunctionSpec(alpha=0.5, measure=AtomicMeasure(angles=[0.0], weights=[1.0]))
    report = run_verification(spec)
    failing = Check("c", 2.0, "<=", 1.0, "bound")
    assert report.passed and all(c.passed for c in report.checks)
    assert not VerifyReport(report.checks + [failing], report.schwarz, None).passed
    assert report.to_dict()["passed"] is True
