import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import galpha
from galpha import (AtomicMeasure, BlaschkeProduct, DilatationSpec, FunctionSpec,
                    GAlphaFunction, HarmonicMap)
from galpha.complexfn import _fields_equal, _fields_hash


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
    # the generated == and hash of a dataclass would act on the array itself
    for info in pkgutil.iter_modules(galpha.__path__):
        module = importlib.import_module(f"galpha.{info.name}")
        for name, cls in inspect.getmembers(module, dataclasses.is_dataclass):
            if cls.__module__ != module.__name__ or not any(
                    "np.ndarray" in str(f.type) for f in dataclasses.fields(cls)):
                continue
            assert cls.__eq__ is _fields_equal, name
            assert cls.__hash__ is _fields_hash, name


def equal_record_pairs():
    """Pairs of equal records of every hashable value class, built apart."""
    def build(zero):
        phi = BlaschkeProduct(zeros=[zero, 0.5])
        measure = AtomicMeasure(angles=[0.0, 1.0], weights=[0.5, 0.5])
        member = GAlphaFunction(alpha=0.3, measure=measure)
        dilatation = DilatationSpec.blaschke_scaled(0.5, phi)
        return [phi, measure, member, dilatation,
                DilatationSpec.polynomial([zero, 0.2j]),
                HarmonicMap(analytic_part=member, dilatation=dilatation),
                FunctionSpec(alpha=0.3, blaschke=phi, dilatation=dilatation)]
    return zip(build(0.0), build(-0.0))


def test_equal_records_hash_equal():
    for a, b in equal_record_pairs():
        assert a == b and hash(a) == hash(b), type(a).__name__
        assert {a} == {b} and len({a, b}) == 1
        assert {a: type(a).__name__}[b] == type(a).__name__
