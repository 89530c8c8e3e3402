import ast
from pathlib import Path

import galpha


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
