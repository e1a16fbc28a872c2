"""Every name a module imports is used in it, in the package and the tests."""

import ast
from pathlib import Path

import minbase

ROOTS = [Path(minbase.__file__).parent, Path(__file__).parent]


def unused_imports(source):
    """(line, name) of each imported name that the module never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport os.path\nfrom x import y as z\nos\n") == [
        (1, "math"), (3, "z")]


def test_no_unused_imports():
    found = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for root in ROOTS
        for path in sorted(root.glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
