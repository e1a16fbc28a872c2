"""Certification must survive `python -O`, which strips assert statements."""

import ast
from pathlib import Path

import minbase
from minbase import errors, partitions


def test_package_source_has_no_assert():
    pkg = Path(minbase.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_certification_error_is_defined_once():
    assert partitions.CertificationError is errors.CertificationError
