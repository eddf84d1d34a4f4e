"""Static checks on the package source."""

import ast
from pathlib import Path

import walkmat

PACKAGE = Path(walkmat.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no runtime check in the
    # package may be one; this sees every line, run or not
    paths = sorted(PACKAGE.rglob("*.py"))
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert paths and not found, found
