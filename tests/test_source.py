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


def _referenced(tree) -> set[str]:
    """Every name, attribute and imported name that tree mentions."""
    return {node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}


def test_oracle_holds_only_what_its_callers_reach():
    # walkmat.oracle serves the stats and roundtrip commands and scripts/;
    # a public top-level name that they cannot reach, directly or through
    # another definition in oracle.py, is test-only code for tests/
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets
                        if isinstance(t, ast.Name))
    callers = [PACKAGE / "cli.py",
               *sorted((Path(__file__).resolve().parents[1] / "scripts")
                       .glob("*.py"))]
    frontier = set().union(*(_referenced(ast.parse(p.read_text()))
                             for p in callers)) & defs.keys()
    reached = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier |= (_referenced(defs[name]) & defs.keys()) - reached
    unreached = sorted(name for name in defs
                       if not name.startswith("_") and name not in reached)
    assert len(callers) > 1 and not unreached, unreached
