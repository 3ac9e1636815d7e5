"""The public surface holds only names the program itself reaches.

Every name `rsedlab/__init__.py` exports must be used, as a name or an
attribute, somewhere in the library modules, `scripts/` or `perfbench/`.  A
name that only its own tests call belongs in those tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rsedlab"

# The readers at the RSEDCIRC and RSEDPERM1 trust boundaries, and the
# entanglement entropy that the pseudoentanglement item of ROADMAP.md consumes.
ALLOWED = {"parse", "load_permutation", "entanglement_entropy"}


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}


def _used() -> set[str]:
    """Every Name and attribute read in the program; a def or class line
    binds its name without using it, so it adds nothing here."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_reached_by_the_program():
    exported = _exported()
    assert ALLOWED <= exported
    assert sorted(exported - _used() - ALLOWED) == []
