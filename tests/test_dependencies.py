"""Every third-party package imported under ``src/`` or ``tests/`` is
declared in ``setup.py`` (as a requirement or in an extra)."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: First-party top-level packages.
FIRST_PARTY = {"repro"}


def imported_top_levels(root: Path) -> dict:
    """Top-level module name -> one file importing it (absolute imports)."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.relative_to(ROOT))
    return found


def declared_distributions() -> set:
    """Distribution names in ``install_requires`` and every extra."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    declared = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setup"):
            continue
        for keyword in node.keywords:
            value = ast.literal_eval(keyword.value) if keyword.arg in (
                "install_requires", "extras_require"
            ) else None
            if isinstance(value, dict):
                value = [req for reqs in value.values() for req in reqs]
            for requirement in value or ():
                name = re.split(r"[\s<>=!~;\[]", requirement, 1)[0]
                declared.add(name.lower().replace("-", "_"))
    return declared


def test_every_third_party_import_is_declared():
    imports = {}
    for part in ("src", "tests"):
        for name, path in imported_top_levels(ROOT / part).items():
            imports.setdefault(name, path)
    third_party = {
        name: path for name, path in imports.items()
        if name not in sys.stdlib_module_names and name not in FIRST_PARTY
    }
    declared = declared_distributions()
    missing = {
        name: str(path) for name, path in third_party.items()
        if name.lower() not in declared
    }
    assert not missing, f"imported but not declared in setup.py: {missing}"
    # The scan sees the imports this repository is known to need.
    assert {"networkx", "numpy", "pytest", "hypothesis"} <= set(third_party)
