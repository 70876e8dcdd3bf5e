"""Every public module-level function and class of `pursuit_lab` has a caller.

The sources of `src/pursuit_lab` are scanned with `ast`. A public name (no
leading underscore) defined at module level counts as used when code in
`src/pursuit_lab` refers to it: by a `Name` in its own module or in a module
that imports it with `from .module import name`, or by an `Attribute`
`module.name` on a module imported with `from . import module`. A public name
that only the tests use belongs in `tests/`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "pursuit_lab"

#: Public names kept without a caller in `src`, each with its reason.
ALLOWED = {
    "sim.TrajectoryLog": "the per-step episode log that `render` reads; the CLI does not write one yet",
}


def public_definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def references(module: str, tree: ast.Module) -> set[str]:
    """Qualified `module.name` of every package name this module refers to."""
    imported_names = {}  # local name -> "module.name"
    imported_modules = {}  # local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    imported_modules[local] = alias.name
                else:
                    imported_names[local] = f"{node.module}.{alias.name}"
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(imported_names.get(node.id, f"{module}.{node.id}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in imported_modules:
                found.add(f"{imported_modules[node.value.id]}.{node.attr}")
    return found


def scan() -> tuple[set[str], set[str]]:
    """(public definitions, references), both as `module.name`."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {f"{path.stem}.{name}" for name in public_definitions(tree)}
        used |= references(path.stem, tree)
    return defined, used


def test_every_public_name_has_a_caller():
    defined, used = scan()
    assert sorted(defined - used - set(ALLOWED)) == []


def test_allowed_names_exist_and_have_no_caller():
    # an entry whose name gained a caller or was deleted leaves the allowlist
    defined, used = scan()
    assert set(ALLOWED) <= defined - used
