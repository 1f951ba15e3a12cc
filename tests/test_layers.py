"""The package's layers, pinned: the modules each module imports from inside
the package when it is loaded.  Imports inside functions load a module only
when they run (each CLI command loads what it runs), so they are not counted
here, except that `structure` is pinned at any depth: it is a layer over the
base alone, and imports no solver even inside a function.  A new import
across layers fails here and becomes a reviewed change of this table.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "steffenlab"

BASE = {"errors", "invariants", "multigraph"}
LAYERS = {
    "__init__": set(),
    "errors": set(),
    "multigraph": {"errors"},
    "invariants": {"errors", "multigraph"},
    "coloring": BASE,
    "structure": BASE,
    "generators": BASE,
    "scan": BASE | {"coloring", "structure", "generators"},
    "cli": {"errors", "multigraph"},
}


def package_imports(path: Path, anywhere: bool = False) -> set[str]:
    """The package modules a module's top-level statements import, or with
    `anywhere` its statements at any depth; the package imports itself only
    relatively (`from .x import y`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree) if anywhere else tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_every_module_is_pinned():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_load_time_imports(module):
    assert package_imports(PACKAGE / f"{module}.py") == LAYERS[module]


def test_structure_imports_no_solver_at_any_depth():
    assert package_imports(PACKAGE / "structure.py", anywhere=True) == LAYERS["structure"]


# the cycle layer: every name of it is defined in `structure`
CYCLE_LAYER = {
    "simple_paths",
    "shortest_cycle",
    "require_shortest_cycle",
    "check_short_cycle_properties",
    "_outside_paths",
    "ShortCycleViolation",
    "_SHORT_CYCLE_CLAUSES",
}


def top_level_names(path: Path) -> set[str]:
    """The names a module's top-level statements define or assign."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_structure_owns_the_cycle_layer():
    assert CYCLE_LAYER <= top_level_names(PACKAGE / "structure.py")
    assert not {*CYCLE_LAYER, "CycleSeq"} & top_level_names(PACKAGE / "invariants.py")
