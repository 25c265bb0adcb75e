"""Every name a module of the package imports is used or re-exported, and
every private name it defines at module level is used in the module itself.

No lint tool is part of the toolchain, so this walks each module's syntax
tree with the standard library.  A name counts as used when the module
refers to it anywhere (annotations included) or lists it in ``__all__``;
``__init__.py`` only re-exports and is exempt from the import check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semiquantum"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert _unused_imports(PACKAGE / module) == []


def _unreferenced_private_names(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    private = {name: line for name, line in defined.items()
               if name.startswith("_") and not name.startswith("__")}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in private.items() if name not in loaded)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unreferenced_private_names(module):
    assert _unreferenced_private_names(PACKAGE / module) == []
