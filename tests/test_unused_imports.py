"""Every name a lipbound module imports is used in that module, and every
name a module defines is read by some module or exported by the package."""

import ast
from pathlib import Path

import pytest

import lipbound

SRC = Path(__file__).resolve().parents[1] / "src" / "lipbound"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing in it reads."""
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
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_are_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import y as z, w\nw(os)\n"
    assert unused_imports(source) == ["math (line 2)", "z (line 4)"]


def top_level_names(tree: ast.Module) -> list[str]:
    """The names a module's own statements bind at top level: functions,
    classes and assigned names, imports left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def dead_names(modules: dict[str, str], exported) -> list[str]:
    """The top-level names of modules (name -> source) that no module reads
    and that exported does not list."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    loaded = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in top_level_names(tree)
        if name not in loaded and name not in exported
    )


def test_no_dead_module_names():
    modules = {path.stem: path.read_text() for path in MODULES}
    assert dead_names(modules, lipbound.__all__) == []


def test_a_dead_name_is_caught():
    modules = {
        "a": "X, Y = 1, 2\nZ: int = 3\ndef f():\n    return X\nclass C:\n    pass\n",
        "b": "from .a import Y\ndef g():\n    return f()\n",
    }
    assert dead_names(modules, ["C"]) == ["a.Y", "a.Z", "b.g"]
