"""Every name a lipbound module imports is used in that module, every
name a module defines is read by some module or exported by the package,
and every method and property of its classes is read somewhere."""

import ast
from pathlib import Path

import pytest

import lipbound

SRC = Path(__file__).resolve().parents[1] / "src" / "lipbound"
TESTS = Path(__file__).resolve().parent
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


def methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of every method and property of a module's top-level
    classes, dunder methods left out: Python calls those itself."""
    return [
        (cls.name, node.name)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def dead_methods(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The methods and properties of the classes of modules (name -> source)
    that no attribute access in readers (sources) reads."""
    read = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}.{cls}.{name}"
        for module, source in modules.items()
        for cls, name in methods(ast.parse(source))
        if name not in read
    )


def test_no_dead_methods():
    modules = {path.stem: path.read_text() for path in MODULES}
    readers = [path.read_text() for path in (*SRC.glob("*.py"), *TESTS.glob("*.py"))]
    assert dead_methods(modules, readers) == []


def test_a_dead_method_is_caught():
    modules = {
        "a": (
            "class C:\n    def __init__(self):\n        self.unread = 0\n"
            "    def used(self):\n        return self.size\n"
            "    @property\n    def size(self):\n        return 1\n"
            "    def unread(self):\n        pass\n"
            "    @property\n    def flag(self):\n        return True\n"
        ),
    }
    assert dead_methods(modules, [modules["a"], "C().used()\n"]) == ["a.C.flag", "a.C.unread"]
