"""Static checks on the package's source, with the standard library's ``ast`` alone."""
import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "slalom").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the imports of ``source`` bind and that no name in it reads, annotations included."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name (``_x``, not dunder) that a module of ``sources``
    defines and that no module of them reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not (name[:2] == name[-2:] == "__")]
            unread += [f"{module}.{name}" for name in private if name not in read]
    return sorted(unread)


def unchecked_builds(source: str) -> list[str]:
    """The names of the module-level functions and classes of ``source`` that call ``object.__new__``,
    ``object.__setattr__`` or the ``update`` of a ``__dict__``: the builds that skip a constructor's checks.
    A call outside them is named ``<module>``."""
    names = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(func := node.func, ast.Attribute):
                owner = func.value
                if (isinstance(owner, ast.Name) and owner.id == "object" and func.attr in ("__new__", "__setattr__")
                        or isinstance(owner, ast.Attribute) and owner.attr == "__dict__" and func.attr == "update"):
                    names.add(getattr(top, "name", "<module>"))
    return sorted(names)


def long_lines(source: str, limit: int = 120) -> list[int]:
    """The 1-based numbers of the lines of ``source`` longer than ``limit`` characters."""
    return [n for n, line in enumerate(source.splitlines(), 1) if len(line) > limit]


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Iterable, Sequence\nx: Sequence\n"
    assert unused_imports(source) == ["Iterable", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unread_private_name():
    sources = {
        "a": "_SHARED = 1\n_LOCAL, _UNREAD = 2, 3\n__all__ = []\ndef _helper():\n    return _LOCAL\nx = _helper()\n",
        "b": "from a import _SHARED\nclass _Unused:\n    pass\ndef f(m):\n    return _SHARED + m._ATTR\n_ATTR = 0\n",
    }
    assert unread_private_names(sources) == ["a._UNREAD", "b._Unused"]


def test_finds_an_unchecked_build():
    source = (
        "def build(cls):\n    v = object.__new__(cls)\n    v.__dict__.update(x=1)\n    return v\n"
        "class C:\n    def __post_init__(self):\n        object.__setattr__(self, 'y', 2)\n"
        "def fine(v):\n    v.__dict__.get('x')\n    return type.__new__, cls.__new__(cls), v.update(x=1)\n"
        "object.__new__(C)\n"
    )
    assert unchecked_builds(source) == ["<module>", "C", "build"]


def test_unchecked_builds_only_in_words():
    """Only ``words._new`` and ``reduce``'s term build skip a constructor's checks; every other unchecked build
    goes through ``_new``, and every constructor sets its fields through ``words._set``."""
    found = {path.stem: unchecked_builds(path.read_text()) for path in MODULES}
    assert {module: names for module, names in found.items() if names} == {"words": ["_new", "_set", "reduce"]}


def test_finds_a_long_line():
    source = "x = 1\n" + "y = " + "1" * 116 + "\n" + "z = " + "2" * 117 + "\n"
    assert long_lines(source) == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_line_over_120_characters(path):
    assert long_lines(path.read_text()) == []


def test_every_private_name_is_read():
    assert unread_private_names({path.stem: path.read_text() for path in MODULES}) == []
