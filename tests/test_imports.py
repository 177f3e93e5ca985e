"""No module of the package imports a name it never uses, and no private
module-level name goes unread.

No linter runs on this repository, and a deleted caller easily leaves its
import, or the helper or table it alone read, behind.  The package
``__init__`` is exempt from the import check: its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

import hypertail

PACKAGE = sorted(Path(hypertail.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_the_check_sees_an_unused_import():
    source = (
        "import math\nimport os.path\nfrom a import b, c as d, e, f\n"
        "def g(x: b) -> d:\n    return os.sep, 'e'\n"
    )
    assert unused_imports(source) == ["e (line 3)", "f (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict) -> list[str]:
    """The module-level functions, classes and constants named ``_x`` in the
    ``sources`` (file name -> text) that none of them reads: by name, as an
    attribute, or in an import."""
    defined, read = {}, set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{name} ({file}:{node.lineno})"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(where for name, where in defined.items() if name not in read)


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": "_A = 1\n_B = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n"
                "def g():\n    return b._h\n__all__ = []\n",
        "b.py": "from a import _f\ndef _h():\n    _B = 3\n_unused: int = 3\n",
    }
    assert unread_private_names(sources) == ["_B (a.py:2)", "_C (a.py:5)", "_unused (b.py:4)"]


def test_every_private_module_level_name_is_read():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []
