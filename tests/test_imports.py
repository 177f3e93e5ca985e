"""No module of the package imports a name it never uses.

No linter runs on this repository, and a deleted caller easily leaves its
import behind.  The package ``__init__`` is exempt: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

import hypertail

MODULES = sorted(p for p in Path(hypertail.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
