"""Every module of the package uses every name it imports.

No linter runs on this code base, so this `ast` check stands in for
an unused-import rule. `__init__.py` is skipped, because its imports
are the package's API, and so is `from __future__ import annotations`.
Quoted annotations are not parsed, so a name read only inside one
counts as unused; the package quotes only names a module defines.
"""

import ast
import os

import revalu


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    src = os.path.dirname(revalu.__file__)
    unused = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(src, name)) as handle:
                unused += [f"{name[:-3]}.{imported}" for imported in unused_imports(handle.read())]
    assert unused == []


def test_the_check_sees_each_kind_of_use_and_non_use():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as j\n"
        "from typing import Mapping, Sequence\n"
        "from .bits import to_bits, from_bits\n"
        "def f(x: Mapping[str, int]) -> 'Sequence[int]':\n"
        "    return os.path.join(to_bits(x, 1))\n"
    )
    assert unused_imports(source) == ["j", "Sequence", "from_bits"]
