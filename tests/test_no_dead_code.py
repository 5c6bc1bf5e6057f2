"""Guard against code no caller needs.

`ppdlab.__all__` is the public API. Every other function, method and class
defined in the package must be referenced, as a name, an attribute or an
import, by a module of the package other than `__init__.py`: a test or an
import alias in `__init__.py` is not a caller. Every import of a source
module must be used where it is made: a module-level one in that module, one
inside a function body in that function.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ppdlab").glob("*.py"))
INIT = ROOT / "src" / "ppdlab" / "__init__.py"


def _count(name: str, text: str) -> int:
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


def _references(tree) -> Counter:
    """Names a module refers to: Name ids, Attribute attrs and imported names."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
    return refs


def _public_names() -> set[str]:
    """The string entries of the `__all__` list assigned in `__init__.py`."""
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    raise AssertionError("__init__.py assigns no __all__")


def test_every_definition_has_a_caller():
    refs = Counter()
    for path in SOURCES:
        if path != INIT:
            refs += _references(ast.parse(path.read_text()))
    public = _public_names()
    unused = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in public and not refs[name]:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _scope_imports(nodes):
    """The import statements among nodes, not those of functions or classes
    nested in them."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_every_module_import_is_used():
    unused = []
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text)
        # __init__.py's module-level imports re-export the public API
        scopes = [] if path == INIT else [(tree.body, text)]
        scopes += [(node.body, ast.get_source_segment(text, node))
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for body, source in scopes:
            for node in _scope_imports(body):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if _count(name, source) < 2:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
