"""Guard against code no caller needs.

`ppdlab.__all__` is the public API. Every other function, method and class
defined in the package must be referenced, as a name, an attribute or an
import, by a module of the package other than `__init__.py`: a test or an
import alias in `__init__.py` is not a caller. A reference counts only when
it is made by module-level code or inside a definition that is itself used,
so a definition called only by itself or by other unused code is unused too.
Every import of a source module must be used where it is made: a
module-level one in that module, one inside a function body in that function.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ppdlab").glob("*.py"))
INIT = ROOT / "src" / "ppdlab" / "__init__.py"


def _count(name: str, text: str) -> int:
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references_by_owner(tree) -> dict:
    """Names a module refers to (Name ids, Attribute attrs and imported names),
    keyed by the innermost definition that makes the reference, None for
    module-level code; a definition's decorators and defaults count as its own."""
    refs = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                refs.setdefault(owner, set()).add(child.id)
            elif isinstance(child, ast.Attribute):
                refs.setdefault(owner, set()).add(child.attr)
            elif isinstance(child, ast.alias):
                refs.setdefault(owner, set()).add(child.name.split(".")[-1])
            visit(child, child.name if isinstance(child, DEFINITIONS) else owner)

    visit(tree, None)
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
    refs, defined = {}, {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                defined.setdefault(node.name, f"{path.name}:{node.lineno} {node.name}")
        if path != INIT:
            for owner, names in _references_by_owner(tree).items():
                refs.setdefault(owner, set()).update(names)
    # used: the public names, dunder methods and module-level code, then
    # whatever a used definition refers to
    used = _public_names() | {name for name in defined
                              if name.startswith("__") and name.endswith("__")}
    stack = [None, *used]
    while stack:
        for name in refs.get(stack.pop(), ()):
            if name in defined and name not in used:
                used.add(name)
                stack.append(name)
    assert sorted(defined[name] for name in defined.keys() - used) == []


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
