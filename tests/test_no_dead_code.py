"""Guard against code no caller needs.

Every function, method and class defined in the package must be referenced
somewhere in the package or the tests, as a name, an attribute or an import;
every module-level import of a source module must be used in that module.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ppdlab").glob("*.py"))
CORPUS = SOURCES + sorted((ROOT / "tests").glob("*.py"))


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


def test_every_definition_has_a_caller():
    refs = Counter()
    for path in CORPUS:
        refs += _references(ast.parse(path.read_text()))
    unused = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not refs[name]:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_module_import_is_used():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        for node in ast.parse(text).body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if _count(name, text) < 2:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
