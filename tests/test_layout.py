"""Guard against test-only code in the package.

Every function and method defined under src/conway_genera must be
referenced from the package itself (outside its own body), be a dunder,
be public API (a name in `conway_genera.__all__` or a method of a class
listed there), or be named in the benchmark's tracing tables
(`SPANS`/`COUNTS` in bench/tracing.py, read here as source and never
edited).  Anything else is test-only code, and belongs in tests/brute.py.
"""

import ast
from collections import Counter
from pathlib import Path

import conway_genera

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conway_genera"


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions():
    """(class name or None, function node) for every def in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield node.name, item
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield None, node


def _traced_names() -> set[str]:
    """The callables bench/tracing.py names in SPANS and COUNTS."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    names: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS")
                        for t in node.targets)):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def unreferenced() -> list[str]:
    references = Counter()
    for path in PACKAGE.glob("*.py"):
        references += _references(ast.parse(path.read_text(), str(path)))
    public = set(conway_genera.__all__)
    traced = _traced_names()
    out = []
    for cls, fn in _definitions():
        qualified = f"{cls}.{fn.name}" if cls else fn.name
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        if (cls or fn.name) in public or fn.name in traced or qualified in traced:
            continue
        if references[fn.name] - _references(fn)[fn.name] > 0:
            continue
        out.append(qualified)
    return out


def test_every_package_function_is_used_public_or_traced():
    assert unreferenced() == []
