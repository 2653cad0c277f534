"""Every public function and method of the library has a caller.

A public function that nothing in the library, the demos or the benchmark
refers to is dead code kept alive only by its tests; reference code that
only tests use lives in `tests/oracles.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIB = ROOT / "src" / "char2spec"
MODULES = {"_bulk", "acceptance", "cli", "constructions", "gf", "harnesses", "matrix",
           "spectra", "structure", "subspace", "upoly"}


def _public_defs(tree: ast.Module):
    """(qualified name, def node) of the public top-level functions and the
    public methods of the public classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


class _References(ast.NodeVisitor):
    """The references of one source, each with the def nodes around it:
    ("attr", name) for every attribute read, ("name", module, name) for
    every name imported from a module and, in a library module, for every
    read of a module-level name (a name bound in the enclosing functions is
    a local variable, not a reference)."""

    def __init__(self, key: str | None):
        self.key = key              # the file's dotted name, for relative imports
        self.module = key and key.removesuffix(".__init__")
        self.found = []
        self._defs = []             # (def node, names bound inside it)

    def _add(self, key):
        self.found.append((key, {id(d) for d, _ in self._defs}))

    def visit_FunctionDef(self, node):
        bound = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        bound |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                  and not isinstance(n.ctx, ast.Load)}
        self._defs.append((node, bound))
        self.generic_visit(node)
        self._defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(("attr", node.attr))
        self.generic_visit(node)

    def visit_Name(self, node):
        if (self.module and isinstance(node.ctx, ast.Load)
                and not any(node.id in bound for _, bound in self._defs)):
            self._add(("name", self.module, node.id))

    def visit_ImportFrom(self, node):
        source = node.module or ""
        if node.level:
            base = self.key.split(".")[:-node.level]
            source = ".".join(base + ([node.module] if node.module else []))
        for alias in node.names:
            self._add(("name", source, alias.name))


def uncalled(modules: dict[str, str], scripts=()) -> list[str]:
    """The public functions and methods of the library modules (dotted
    name -> source; a package's own module ends in `.__init__`) that no
    library module or script refers to outside their own definition.  A
    method counts as called when any attribute of its name is read; a
    top-level function when an attribute of its name is read, when it is
    imported from its module, or when its own module reads it.  Mentions
    in strings and docstrings are not references, so package exports count
    through the imports of the package's `__init__`."""
    trees = {key: ast.parse(text) for key, text in modules.items()}
    refs = []
    for key, tree in [*trees.items(), *((None, ast.parse(text)) for text in scripts)]:
        visitor = _References(key)
        visitor.visit(tree)
        refs += visitor.found
    out = []
    for key, tree in trees.items():
        module = key.removesuffix(".__init__")
        for qualname, node in _public_defs(tree):
            keys = {("attr", node.name)}
            if "." not in qualname:
                keys.add(("name", module, node.name))
            if not any(k in keys and id(node) not in around for k, around in refs):
                out.append(f"{module}.{qualname}")
    return sorted(out)


def test_every_public_function_has_a_caller():
    modules = {f"char2spec.{path.stem}": path.read_text(encoding="utf-8")
               for path in sorted(LIB.glob("*.py"))}
    assert {key.split(".")[1] for key, text in modules.items()
            if any(_public_defs(ast.parse(text)))} == MODULES
    scripts = [path.read_text(encoding="utf-8") for folder in ("demos", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert uncalled(modules, scripts) == []


def test_the_guard_on_synthetic_modules():
    lib = '''
def used_by_attr(): pass
def used_by_import(): pass
def used_here(): pass
def only_in_docstring():
    """only_in_docstring() calls itself: only_in_docstring()"""
    return only_in_docstring()
def only_a_local(): pass
def other():
    only_a_local = 1
    return only_a_local + used_here()
class Box:
    def method(self):
        return self.method()
    def called(self): pass
    def _private(self): pass
'''
    user = '''
"""m.only_in_docstring() and only_a_local() are only mentioned."""
from .m import used_by_import
from . import m
def f(box):
    return m.used_by_attr(), m.other(), box.called(), "only_in_docstring"
'''
    script = "from pkg.user import f\nf(None)\n"
    assert uncalled({"pkg.m": lib, "pkg.user": user}, [script]) == [
        "pkg.m.Box.method", "pkg.m.only_a_local", "pkg.m.only_in_docstring"]
    # the package module's imports and plain `m.f` reads count
    init = "from .m import only_a_local, only_in_docstring\n"
    script += "import pkg.m as mm\nmm.method\n"
    assert uncalled({"pkg.__init__": init, "pkg.m": lib, "pkg.user": user}, [script]) == []
