"""The package holds only what a stage runs.

Every top-level function, class and assigned name (a constant) under
``src/dimprune/``, and every method and property of such a class, must be
referenced somewhere in the package outside its own definition, be exported
in ``dimprune.__all__``, or be named in ``KEEP`` with the reason it stays. A
method is named ``Class.method``; a dunder method, which Python calls
itself, and a dunder name such as ``__all__`` are exempt. Code that only
tests reach is a second path beside the one the stages run: move its tests
onto that path and delete it; a constant nothing reads is what a retired
path leaves behind. This test parses every module of the package, as
``test_no_inplace_writes.py`` does. It also holds each module-level import
to a read in its own module, unless the module's ``__all__`` lists the name
or the import is marked ``# noqa: F401``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import dimprune

SRC = Path(__file__).resolve().parents[1] / "src" / "dimprune"

KEEP = {
    "sum_all": "benchmarks/layers.py reduces each replayed layer's output with it",
    "msa_cost": "the paper's per-layer complexity formula for global MSA",
    "wmsa_cost": "the paper's per-layer complexity formula for W-MSA",
    "mlp_cost": "the paper's per-layer complexity formula for the MLP",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ASSIGNMENTS = (ast.Assign, ast.AnnAssign)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def bound_names(scope) -> set:
    """Names a function, lambda or comprehension binds in its own scope: its
    parameters or loop targets, and what its own body assigns, defines,
    imports or catches, less what it declares global or nonlocal."""
    if isinstance(scope, COMPREHENSIONS):
        return {sub.id for gen in scope.generators for sub in ast.walk(gen.target)
                if isinstance(sub, ast.Name)}
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    declared = set()
    stack = [scope.body] if isinstance(scope, ast.Lambda) else list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, FUNCTIONS + COMPREHENSIONS):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def referenced_names(node) -> Counter:
    """How often each name is read under ``node``: as a bare name that no
    enclosing function, lambda or comprehension binds, as an attribute
    (``module.name``) or in ``from module import name``."""
    found = Counter()

    def visit(node, bound):
        if isinstance(node, ast.Name):
            if node.id not in bound:
                found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        if isinstance(node, FUNCTIONS):
            # Decorators, defaults and annotations run in the enclosing scope.
            inner = bound | bound_names(node)
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            for child in ast.iter_child_nodes(node):
                if child not in body:
                    visit(child, bound)
            for child in body:
                visit(child, inner)
        elif isinstance(node, COMPREHENSIONS):
            # The first iterable runs in the enclosing scope.
            inner = bound | bound_names(node)
            visit(node.generators[0].iter, bound)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.comprehension):
                    for part in ast.iter_child_nodes(child):
                        if part is not node.generators[0].iter:
                            visit(part, inner)
                else:
                    visit(child, inner)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, bound)

    visit(node, frozenset())
    return found


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, node) of each top-level definition of a module, of each name a
    top-level assignment binds, and of each method or property of a
    top-level class as "Class.method", less the dunders."""
    for node in tree.body:
        if isinstance(node, ASSIGNMENTS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and not dunder(sub.id):
                        yield sub.id, node
        if not isinstance(node, DEFINITIONS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not dunder(
                        sub.name):
                    yield f"{node.name}.{sub.name}", sub


def unreferenced(trees, exported=(), constants=False) -> list:
    """(module, name) of every definition that nothing outside its own body
    refers to and that ``exported`` does not list; assigned names count as
    definitions only with ``constants``. A method counts as used where any
    attribute of its name is read."""
    total = Counter()
    for tree in trees.values():
        total += referenced_names(tree)
    out = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if not constants and isinstance(node, ASSIGNMENTS):
                continue
            short = name.rpartition(".")[2]
            if name not in exported and total[short] - referenced_names(node)[short] <= 0:
                out.append((module, name))
    return out


def unused_imports(source: str) -> list:
    """Names that a module-level import of ``source`` binds and no code in
    the module reads, less the names its ``__all__`` lists and those of an
    import marked ``# noqa: F401``. A read in an annotation counts."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read and name not in exported:
                out.append(name)
    return out


def parse(path: Path):
    return ast.parse(path.read_text(), str(path))


def test_every_definition_is_used_exported_or_kept():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    found = [f"{module}: {name}" for module, name
             in unreferenced(trees, set(dimprune.__all__) | set(KEEP), constants=True)]
    assert not found, ("defined in the package but used by no stage; move its tests "
                       "onto the code the stages run and delete it, or add it to KEEP "
                       "with a reason:\n" + "\n".join(found))


def test_every_keep_entry_names_a_definition_nothing_else_keeps():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    defined = {name for tree in trees.values() for name, _ in definitions(tree)}
    assert set(KEEP) <= defined
    bare = {name for _, name in unreferenced(trees, set(dimprune.__all__), constants=True)}
    assert set(KEEP) <= bare, "KEEP lists a name that is used or exported anyway"


@pytest.mark.parametrize("source, exported, names", [
    ("def f(): pass\ndef g(): return f()", (), ["g"]),
    ("def f(n): return f(n - 1)", (), ["f"]),             # calling itself is no use
    ("class C: pass\nx = C()", (), []),
    ("def f(): pass\nTABLE = {'f': f}", (), []),
    ("def f(): pass\ndef g(): pass", ("g",), ["f"]),
    ("def f():\n    def inner(): pass\n    return inner", (), ["f"]),
    ("def f(): pass\ndef g(f): return f", ("g",), ["f"]),    # a parameter is no use
    ("def f(): pass\ndef g():\n    f = 1\n    return f", ("g",), ["f"]),
    ("def f(): pass\ng = lambda f: f", (), ["f"]),
    ("def f(): pass\nfs = [f for f in range(3)]", (), ["f"]),
    ("def f(): pass\ndef g(x=f): return x", ("g",), []),    # a default is read outside
    ("def f(): pass\ndef g():\n    global f\n    f = 1", ("g",), []),
    ("class C:\n    def used(self): pass\n    def unused(self): pass\nC().used()",
     (), ["C.unused"]),
    ("class C:\n    def __init__(self): pass\n    @property\n    def p(self): return 1\n"
     "x = C().p", (), []),
    ("class C:\n    def again(self): return self.again()\nx = C()", (), ["C.again"]),
    ("class C:\n    def m(self): pass\n", ("C",), ["C.m"]),   # exporting C keeps no method
])
def test_the_lint_flags_exactly_the_unused_definitions(source, exported, names):
    found = unreferenced({"m.py": ast.parse(source)}, exported)
    assert [name for _, name in found] == names


# The cases above bind module-level names only to use a definition; here
# those names are definitions themselves.
@pytest.mark.parametrize("source, exported, names", [
    ("class C: pass\nx = C()", (), ["x"]),
    ("X = 1\ndef f(): return 2", ("f",), ["X"]),
    ("X = 1\ndef f(): return X", ("f",), []),
    ("X = 1", ("X",), []),
    ("__all__ = ['f']\ndef f(): pass", ("f",), []),            # a dunder is exempt
    ("A, B = 1, 2\nC = A", ("C",), ["B"]),
    ("X: int = 1\nY = Z = 2\ndef f(): return Z", ("f",), ["X", "Y"]),
    ("X = 1\ndef f():\n    X = 2\n    return X", ("f",), ["X"]),  # a local is no use
    ("X = 1\nclass C:\n    Y = X", ("C",), []),              # a class body reads it
])
def test_the_lint_flags_exactly_the_unread_constants(source, exported, names):
    found = unreferenced({"m.py": ast.parse(source)}, exported, constants=True)
    assert [name for _, name in found] == names


def test_every_module_level_import_is_read():
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(path.read_text())]
    assert not found, "imported but never read:\n" + "\n".join(found)


@pytest.mark.parametrize("source, names", [
    ("import os", ["os"]),
    ("import os\nos.sep", []),
    ("import os.path\nos.path.join", []),
    ("import numpy as np\nimport math\nx = np.pi", ["math"]),
    ("from a import b, c\ny = c", ["b"]),
    ("from a import b as c\nb = 1\nprint(b)", ["c"]),
    ("from a import B\ndef f(x: B) -> None: pass", []),      # an annotation reads it
    ("from a import B\nx: B = 1", []),
    ("from a import b\ndef f():\n    return b()", []),
    ("from a import b\nb = 1", ["b"]),                        # a rebinding is no read
    ("from a import b\n__all__ = ['b']", []),
    ("from a import b  # noqa: F401", []),
    ("from a import (b,  # noqa: F401\n               c)", []),
    ("from __future__ import annotations", []),
    ("def f():\n    import os\n    return 1", []),             # not module level
])
def test_the_lint_flags_exactly_the_unread_imports(source, names):
    assert unused_imports(source) == names
