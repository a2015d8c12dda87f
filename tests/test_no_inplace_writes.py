"""The package never writes into an array a Tensor holds.

A tape's pulls read their inputs' data when backward runs, and a Checkpoint
and the model built from it share arrays, so an update must build a fresh
array and rebind ``.data`` to it. This test parses every module of the
package and fails on the three ways to write into ``<expr>.data`` in place:
an augmented assignment to it or to a subscript of it, a subscript
assignment to it, and ``out=<expr>.data``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dimprune"


def is_data(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "data"


def assigned(target):
    """The single targets of an assignment target, unpacking tuples."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from assigned(elt)
    elif isinstance(target, ast.Starred):
        yield from assigned(target.value)
    else:
        yield target


def inplace_writes(tree):
    """(line, what) of every in-place write into a ``.data`` array."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            target = node.target
            if is_data(target) or (isinstance(target, ast.Subscript)
                                   and is_data(target.value)):
                yield node.lineno, "augmented assignment"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in assigned(target):
                    if isinstance(sub, ast.Subscript) and is_data(sub.value):
                        yield node.lineno, "subscript assignment"
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "out" and is_data(kw.value):
                    yield node.lineno, "out= argument"


MODULES = sorted(SRC.glob("*.py"))


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"tensor.py", "pipeline.py", "checkpoint.py",
                                         "pruner.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_inplace_write_into_tensor_data(path):
    found = [f"{path.name}:{line}: {what}"
             for line, what in inplace_writes(ast.parse(path.read_text(), str(path)))]
    assert not found, "in-place writes into .data:\n" + "\n".join(found)


@pytest.mark.parametrize("source, count", [
    ("p.data -= u", 1),
    ("p.data[i] += u", 1),
    ("t.data[:] = arr", 1),
    ("a.b.data[0, 1] = 2", 1),
    ("x, t.data[:] = 1, 2", 1),
    ("np.subtract(p.data, u, out=p.data)", 1),
    ("p.data = new", 0),
    ("new = p.data * s", 0),
    ("np.subtract(p.data, u, out=u)", 0),
    ("vals[idx] = sv.alpha.data[idx]", 0),
    ("vals[t.data[0]] = 1", 0),
])
def test_the_lint_flags_exactly_the_inplace_forms(source, count):
    assert len(list(inplace_writes(ast.parse(source)))) == count
