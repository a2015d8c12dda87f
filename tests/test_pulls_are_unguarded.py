"""No pull opens an error state or scans for non-finite values.

``backward`` runs every pull under its one ``np.errstate`` and checks the
leaf gradients once, at its end, so a pull that opened its own error state
or scanned its own result would repeat that work once per record. This test
parses ``tensor.py``, finds the functions that reach ``_finite_or_raise``
or ``np.errstate`` (directly or through other functions of the module), and
fails on any pull that calls one of them or ``np.errstate`` itself. A pull
is a lambda or local function passed to ``tape._record`` (also by way of a
list it is appended to), or a local helper that one calls, such as
``rhs_grads`` or ``logit_grad``.
"""

import ast
from pathlib import Path

import pytest

TENSOR = Path(__file__).resolve().parents[1] / "src" / "dimprune" / "tensor.py"

def called_names(node) -> set:
    """The bare names called under ``node``, and ``np.errstate``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                names.add(sub.func.id)
            elif (isinstance(sub.func, ast.Attribute) and sub.func.attr == "errstate"
                  and isinstance(sub.func.value, ast.Name) and sub.func.value.id == "np"):
                names.add("np.errstate")
    return names


def guarded(tree) -> set:
    """``_finite_or_raise``, ``np.errstate`` and the module's functions that
    call one of them, directly or through each other."""
    calls = {f.name: called_names(f) for f in tree.body if isinstance(f, ast.FunctionDef)}
    found = {"_finite_or_raise", "np.errstate"}
    while True:
        more = {name for name, callees in calls.items() if callees & found} - found
        if not more:
            return found
        found |= more


def is_record(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_record")


def pulls(tree):
    """(op name, pull) of every pull in the module: a lambda or local
    function under a ``_record`` call's arguments, or under what is appended
    to a list passed as one, and the local helpers those call."""
    for op in tree.body:
        if not isinstance(op, ast.FunctionDef):
            continue
        records = [node for node in ast.walk(op) if is_record(node)]
        if not records:
            continue
        local = {f.name: f for f in ast.walk(op) if isinstance(f, ast.FunctionDef) and f is not op}
        reach = [arg for call in records for arg in call.args]
        lists = {sub.id for arg in reach for sub in ast.walk(arg) if isinstance(sub, ast.Name)}
        reach += [arg for node in ast.walk(op)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "append" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in lists for arg in node.args]
        found = {}
        for arg in reach:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    found[id(sub)] = sub
                elif isinstance(sub, ast.Name) and sub.id in local:
                    found[id(local[sub.id])] = local[sub.id]
        todo = list(found.values())
        while todo:
            for name in called_names(todo.pop()) & set(local):
                if id(local[name]) not in found:
                    found[id(local[name])] = local[name]
                    todo.append(local[name])
        for pull in found.values():
            yield op.name, pull


def guarded_calls(source: str) -> list:
    """(op, line, callee) of every call a pull makes into a guarded function."""
    tree = ast.parse(source)
    guards = guarded(tree)
    return [(op, pull.lineno, name) for op, pull in pulls(tree)
            for name in sorted(called_names(pull) & guards)]


def test_no_pull_reaches_an_error_state_or_a_finiteness_scan():
    found = guarded_calls(TENSOR.read_text())
    assert not found, "pulls that open an error state or scan:\n" + "\n".join(
        f"tensor.py:{line}: {op} calls {name}" for op, line, name in found)


def test_the_lint_sees_the_products_and_the_pulls():
    tree = ast.parse(TENSOR.read_text())
    assert {"_product64", "_softmax", "checked_forward", "matmul",
            "attention_core"} <= guarded(tree)
    names = {(op, getattr(pull, "name", "lambda")) for op, pull in pulls(tree)}
    assert {("matmul", "lambda"), ("matmul", "rhs_grads"), ("concat", "pull"),
            ("attention_core", "pull_qkv"), ("attention_core", "logit_grad"),
            ("attention_core", "pull_mask"), ("layer_norm", "pull_x")} <= names


GUARDED = '''
def _check(a, what):
    with np.errstate(over="ignore"):
        return a @ a

def _product(a, b, what):
    return _check(a @ b, what)
'''


@pytest.mark.parametrize("source, count", [
    ("def op(a):\n    tape._record(out, [(a, lambda g: _product(g, b, 'x'))])", 1),
    ("def op(a):\n    tape._record(out, [(a, lambda g: g @ b)])", 0),
    ("def op(a):\n    def helper(g):\n        return _check(g, 'x')\n"
     "    def pull(g):\n        return helper(g) * 2\n    tape._record(out, [(a, pull)])", 1),
    ("def op(a):\n    pulls = []\n    def pull(g):\n        return _finite_or_raise(g, 'x')\n"
     "    pulls.append((a, pull))\n    tape._record(out, pulls)", 1),
    ("def op(a):\n    with np.errstate(over='ignore'):\n        y = _product(a, a, 'x')\n"
     "    tape._record(out, [(a, lambda g: g * y)])", 0),
    ("def op(a):\n    tape._record(out, [(a, lambda g: np.errstate(over='ignore'))])", 1),
])
def test_the_lint_flags_exactly_the_guarded_calls_of_pulls(source, count):
    assert len(guarded_calls(GUARDED + source)) == count
