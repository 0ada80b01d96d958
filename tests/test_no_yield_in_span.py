"""No ``yield`` inside a ``with span(...)`` block under ``src/repro/core``.

A segment's search is a generator, and ``run_lockstep`` interleaves the
searches of one trajectory on one thread. ``span`` pushes onto a
thread-local stack and pops on the way out: a search suspended inside the
block leaves its span open on the stack while the others open and close
theirs under it, and the first pop unwinds a stranger's span. A block
that has to suspend uses ``detached_span``, which never sits on the stack.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"

_OTHER_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _files():
    return sorted(SRC.rglob("*.py"))


def _is_span(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    return (isinstance(func, ast.Name) and func.id == "span") or (
        isinstance(func, ast.Attribute) and func.attr == "span"
    )


def _same_scope(node: ast.AST):
    """``node`` and what it contains, short of nested functions and classes
    (a ``yield`` there suspends another frame)."""
    if isinstance(node, _OTHER_SCOPES):
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _same_scope(child)


def _yields_in_spans(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            _is_span(item.context_expr) for item in node.items
        ):
            for statement in node.body:
                for inner in _same_scope(statement):
                    if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                        yield inner.lineno


def test_no_yield_inside_a_span_block():
    offenders = [
        f"{path.relative_to(SRC)}:{line}" for path in _files() for line in _yields_in_spans(path)
    ]
    assert not offenders, (
        "yield inside `with span(...)` (an interleaved generator corrupts the "
        "span stack; use detached_span): " + ", ".join(offenders)
    )


def test_the_scan_actually_sees_source_files():
    """Guard against the lint silently passing on an empty glob."""
    files = _files()
    assert len(files) > 8
    assert {"kamel.py", "imputation.py", "constraints.py"} <= {p.name for p in files}


def test_the_scan_flags_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def a():\n"
        "    with span('x'):\n"
        "        yield 1\n"
        "def b():\n"
        "    with other(), obs.span('y') as sp:\n"
        "        got = yield from g()\n"
        "def c():\n"
        "    with span('z'):\n"
        "        def inner():\n"
        "            yield 2\n"
        "        f = lambda: (yield)\n"
        "    with detached_span('w'):\n"
        "        yield 3\n"
        "    with span('v'):\n"
        "        pass\n"
        "    yield 4\n"
    )
    assert sorted(_yields_in_spans(sample)) == [3, 6]
