"""Array code must not raise to a constant power other than 2.

numpy fast-paths ``x ** 2`` to a multiply; every other exponent, and
``np.power`` always, is one libm ``pow`` call per element — ``x ** 3``
on a ``(1, 5, 192)`` float64 array took 138 us against 1.7 us for
``x * x * x`` and was a third of the BERT forward pass. The scan covers
the numeric packages (``nn``, ``mlm``); a variable exponent
(``Tensor.pow``, Adam's ``beta ** t``) is a genuine power and passes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SCANNED = ("nn", "mlm")


def _files():
    return sorted(p for name in SCANNED for p in (SRC / name).rglob("*.py"))


def _constant(node: ast.expr):
    """The value of a literal exponent (``3``, ``-1``, ``0.5``), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return node.value if isinstance(node, ast.Constant) else None


def _slow_powers(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "power":
            yield node.lineno
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if _constant(node.right) not in (None, 2):
                yield node.lineno
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            if _constant(node.value) not in (None, 2):
                yield node.lineno


def test_no_constant_power_but_the_square():
    offenders = [
        f"{path.relative_to(SRC)}:{line}" for path in _files() for line in _slow_powers(path)
    ]
    assert not offenders, (
        "np.power / ** with a constant exponent other than 2 (spell it as "
        "multiplications): " + ", ".join(offenders)
    )


def test_the_scan_actually_sees_source_files():
    """Guard against the lint silently passing on an empty glob."""
    files = _files()
    assert len(files) > 8
    assert {"tensor.py", "functional.py", "bert.py"} <= {p.name for p in files}


def test_the_scan_flags_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "a = x ** 3\nb = x ** 2\nc = x ** n\nd = np.power(x, 2)\ne = x ** -1\nx **= 0.5\n"
    )
    assert sorted(_slow_powers(sample)) == [1, 4, 5, 6]
