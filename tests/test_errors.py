"""The package raises one exception type per CLI exit code."""

import ast
from pathlib import Path

import pytest

import mibounds
from mibounds import errors

SRC = Path(mibounds.__file__).resolve().parent
EXIT_CODE_TYPES = {"ValidationError", "NumericalFailureError"}
# the entry points exit through SystemExit; _lazy reports a missing scipy
# as the ModuleNotFoundError an import would give
ALSO_ALLOWED = {"__main__.py": {"SystemExit"}, "cli.py": {"SystemExit"},
                "_lazy.py": {"ModuleNotFoundError"}}


def test_errors_defines_one_type_per_exit_code():
    types = {name: obj for name, obj in vars(errors).items()
             if isinstance(obj, type)}
    assert types == {"ValidationError": errors.ValidationError,
                     "NumericalFailureError": errors.NumericalFailureError}
    assert errors.ValidationError.__bases__ == (ValueError,)
    assert errors.NumericalFailureError.__bases__ == (ArithmeticError,)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_raise_names_an_exit_code_type(path):
    """A bare re-raise counts as unnamed: it could re-raise anything."""
    allowed = EXIT_CODE_TYPES | ALSO_ALLOWED.get(path.name, set())
    bad = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc) if exc is not None else "<bare raise>"
            if name not in allowed:
                bad.append(f"{path.name}:{node.lineno}: {name}")
    assert not bad
