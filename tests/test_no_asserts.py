"""Library invariants must survive ``python -O``, which strips assert statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrlcs

SRC = Path(arrlcs.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in library code: " + ", ".join(found)


@pytest.mark.parametrize(
    "argv",
    [
        ["maclane-report"],
        ["kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:minus"],
    ],
    ids=["maclane-report", "kappa"],
)
def test_cli_is_byte_identical_under_python_O(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}

    def cli(*flags):
        return subprocess.run([sys.executable, *flags, "-m", "arrlcs.cli", *argv], capture_output=True, env=env, timeout=300)

    plain, optimized = cli(), cli("-O")
    assert plain.returncode == 0 and plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)
