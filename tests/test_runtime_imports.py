"""The library runs on the standard library alone.

The test oracles (networkx, sympy, hypothesis) must never leak into
``src/``: a fresh interpreter runs a CLI command, and every module it
imported on the way, guarded optional imports included, must be
``dualities`` or part of the standard library.  Modules that site hooks
load at start-up are taken as given.

Nor may the library's checks depend on ``assert``, which ``python -O``
strips.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
startup = set(sys.modules)
from dualities import cli
code = cli.main(["graph", "planar", "k33"])
foreign = sorted({name.partition(".")[0] for name in set(sys.modules) - startup} - set(sys.stdlib_module_names) - {"dualities"})
print(code, foreign, file=sys.stderr)
"""


def test_cli_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "0 []", proc.stderr


def test_library_has_no_assert_statements():
    modules = sorted((SRC / "dualities").glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"
