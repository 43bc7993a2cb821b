"""What importing the package loads, checked in fresh interpreters: the
suite's own imports have already loaded every module in this one."""

import json
import os
import subprocess
import sys

import altpath

# the directory the suite imports the package from, so that the fresh
# interpreter reads the same code
_HOME = os.path.dirname(os.path.dirname(os.path.abspath(altpath.__file__)))


def _fresh(statement: str, expr: str):
    """``expr``, passed through JSON, in a fresh interpreter after
    ``statement``; there ``new`` lists the modules the statement loaded
    beyond those loaded at start-up."""
    script = ("import json, sys\n_start = set(sys.modules)\n" + statement
              + f"\nnew = sorted(set(sys.modules) - _start)\nprint(json.dumps({expr}))")
    path = os.pathsep.join(filter(None, [_HOME, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(proc.stdout)


def test_the_package_root_defines_no_names():
    assert _fresh("import altpath", "[n for n in vars(altpath) if not n.startswith('_')]") == []


def test_altpath_dpll_is_the_module():
    found = _fresh("import altpath.dpll as m", "[type(m).__name__, hasattr(m, 'dpll_rel')]")
    assert found == ["module", True]


def test_importing_clauses_loads_no_other_module():
    found = _fresh("import altpath.clauses", "[m for m in new if m.startswith('altpath')]")
    assert found == ["altpath", "altpath.clauses"]


def test_importing_the_cli_loads_neither_resolution_nor_the_prover_modules():
    # no subcommand calls resolution; subprocess and shlex serve a prover run
    found = _fresh("import altpath.cli", "new")
    assert "altpath.cli" in found
    assert not {"altpath.resolution", "subprocess", "shlex"} & set(found)
