"""Properties of the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toricgs"


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so a check written as one would vanish there.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and not found, found


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "True 828\n" in capsys.readouterr().out


def imported_modules(path):
    """The modules a source file imports, the package's own as ``toricgs.<name>``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "toricgs" + (f".{node.module}" if node.module else "") if node.level else node.module
            found.update(f"{module}.{alias.name}" if module == "toricgs" else module for alias in node.names)
    return found


def test_lc_system_imports_nothing_of_the_orbit_search():
    # An independent certificate checker may rest on this module alone: of
    # the package it reads gf2 and graphs only, so never lc, lazy_numpy or numpy.
    imports = imported_modules(SRC / "lc_system.py")
    assert {m for m in imports if m.split(".")[0] in ("toricgs", "numpy")} == {"toricgs.gf2", "toricgs.graphs"}
    assert "toricgs.gf2" not in imported_modules(SRC / "lc.py")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A command is a fresh process whose run is mostly start-up: importing
    # dataclasses (which loads inspect) costs about 6 ms, and each class it
    # generates about 1 ms more.
    code = "import sys, toricgs.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
