"""Properties of the package source itself."""

import ast
import re
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
