"""The bundled fixtures are exactly what ``tools/gen_fixtures.py`` writes."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "toricgs" / "fixtures"


@pytest.fixture
def tool(tmp_path):
    """The generator script as a module, writing into ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("gen_fixtures", ROOT / "tools" / "gen_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = str(tmp_path)
    module.CHAIN_DIR = str(tmp_path / "chain")
    return module


def test_committed_fixtures_regenerate_byte_identically(tool, tmp_path):
    tool.build_standard()
    tool.build_chain()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json"))
    assert written == sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_main_verifies_the_chain_it_writes(tool, tmp_path, capsys):
    tool.main()  # a failed chain would exit 1
    out = capsys.readouterr().out
    assert "chain ok: True" in out
    assert "  s0: nonlocal" in out
    assert (tmp_path / "chain" / "pentomino_chain.json").exists()
