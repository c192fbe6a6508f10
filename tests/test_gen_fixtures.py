"""The bundled fixtures are exactly what ``tools/gen_fixtures.py`` writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "toricgs" / "fixtures"


def test_committed_fixtures_regenerate_byte_identically(tmp_path):
    spec = importlib.util.spec_from_file_location("gen_fixtures", ROOT / "tools" / "gen_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.OUT = str(tmp_path)
    tool.CHAIN_DIR = str(tmp_path / "chain")
    tool.build_standard()
    tool.build_chain()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json"))
    assert written == sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
