"""``tools/check_reports.py`` fingerprints exactly what the command prints."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from toricgs import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_reports", ROOT / "tools" / "check_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_report_is_the_committed_one(capsys, tool):
    # A change that alters a report on purpose rewrites tests/data/reports.txt
    # with the tool, so the diff of that file shows which reports it altered.
    tool.main([])
    assert capsys.readouterr().out == (ROOT / "tests" / "data" / "reports.txt").read_text()


def test_report_fingerprints_on_a_subset(capsys, tool):
    tool.main(["--max-cells", "2", "--setups", "plaquette4,tetriamond"])
    lines = capsys.readouterr().out.splitlines()
    *calls, total = lines
    assert total == hashlib.sha256("\n".join(calls).encode()).hexdigest() + "  total"
    commands = [line.split()[1] for line in calls]
    # 4 enumerate calls; 2 fixtures and 4 polyforms, 5 calls each; 8 lc-orbit and one over budget;
    # 16 lc-equiv and one over its witness budget; reduce 3 times; locality, lc-orbit, lc-equiv and
    # reduce on 2 bad files; selftest
    assert [commands.count(c) for c in ("enumerate", "locality", "phi", "verify-thm1", "lc-orbit", "lc-equiv", "reduce", "selftest")] == [
        4, 14, 12, 6, 11, 19, 5, 1,
    ]
    assert len(set(calls)) == len(calls)
    # a line's fingerprint is that of the call's exit status and output
    setup = tool.FIXTURES / "tetriamond.json"
    code = cli.main(["locality", "--setup", str(setup), "--format", "json"])
    out = capsys.readouterr().out
    fingerprint = hashlib.sha256(f"{code}\n{out}\n\n".encode()).hexdigest()
    assert f"{fingerprint}  locality --setup tetriamond.json --format json" in calls
