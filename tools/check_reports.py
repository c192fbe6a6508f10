#!/usr/bin/env python3
"""Fingerprint the reports of the ``toricgs`` command, so that two checkouts compare with one diff.

Runs the command in this process over a fixed set of inputs and prints one
line per call: the SHA-256 of its exit status, standard output, standard
error and any file it wrote, then the command line with file paths cut to
their base names.  The last line is the SHA-256 of all the lines before it.
Two checkouts print the same reports exactly when this script prints the
same lines for both.  ``tests/data/reports.txt`` holds the lines of a full
run, and ``tests/test_check_reports.py`` compares a fresh run against it;
after a change that alters a report on purpose, rewrite it with

    python3 tools/check_reports.py > tests/data/reports.txt

The calls are ``enumerate`` for every polyform of up to ``--max-cells``
cells; ``locality`` and ``phi`` in json and dot, and ``verify-thm1``, on
every setup fixture and every polyform written by ``enumerate``
(``torus_3x3`` with ``--budget 100000``); ``lc-orbit`` with and without
``--paths``, dumping its members, on each graph fixture; the 16 ``lc-equiv``
pairs of the graph fixtures; ``reduce`` on the bundled chain, also with a
budget it exceeds; ``reduce`` on a chain whose one base, the polyform
``square_3_1``, is local; ``lc-orbit`` with a budget it exceeds;
``lc-equiv`` on an edgeless 13-vertex graph against the same graph with
edge (0, 1), whose witness search exceeds its budget; an error
report for a missing and for a malformed input file of each of
``locality``, ``lc-orbit``, ``lc-equiv`` and ``reduce``; and
``selftest --only 99``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from toricgs import cli
from toricgs.fixture_files import fixture_path
from toricgs.graphs import SimpleGraph, graph_to_dict
from toricgs.polyforms import LATTICES, enumerate_polyforms, polyform_embedding

FIXTURES = Path(fixture_path("chain")).parent
GRAPHS = sorted(FIXTURES.glob("*.graph.json"))
SETUPS = sorted(p for p in FIXTURES.glob("*.json") if not p.name.endswith(".graph.json"))
BUDGETS = {"torus_3x3.json": ["--budget", "100000"]}  # its class is far larger than any default run


def run(argv: list[str], written: Optional[Path] = None) -> str:
    """One line: the fingerprint of one in-process call, then its command line.

    ``written`` is a file the call writes; its bytes are hashed too.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    if written is not None:
        h.update(written.read_bytes())
    return f"{h.hexdigest()}  {' '.join(os.path.basename(a) for a in argv)}"


def reports(workdir: Path, max_cells: int = 5, setups: Sequence[Path] = SETUPS) -> Iterator[str]:
    """The line of every call, in a fixed order; polyform setups are written to ``workdir``."""
    workdir.mkdir(exist_ok=True)
    for lattice in LATTICES:
        for cells in range(1, max_cells + 1):
            yield run(["enumerate", "--lattice", lattice, "--n", str(cells), "--out", str(workdir)])
    for setup in [*setups, *sorted(workdir.glob("*.json"))]:
        for fmt in ("json", "dot"):
            yield run(["locality", "--setup", str(setup), "--format", fmt, *BUDGETS.get(setup.name, [])])
            yield run(["phi", "--setup", str(setup), "--format", fmt])
        yield run(["verify-thm1", "--setup", str(setup)])
    dump = workdir / "orbit.txt"
    for graph in GRAPHS:
        for paths in ([], ["--paths"]):
            yield run(["lc-orbit", "--graph", str(graph), *paths, "--out", str(dump)], dump)
    for g in GRAPHS:
        for h in GRAPHS:
            yield run(["lc-equiv", "--g", str(g), "--h", str(h)])
    chain = fixture_path("chain/pentomino_chain.json")
    yield run(["reduce", "--chain", chain])
    yield run(["reduce", "--chain", chain, "--budget", "10"])
    yield run(["lc-orbit", "--graph", fixture_path("complete5.graph.json"), "--budget", "3"])
    inputs = workdir / "inputs"  # beside the polyforms, which are globbed above
    inputs.mkdir()
    square_3_1 = polyform_embedding(enumerate_polyforms(3, "square")[1], "square")
    local_base = inputs / "local_base.json"
    local_base.write_text(json.dumps({"systems": {"p": square_3_1.to_dict()}, "base": ["p"]}))
    yield run(["reduce", "--chain", str(local_base)])
    edgeless, one_edge = inputs / "edgeless13.graph.json", inputs / "one_edge13.graph.json"
    edgeless.write_text(json.dumps(graph_to_dict(SimpleGraph.empty(range(13)))))
    one_edge.write_text(json.dumps(graph_to_dict(SimpleGraph.from_edges(range(13), [(0, 1)]))))
    yield run(["lc-equiv", "--g", str(edgeless), "--h", str(one_edge)])
    malformed = inputs / "malformed.json"
    malformed.write_text('{"vertices": [')
    for bad in ("/nonexistent/missing.json", str(malformed)):  # a fixed path: it is in the message
        yield run(["locality", "--setup", bad])
        yield run(["lc-orbit", "--graph", bad])
        yield run(["lc-equiv", "--g", str(GRAPHS[0]), "--h", bad])
        yield run(["reduce", "--chain", bad])
    yield run(["selftest", "--only", "99"])


def main(argv: Optional[list[str]] = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-cells", type=int, default=5, help="largest polyforms, in cells")
    p.add_argument("--setups", help="CSV of setup fixture names (default: all)")
    args = p.parse_args(argv)
    setups = SETUPS if args.setups is None else [FIXTURES / f"{name}.json" for name in args.setups.split(",")]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for line in reports(Path(tmp) / "polyforms", args.max_cells, setups):
            print(line)
            lines.append(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}  total")


if __name__ == "__main__":
    main()
