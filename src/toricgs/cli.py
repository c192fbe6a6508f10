"""Command-line front end.

Every subcommand prints one JSON report to standard output, except that a
``selftest`` that runs prints one line per criterion instead.  Each
``cmd_*`` function returns its exit status and its result, and :func:`main`
alone builds the report around that result: the command, a SHA-256 digest of
each input file the subcommand read, and the result: ``reduce`` reads its
chain and each system file the chain names, as ``systems.<name>``.  A
subcommand reads each of those files once, so the digest is of the very
bytes it parsed.  Reports contain no timestamps,
so identical configurations produce byte-identical output.  Exit status is 0
whenever the analysis completed (whatever the verdict), 1 on bad input,
internal errors or a reader that closed standard output early (then nothing
more is written), and 2 when an enumeration budget was exhausted (verdict
unknown); :func:`main` reports an exhausted orbit budget, except that
``locality`` reports it as the verdict "unknown".  A reduction chain that
fails one of its hypotheses aborts and exits 1, since an unverified chain is
an error of the chain specification, not a verdict.  ``lc-equiv`` re-checks
the witness it prints, and ``certify_nonlocal`` replays the local path that
``locality`` prints, each by code independent of the code that found it; a
failed check is an internal error.  The argument parser is built on the
first call of :func:`main` and reused by every later call in the process;
each subcommand looks up the functions it calls when it runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
from typing import Optional

from . import acceptance
from .graphs import (
    GraphError,
    SimpleGraph,
    SpanningTree,
    first_spanning_tree,
    graph_from_dict,
    graph_to_dict,
    to_dot,
)
from .lc import DEFAULT_ORBIT_BUDGET, CertificateError, OrbitBudgetError, certify_nonlocal, lc_orbit
from .lc_system import WitnessBudgetError, lc_equivalent, verify_witness
from .polyforms import LATTICES, enumerate_polyforms, polyform_embedding
from .reduction import CertStore, load_chain_spec, reduction_chain
from .surface import (
    adjacency_relation,
    dump_setup,
    load_setup,
    locality_pair,
    phi_graph,
    surface_stabilizer,
    transform_to_graph_state,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True, default=str), flush=True)


def _read_input(args, name: str, path: Optional[str] = None) -> str:
    """The text of input ``name``, read once and recorded in ``args.records`` with its digest.

    The file is the one at ``path``, by default the argument ``name``.  The
    bytes are decoded as a file opened with ``encoding="utf-8"`` decodes
    them, newlines translated, so a parse error reads as it would from the file.
    """
    path = getattr(args, name) if path is None else path
    with open(path, "rb") as fh:
        data = fh.read()
    args.records[name] = {"path": os.path.basename(path), "sha256": hashlib.sha256(data).hexdigest()}
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _csv_integers(text: str, flag: str) -> list[int]:
    """Parse a CSV of integers, each in ASCII digits after an optional ``-``; blank entries are skipped."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    for tok in tokens:
        digits = tok.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"{flag} must be a CSV of integers in ASCII digits, got {tok!r}")
    return [int(tok) for tok in tokens]


def _parse_tree(emb, tree_csv: Optional[str]) -> SpanningTree:
    if tree_csv is None:
        return first_spanning_tree(emb.graph)
    indices = _csv_integers(tree_csv, "--tree")
    repeated = sorted({k for k in indices if indices.count(k) > 1})
    if repeated:
        raise GraphError(f"--tree repeats edge indices {repeated}")
    return SpanningTree(emb.graph, frozenset(indices))


def _load_graph(args, name: str) -> SimpleGraph:
    return graph_from_dict(json.loads(_read_input(args, name)))


def _write_out(path: Optional[str], content: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def cmd_phi(args) -> tuple[int, dict]:
    emb = load_setup(args.setup, _read_input(args, "setup"))
    tree = _parse_tree(emb, args.tree)
    graph = phi_graph(emb, tree)
    result = {
        "qubits": emb.n_qubits,
        "tree_edges": sorted(tree.tree_edges),
        "hadamard_qubits": sorted(emb.qubit_ids[k] for k in tree.deleted_edges),
        "graph": graph_to_dict(graph),
    }
    if args.format == "dot":
        result["dot"] = to_dot(graph, adjacency_relation(emb))
        _write_out(args.out, result["dot"])
    else:
        _write_out(args.out, json.dumps(result["graph"], indent=2, sort_keys=True))
    return EXIT_OK, result


def cmd_verify_thm1(args) -> tuple[int, dict]:
    emb = load_setup(args.setup, _read_input(args, "setup"))
    tree = _parse_tree(emb, args.tree)
    _, degeneracy = surface_stabilizer(emb)
    res = transform_to_graph_state(emb, tree)
    return EXIT_OK, {
        "degeneracy": degeneracy,
        "hadamard_qubits": sorted(res.hadamard_qubits),
        "graph": graph_to_dict(res.graph),
        "verified": res.verified,
    }


def cmd_lc_orbit(args) -> tuple[int, dict]:
    graph = _load_graph(args, "graph")
    orbit = lc_orbit(graph, budget=args.budget)
    result = {
        "status": "complete",
        "vertices": orbit.n_vertices,
        "orbit_size": orbit.size,
        "generations": orbit.generations,
        "seed_key": format(orbit.seed_key, "x"),
        "orbit_digest": orbit.digest(),
    }
    if args.out:
        paths = orbit.paths() if args.paths else None
        lines = []
        for key in orbit.members:
            lines.append(f"{key:x}" if paths is None else f"{key:x} {','.join(map(str, paths[key]))}")
        _write_out(args.out, "\n".join(lines) + "\n")
        result["dump"] = os.path.basename(args.out)
    return EXIT_OK, result


def cmd_lc_equiv(args) -> tuple[int, dict]:
    g = _load_graph(args, "g")
    h = _load_graph(args, "h")
    try:
        witness = lc_equivalent(g, h)
    except WitnessBudgetError as exc:
        return EXIT_BUDGET, {"status": "budget-exceeded", "free_dimensions": exc.free_dim}
    result: dict = {"status": "complete", "equivalent": witness is not None}
    if witness is not None:
        if not verify_witness(g, h, witness):
            raise CertificateError("internal error: the LC witness fails the matrix identity")
        result["witness"] = witness.diagonals()
    return EXIT_OK, result


def cmd_locality(args) -> tuple[int, dict]:
    graph, allowed = locality_pair(load_setup(args.setup, _read_input(args, "setup")))
    try:
        orbit = certify_nonlocal(graph, allowed, budget=args.budget)
    except OrbitBudgetError as exc:
        return EXIT_BUDGET, {"verdict": "unknown", "reason": "budget", "budget": exc.budget}
    if orbit.complete:
        return EXIT_OK, {"verdict": "nonlocal", "orbit_size": orbit.size, "orbit_digest": orbit.digest()}
    local = orbit.member_graph(orbit.hit_key)
    result = {
        "verdict": "local",
        "local_graph": graph_to_dict(local),
        "complementations": list(orbit.hit_path),
    }
    if args.format == "dot":
        result["dot"] = to_dot(local, allowed)
    return EXIT_OK, result


def cmd_reduce(args) -> tuple[int, dict]:
    spec = load_chain_spec(
        args.chain, _read_input(args, "chain"), lambda name, path: _read_input(args, f"systems.{name}", path)
    )
    store = CertStore(args.certs) if args.certs else None
    report = reduction_chain(spec, budget=args.budget, store=store)
    return (EXIT_OK if report.ok else EXIT_ERROR), {
        "ok": report.ok,
        "verdicts": dict(sorted(report.verdicts.items())),
        "base_orbits": report.base_orbits,
        "steps_verified": report.steps_verified,
        "failures": report.failures,
    }


def cmd_enumerate(args) -> tuple[int, dict]:
    shapes = enumerate_polyforms(args.n, args.lattice)
    written = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, shape in enumerate(shapes):
            emb = polyform_embedding(shape, args.lattice)
            path = os.path.join(args.out, f"{args.lattice}_{args.n}_{i}.json")
            dump_setup(emb, path)
            written.append(os.path.basename(path))
    return EXIT_OK, {
        "lattice": args.lattice,
        "cells": args.n,
        "count": len(shapes),
        "shapes": [[list(c) for c in shape] for shape in shapes],
        "files": written,
    }


def cmd_selftest(args) -> tuple[int, None]:
    """Print one line per criterion and a summary line; there is no JSON report."""
    results = acceptance.run_all(_csv_integers(args.only, "--only") if args.only else None)
    for res in results:
        print(res.line())
    failed = [res.number for res in results if not res.passed]
    print(f"selftest: {len(results) - len(failed)}/{len(results)} criteria passed")
    return (EXIT_OK if not failed else EXIT_ERROR), None


def _at_least_one(text: str) -> int:
    """Parse ``--budget`` and ``--n``: an integer of at least 1, in ASCII digits."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


@functools.cache  # built on the first call, then reused by every call of ``main``
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricgs",
        description="Surface-code setups, equivalent graph states, locality verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_budget(p):
        p.add_argument(
            "--budget", type=_at_least_one, default=DEFAULT_ORBIT_BUDGET, help="orbit member budget"
        )

    p = sub.add_parser("phi", help="map a setup to its tree graph")
    p.add_argument("--setup", required=True, help="setup JSON file")
    p.add_argument("--tree", help="CSV of spanning-tree edge indices")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--out", help="write the graph/DOT here as well")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("verify-thm1", help="span check of the rotated stabilizer")
    p.add_argument("--setup", required=True, help="setup JSON file")
    p.add_argument("--tree", help="CSV of spanning-tree edge indices")
    p.set_defaults(func=cmd_verify_thm1)

    p = sub.add_parser("lc-orbit", help="enumerate a graph's complementation class")
    with_budget(p)
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--paths", action="store_true", help="track complementation paths")
    p.add_argument("--out", help="dump hex keys (and paths) to this file")
    p.set_defaults(func=cmd_lc_orbit)

    p = sub.add_parser("lc-equiv", help="pairwise equivalence witness")
    p.add_argument("--g", required=True, help="first graph JSON file")
    p.add_argument("--h", required=True, help="second graph JSON file")
    p.set_defaults(func=cmd_lc_equiv)

    p = sub.add_parser("locality", help="local / nonlocal / unknown verdict")
    with_budget(p)
    p.add_argument("--setup", required=True, help="setup JSON file")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(func=cmd_locality)

    p = sub.add_parser("reduce", help="verify a reduction chain")
    with_budget(p)
    p.add_argument("--chain", required=True, help="chain specification JSON")
    p.add_argument("--certs", help="certificate store directory")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("enumerate", help="enumerate polyform setups")
    p.add_argument("--lattice", choices=tuple(LATTICES), required=True)
    p.add_argument("--n", type=_at_least_one, required=True, help="number of cells")
    p.add_argument("--out", help="directory for the setup files")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", help="CSV of criterion numbers to run")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand and print its report: the only place a report is built."""
    args = build_parser().parse_args(argv)
    args.records = {}  # filled by _read_input as the subcommand reads its inputs
    try:
        try:
            code, result = args.func(args)
        except OrbitBudgetError as exc:
            code, result = EXIT_BUDGET, {"status": "budget-exceeded", "budget": exc.budget}
        if result is not None:
            _emit({"command": args.command, "inputs": args.records, "result": result})
        return code
    except BrokenPipeError:  # the reader closed standard output, so no report can reach it
        with open(os.devnull, "w") as devnull:  # so the flush at exit writes nowhere
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_ERROR
    except (ValueError, OSError) as exc:  # GraphError, EmbeddingError, JSONDecodeError among them
        _emit({"command": args.command, "error": str(exc)})
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
