"""Command-line interface: reports, determinism, exit codes."""

import hashlib
import json
import os
from pathlib import Path

import pytest

from toricgs import cli, lc, surface
from toricgs.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, main
from toricgs.fixture_files import fixture_path
from toricgs.graphs import GraphError, SimpleGraph
from toricgs.surface import adjacency_relation, load_setup, phi_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def run_error(capsys, *argv):
    """Run a command that must fail: one JSON error report on stdout, exit 1, nothing on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == ""
    report = json.loads(captured.out)  # exactly one JSON document
    assert sorted(report) == ["command", "error"] and report["command"] == argv[0]
    return report["error"]


def test_phi_star_dot(capsys):
    code, report = run_json(
        capsys, "phi", "--setup", fixture_path("plaquette4.json"), "--format", "dot"
    )
    assert code == EXIT_OK
    assert report["result"]["hadamard_qubits"] == [3]
    dot = report["result"]["dot"]
    assert '"0" -- "3";' in dot and "style=dashed" not in dot
    assert report["inputs"]["setup"]["sha256"]


def test_phi_nonlocal_edges_drawn_dashed(capsys):
    # a tree CSV that forces a long fundamental path: some pairs not vicinal
    code, report = run_json(
        capsys,
        "phi",
        "--setup",
        fixture_path("pentomino_plus.json"),
        "--format",
        "dot",
    )
    assert code == EXIT_OK
    assert "style=dashed" in report["result"]["dot"]


def test_phi_reports_are_byte_identical_across_runs(capsys):
    args = ("phi", "--setup", fixture_path("tetriamond.json"))
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    _, third = run_cli(capsys, *args)
    assert first == second == third


def test_phi_explicit_tree(capsys):
    code, report = run_json(
        capsys,
        "phi",
        "--setup",
        fixture_path("plaquette4.json"),
        "--tree",
        "1,2,3",
    )
    assert code == EXIT_OK
    assert report["result"]["hadamard_qubits"] == [0]


TREE_ERRORS = {
    "0,1,99": "tree edge indices must lie in 0..3",
    "0,1,-1": "tree edge indices must lie in 0..3",
    "0,1,1,2": "--tree repeats edge indices [1]",
    # int() reads these as 0, 1, 2, but an index is written in ASCII digits, as a budget is
    "0_0,1,2": "--tree must be a CSV of integers in ASCII digits, got '0_0'",
    "\u0660,\u0661,\u0662": "--tree must be a CSV of integers in ASCII digits, got '\u0660'",
    "+0,1,2": "--tree must be a CSV of integers in ASCII digits, got '+0'",
    "0,1,--2": "--tree must be a CSV of integers in ASCII digits, got '--2'",
}


@pytest.mark.parametrize("command", ["phi", "verify-thm1"])
@pytest.mark.parametrize("tree", sorted(TREE_ERRORS))
def test_tree_index_outside_the_host_is_an_error_report(capsys, command, tree):
    error = run_error(capsys, command, "--setup", fixture_path("plaquette4.json"), "--tree", tree)
    assert error == TREE_ERRORS[tree]


def test_verify_thm1(capsys):
    code, report = run_json(
        capsys, "verify-thm1", "--setup", fixture_path("torus_2x2.json")
    )
    assert code == EXIT_OK
    assert report["result"]["verified"] is True
    assert report["result"]["degeneracy"] == 4


def test_lc_orbit_stats_and_dump(capsys, tmp_path):
    out = tmp_path / "orbit.txt"
    code, report = run_json(
        capsys,
        "lc-orbit",
        "--graph",
        fixture_path("star4.graph.json"),
        "--paths",
        "--out",
        str(out),
    )
    assert code == EXIT_OK
    assert report["result"]["status"] == "complete"
    lines = out.read_text().strip().splitlines()
    assert len(lines) == report["result"]["orbit_size"]
    assert all(" " in line or line for line in lines)


def test_lc_orbit_empty_graph_generations(capsys, tmp_path):
    graph = tmp_path / "empty.graph.json"
    graph.write_text(json.dumps({"vertices": [], "edges": []}))
    for paths in ((), ("--paths",)):
        code, report = run_json(capsys, "lc-orbit", "--graph", str(graph), *paths)
        assert code == EXIT_OK
        assert report["result"]["orbit_size"] == 1
        assert report["result"]["generations"] == 1


def test_lc_orbit_budget_exit_code(capsys):
    code, report = run_json(
        capsys,
        "lc-orbit",
        "--graph",
        fixture_path("complete5.graph.json"),
        "--budget",
        "2",
    )
    assert code == EXIT_BUDGET
    assert report["result"]["status"] == "budget-exceeded"


def test_lc_equiv_star_complete(capsys):
    code, report = run_json(
        capsys,
        "lc-equiv",
        "--g",
        fixture_path("star5.graph.json"),
        "--h",
        fixture_path("complete5.graph.json"),
    )
    assert code == EXIT_OK
    assert report["result"]["equivalent"] is True
    witness = report["result"]["witness"]
    assert set(witness) == {"a", "b", "c", "d"}


def test_lc_equiv_negative(capsys):
    code, report = run_json(
        capsys,
        "lc-equiv",
        "--g",
        fixture_path("path4.graph.json"),
        "--h",
        fixture_path("star4.graph.json"),
    )
    assert code == EXIT_OK
    assert report["result"]["equivalent"] is False
    assert "witness" not in report["result"]


def test_lc_equiv_budget_exceeded(capsys, tmp_path):
    # 13 vertices and one edge: 37 free dimensions, beyond the default witness budget
    g, h = tmp_path / "edgeless.graph.json", tmp_path / "one_edge.graph.json"
    g.write_text(json.dumps({"vertices": list(range(13)), "edges": []}))
    h.write_text(json.dumps({"vertices": list(range(13)), "edges": [[0, 1]]}))
    code, report = run_json(capsys, "lc-equiv", "--g", str(g), "--h", str(h))
    assert code == EXIT_BUDGET
    assert report["result"] == {"status": "budget-exceeded", "free_dimensions": 37}


@pytest.mark.parametrize("diagonal", "abcd")
def test_lc_equiv_rejects_a_witness_that_fails_the_identity(capsys, monkeypatch, diagonal):
    real = cli.lc_equivalent

    def flipped(g, h):
        witness = real(g, h)
        return witness._replace(**{diagonal: getattr(witness, diagonal) ^ 1})

    monkeypatch.setattr(cli, "lc_equivalent", flipped)
    error = run_error(
        capsys, "lc-equiv", "--g", fixture_path("star5.graph.json"), "--h", fixture_path("complete5.graph.json")
    )
    assert error == "internal error: the LC witness fails the matrix identity"


@pytest.mark.parametrize(
    "path, message",
    [
        ((0, 4), "internal error: the complementations do not replay to a local graph"),
        ((0, 99), "unknown vertex 99"),
    ],
)
def test_locality_rejects_complementations_that_do_not_replay(capsys, monkeypatch, tmp_path, path, message):
    run_cli(capsys, "enumerate", "--lattice", "square", "--n", "3", "--out", str(tmp_path))
    real = lc._orbit_vector

    def moved(*args, **kwargs):
        orbit = real(*args, **kwargs)
        assert orbit.hit_path == (0, 5)  # LOCAL_PATHS[("square", 3, 1)]
        orbit.hit_path = path
        return orbit

    monkeypatch.setattr(lc, "_orbit_vector", moved)
    assert run_error(capsys, "locality", "--setup", str(tmp_path / "square_3_1.json")) == message


def test_locality_path_lists_positions_when_qubit_ids_are_not_positions(capsys, tmp_path):
    # The replay check must read the path as positions, or this verdict would be an internal error.
    run_cli(capsys, "enumerate", "--lattice", "square", "--n", "3", "--out", str(tmp_path))
    setup = tmp_path / "square_3_1.json"
    data = json.loads(setup.read_text())
    data["qubit_ids"] = data["qubit_ids"][::-1]
    setup.write_text(json.dumps(data))
    code, report = run_json(capsys, "locality", "--setup", str(setup))
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "local"
    assert report["result"]["complementations"] == [0, 5]


def test_locality_local_instance(capsys):
    code, report = run_json(
        capsys, "locality", "--setup", fixture_path("plaquette4.json")
    )
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "local"
    assert report["result"]["complementations"] == []


def test_locality_nonlocal_instance(capsys):
    code, report = run_json(
        capsys, "locality", "--setup", fixture_path("tetriamond.json")
    )
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "nonlocal"
    assert report["result"]["orbit_size"] == 828


# Class size and orbit digest of each nonlocal setup fixture.
NONLOCAL_CLASSES = {
    "pentomino_plus": (20992, "7f97966fc5015cea455cd349af777df40a3fdb9873b44c3e930bc5be44c5d319"),
    "tetriamond": (828, "025c936bcef23014179ddf1b42b30a4e763e34c955d0956557cf28e82cded436"),
    "reduced_8qubit": (148, "7b150cd88f5a1393acb4de90a164add94967e912f25a299db5d2f888531dfb2a"),
    "torus_2x2": (148, "5d0d5b0e2dd0f594bb8986b0a6a59faff6a3501f56e14a97d6841f93c8bf640e"),
}


@pytest.mark.parametrize("setup", sorted(NONLOCAL_CLASSES))
def test_locality_pins_nonlocal_classes(capsys, setup):
    size, digest = NONLOCAL_CLASSES[setup]
    code, report = run_json(capsys, "locality", "--setup", fixture_path(f"{setup}.json"))
    assert code == EXIT_OK
    assert report["result"] == {"verdict": "nonlocal", "orbit_size": size, "orbit_digest": digest}


# Reported complementations of every local polyform up to 5 cells, keyed by
# (lattice, cells, index in enumeration order); shapes not listed are
# nonlocal, or local with the empty path.
LOCAL_PATHS = {
    ("square", 3, 1): [0, 5],
    ("square", 4, 1): [0, 7],
    ("square", 4, 2): [2, 8],
    ("square", 4, 3): [0, 2, 5, 7],
    ("square", 4, 4): [2, 6],
    ("square", 5, 1): [0, 9],
    ("square", 5, 2): [2, 10],
    ("square", 5, 3): [0, 2, 7, 9],
    ("square", 5, 4): [0, 4, 7, 11],
    ("square", 5, 5): [0, 7, 8, 12],
    ("square", 5, 6): [2, 8, 9, 12],
    ("square", 5, 7): [4, 9],
    ("square", 5, 8): [2, 6, 7, 11],
    ("square", 5, 9): [2, 6, 8, 12],
    ("square", 5, 10): [2, 6, 7, 9],
    ("triangular", 2, 0): [0, 2],
    ("triangular", 3, 0): [0, 3],
    ("triangular", 4, 0): [0, 2, 3, 5],
    ("triangular", 4, 2): [0, 1, 3, 5],
    ("triangular", 5, 0): [0, 2, 3, 6],
    ("triangular", 5, 2): [0, 2, 3, 5, 6, 8],
    ("triangular", 5, 3): [0, 1, 3, 5, 6, 8],
}
NONLOCAL_POLYFORMS = {("square", 5, 11), ("triangular", 4, 1), ("triangular", 5, 1)}


def test_locality_pins_complementations_of_local_polyforms(capsys, tmp_path):
    seen = set()
    for lattice in ("square", "triangular"):
        for cells in range(1, 6):
            _, report = run_json(
                capsys, "enumerate", "--lattice", lattice, "--n", str(cells), "--out", str(tmp_path)
            )
            for index in range(report["result"]["count"]):
                shape = (lattice, cells, index)
                if shape in NONLOCAL_POLYFORMS:
                    continue
                setup = tmp_path / f"{lattice}_{cells}_{index}.json"
                code, result = run_json(capsys, "locality", "--setup", str(setup))
                assert code == EXIT_OK
                assert result["result"]["verdict"] == "local"
                assert result["result"]["complementations"] == LOCAL_PATHS.get(shape, [])
                seen.add(shape)
    assert set(LOCAL_PATHS) <= seen


def test_locality_unknown_on_budget_beyond_one_key_word(capsys):
    # 18 qubits: three-word keys; the budget is checked per frontier batch
    code, report = run_json(
        capsys, "locality", "--setup", fixture_path("torus_3x3.json"), "--budget", "100000"
    )
    assert code == EXIT_BUDGET
    assert report["result"] == {"verdict": "unknown", "reason": "budget", "budget": 100000}


def test_locality_unknown_on_budget(capsys):
    code, report = run_json(
        capsys,
        "locality",
        "--setup",
        fixture_path("tetriamond.json"),
        "--budget",
        "5",
    )
    assert code == EXIT_BUDGET
    assert report["result"]["verdict"] == "unknown"


def test_locality_rejects_a_degenerate_setup(capsys, tmp_path):
    # The 8-cell ring has a hole, so it does not pin a unique state: one error
    # report, as verify-thm1 gives, not a verdict about one state of its ground space.
    from toricgs.polyforms import polyform_embedding
    from toricgs.surface import dump_setup

    path = str(tmp_path / "ring.json")
    dump_setup(polyform_embedding([(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)], "square"), path)
    error = run_error(capsys, "locality", "--setup", path, "--budget", "1000")
    assert error == "residual degeneracy 2^1: the instance does not pin a unique state"
    assert run_error(capsys, "verify-thm1", "--setup", path) == error


def test_reduce_chain(capsys):
    code, report = run_json(capsys, "reduce", "--chain", fixture_path("chain/pentomino_chain.json"))
    assert code == EXIT_OK
    assert report["result"]["ok"] is True
    assert report["result"]["verdicts"]["s0"] == "nonlocal"
    assert len(report["result"]["verdicts"]) == 17


def test_enumerate_writes_fixtures(capsys, tmp_path):
    code, report = run_json(
        capsys,
        "enumerate",
        "--lattice",
        "square",
        "--n",
        "3",
        "--out",
        str(tmp_path),
    )
    assert code == EXIT_OK
    assert report["result"]["count"] == 2
    assert len(report["result"]["files"]) == 2
    assert (tmp_path / "square_3_0.json").exists()


def test_report_hashes_the_bytes_it_parsed(capsys, monkeypatch, tmp_path):
    # The setup file is rewritten right after it is parsed: the verdict and
    # the digest in the report must both be of the bytes that were parsed.
    setup = tmp_path / "setup.json"
    parsed = Path(fixture_path("plaquette4.json")).read_bytes()
    other = Path(fixture_path("pentomino_plus.json")).read_bytes()
    setup.write_bytes(parsed)
    setup_from_dict = surface.setup_from_dict

    def parse_then_rewrite(data):
        emb = setup_from_dict(data)
        setup.write_bytes(other)
        return emb

    monkeypatch.setattr(surface, "setup_from_dict", parse_then_rewrite)
    code, report = run_json(capsys, "locality", "--setup", str(setup))
    assert code == EXIT_OK and setup.read_bytes() == other
    assert report["inputs"]["setup"] == {"path": "setup.json", "sha256": hashlib.sha256(parsed).hexdigest()}
    assert report["result"]["verdict"] == "local"  # plaquette4; the plus pentomino is nonlocal


def test_error_exit_code_on_missing_file(capsys):
    code, report = run_json(capsys, "phi", "--setup", "/nonexistent/file.json")
    assert code == EXIT_ERROR
    assert "error" in report


def test_selftest_subset(capsys):
    code = main(["selftest", "--only", "1,2,9,10"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("[PASS]") == 4
    assert "4/4 criteria passed" in out


def test_selftest_unknown_criterion_is_an_error_report(capsys):
    error = run_error(capsys, "selftest", "--only", "1,99")
    assert error == "unknown criterion numbers [99]; criteria are numbered 1 to 11"


@pytest.mark.parametrize("only", [",", " , ", ""])
def test_selftest_only_naming_no_criterion_is_an_error_report(capsys, only):
    # not "0/0 criteria passed", and not every criterion
    assert run_error(capsys, "selftest", "--only", only) == f"--only names no criterion, got {only!r}"


@pytest.mark.parametrize("only", ["0_9", "\u0669", "+9", "9.0", "-"])
def test_selftest_number_outside_ascii_digits_is_an_error_report(capsys, only):
    error = run_error(capsys, "selftest", "--only", f"1,{only}")
    assert error == f"--only must be a CSV of integers in ASCII digits, got {only!r}"


def test_console_script_entry_point(tmp_path):
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "toricgs.cli", "selftest", "--only", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


def test_reader_closing_standard_output_early_is_quiet():
    # The report (about 140 kB) overfills the pipe, so the reader's close
    # after one line reaches the writer mid-report: exit 1, nothing on stderr.
    import subprocess, sys

    argv = ["enumerate", "--lattice", "square", "--n", "8"]
    with subprocess.Popen([sys.executable, "-m", "toricgs.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=60)) == (b"", EXIT_ERROR)


NUMPY_FREE = {
    "import": ("-c", "import toricgs"),
    "phi": ("-m", "toricgs.cli", "phi", "--setup", fixture_path("torus_3x3.json")),
    "verify-thm1": ("-m", "toricgs.cli", "verify-thm1", "--setup", fixture_path("pentomino_plus.json")),
    "lc-equiv": ("-m", "toricgs.cli", "lc-equiv", "--g", fixture_path("star5.graph.json"), "--h", fixture_path("complete5.graph.json")),
    "enumerate": ("-m", "toricgs.cli", "enumerate", "--lattice", "triangular", "--n", "4"),
}
NUMPY_USING = {
    "locality": ("-m", "toricgs.cli", "locality", "--setup", fixture_path("plaquette4.json")),
    "lc-orbit": ("-m", "toricgs.cli", "lc-orbit", "--graph", fixture_path("path4.graph.json")),
}


def _runs_numpy(args) -> bool:
    """Whether a fresh process with these arguments executes numpy.

    ``-X importtime`` writes one stderr line per module whose code runs.
    ``numpy`` itself may be a module object whose import is deferred, so
    its first submodule, which only a real import runs, is what counts.
    """
    import subprocess, sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return "numpy._core" in imported


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_commands_without_orbits_leave_numpy_unloaded(case):
    assert not _runs_numpy(NUMPY_FREE[case])


@pytest.mark.parametrize("case", sorted(NUMPY_USING))
def test_commands_with_orbits_load_numpy(case):
    assert _runs_numpy(NUMPY_USING[case])


def test_reduce_failing_chain_exits_nonzero(capsys, tmp_path):
    def edit(spec):
        spec["base"] = []  # no exhaustive base: nothing can be certified

    result = _failed_reduce(capsys, tmp_path, edit)
    names = sorted(result["verdicts"])
    assert result["failures"] == [f"systems left unverified: {names}"]
    assert result["steps_verified"] == 0
    assert result["base_orbits"] == {}
    assert set(result["verdicts"].values()) == {"unverified"}


def test_reduce_chain_with_a_wrong_relabeling_stops_there(capsys, tmp_path):
    def edit(spec):
        vertex_map = spec["relabel"][0]["vertex_map"]
        vertex_map[0][1], vertex_map[1][1] = vertex_map[1][1], vertex_map[0][1]

    result = _failed_reduce(capsys, tmp_path, edit)
    assert result["failures"] == ["relabeling of m1 onto s1 does not verify"]
    # each round fires the ready relabelings, then the ready steps: s7 down to s1
    assert result["steps_verified"] == 7
    unverified = sorted(n for n, v in result["verdicts"].items() if v == "unverified")
    assert unverified == ["m1", "s0"]


def test_reduce_relabeling_with_labels_of_mixed_types_fails_closed(capsys, tmp_path):
    # An integer label among the tuple labels cannot be sorted against them;
    # the maps are compared as sets, so the relabeling simply does not verify.
    def edit(spec):
        spec["relabel"][0]["vertex_map"][0][0] = 5

    result = _failed_reduce(capsys, tmp_path, edit)
    assert result["failures"] == ["relabeling of m1 onto s1 does not verify"]


def test_verdict_paths_build_no_checked_tableau(capsys, monkeypatch):
    # Degeneracy is decided by homology_rank, so the verdict paths never run
    # the O(n^2) public Tableau check (sector_tableau and transforms still do).
    from toricgs import pauli
    from toricgs.reduction import load_chain_spec, reduction_chain
    from toricgs.surface import locality_pair

    def refuse(self, *args, **kwargs):
        raise AssertionError("a checked Tableau was built")

    monkeypatch.setattr(pauli.Tableau, "__init__", refuse)
    for name in ("tetriamond", "torus_2x2", "reduced_8qubit"):
        locality_pair(load_setup(fixture_path(f"{name}.json")))
    assert reduction_chain(load_chain_spec(fixture_path("chain/pentomino_chain.json"))).ok
    code, report = run_json(capsys, "locality", "--setup", fixture_path("tetriamond.json"))
    assert code == EXIT_OK and report["result"]["verdict"] == "nonlocal"


def test_reduce_chain_with_a_path_leaf_names_each_failed_hypothesis(capsys, tmp_path):
    def edit(spec):
        leaf = spec["steps"][-1]["leaf"]
        order = [leaf["outer"], leaf["inner"]]
        order += [v for v in leaf["vertices"] if v not in order]
        leaf["edges"] = [[u, v] for u, v in zip(order, order[1:])]

    result = _failed_reduce(capsys, tmp_path, edit)
    assert result["failures"] == [
        "step for s7: leaf graph is not LC-equivalent to the big system",
        "step for s7: leaf minus outer does not match reduced_a",
        "step for s7: swapped leaf minus outer does not match reduced_b",
    ]
    assert result["steps_verified"] == 1  # the failing step counts as checked
    nonlocal_ = sorted(n for n, v in result["verdicts"].items() if v == "nonlocal")
    assert nonlocal_ == ["m8", "s8"]


def test_reduce_chain_with_a_local_base_stops_at_that_base(capsys, tmp_path):
    def edit(spec):
        spec["systems"]["p"] = {"file": fixture_path("plaquette4.json")}
        spec["base"] = ["p"] + spec["base"]

    result = _failed_reduce(capsys, tmp_path, edit)
    assert result["failures"] == ["base system p has a local representative"]
    assert result["steps_verified"] == 0
    assert list(result["base_orbits"]) == ["p"]  # the later base s8 is never enumerated
    assert result["base_orbits"]["p"]["nonlocal"] is False
    assert set(result["verdicts"].values()) == {"unverified"}


def test_reduce_reports_the_path_of_a_local_base(capsys, tmp_path):
    # A local base's search stops at its hit, so the report gives the
    # replayed path of the hit, not the size and digest of a partial key set.
    run_cli(capsys, "enumerate", "--lattice", "square", "--n", "3", "--out", str(tmp_path))
    chain = tmp_path / "local_base.json"
    chain.write_text(json.dumps({"systems": {"p": {"file": "square_3_1.json"}}, "base": ["p"]}))
    code, report = run_json(capsys, "reduce", "--chain", str(chain))
    assert code == EXIT_ERROR
    assert report["result"]["failures"] == ["base system p has a local representative"]
    assert report["result"]["base_orbits"] == {"p": {"nonlocal": False, "complementations": [0, 5]}}


def test_reduce_budget_exhausted_is_one_report(capsys):
    chain = fixture_path("chain/pentomino_chain.json")
    code = main(["reduce", "--chain", chain, "--budget", "10"])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["command"] == "reduce"
    assert report["result"] == {"status": "budget-exceeded", "budget": 10}


def test_budget_only_on_enumerating_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--setup", fixture_path("plaquette4.json"), "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_budget_below_one_is_a_usage_error(capsys):
    # A superscript two is a digit to str.isdigit but not to int(), and
    # fullwidth digits are digits to both; neither is a budget.  --n takes the
    # same type: int() would read "\u0663" as 3, "1_0" as 10, "+2" and " 2" as 2.
    cases = [(["locality", "--setup", fixture_path("plaquette4.json"), "--budget"], v) for v in ("0", "\u00b2", "\uff11\uff10")]
    cases += [(["enumerate", "--lattice", "square", "--n"], v) for v in ("0", "\u0663", "1_0", "+2", " 2")]
    for argv, value in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {argv[-1]}: must be an integer of at least 1, got {value!r}" in err


def _broken_chain(tmp_path, edit):
    """A copy of the bundled chain specification, changed by ``edit``."""
    import os
    import shutil

    src = fixture_path("chain/pentomino_chain.json")
    spec = json.load(open(src))
    for entry in spec["systems"].values():
        shutil.copy(os.path.join(os.path.dirname(src), entry["file"]), tmp_path)
    edit(spec)
    chain = tmp_path / "broken_chain.json"
    chain.write_text(json.dumps(spec))
    return str(chain)


def _failed_reduce(capsys, tmp_path, edit):
    """The result of ``reduce`` on a changed copy of the bundled chain, which must fail."""
    code, report = run_json(capsys, "reduce", "--chain", _broken_chain(tmp_path, edit))
    assert code == EXIT_ERROR
    assert report["result"]["ok"] is False
    return report["result"]


def test_reduce_report_hashes_every_system_file(capsys, tmp_path):
    # The chain names 17 system files.  The report lists each of them beside
    # the chain, with the digest of the bytes parsed, so rewriting one
    # system file changes the report's inputs though the chain is the same.
    chain = _broken_chain(tmp_path, lambda spec: None)
    systems = json.loads(Path(chain).read_text())["systems"]
    code, before = run_json(capsys, "reduce", "--chain", chain)
    assert code == EXIT_OK and len(systems) == 17
    assert before["inputs"] == {
        "chain": {"path": "broken_chain.json", "sha256": hashlib.sha256(Path(chain).read_bytes()).hexdigest()},
        **{
            f"systems.{name}": {"path": entry["file"], "sha256": hashlib.sha256((tmp_path / entry["file"]).read_bytes()).hexdigest()}
            for name, entry in systems.items()
        },
    }
    s8 = tmp_path / systems["s8"]["file"]
    s8.write_text(json.dumps(json.loads(s8.read_text()), indent=1))  # the same setup in other bytes
    code, after = run_json(capsys, "reduce", "--chain", chain)
    assert code == EXIT_OK and after["result"] == before["result"]
    assert after["inputs"]["systems.s8"]["sha256"] == hashlib.sha256(s8.read_bytes()).hexdigest()
    assert {k: v for k, v in after["inputs"].items() if v != before["inputs"][k]} == {"systems.s8": after["inputs"]["systems.s8"]}


def test_reduce_chain_without_systems_is_an_error_report(capsys, tmp_path):
    chain = _broken_chain(tmp_path, lambda spec: spec.pop("systems"))
    code, report = run_json(capsys, "reduce", "--chain", chain)
    assert code == EXIT_ERROR
    assert report == {"command": "reduce", "error": "malformed chain specification: KeyError: 'systems'"}


def test_reduce_chain_naming_unknown_system_is_an_error_report(capsys, tmp_path):
    def edit(spec):
        spec["steps"][0]["reduced_a"] = "nowhere"

    code, report = run_json(capsys, "reduce", "--chain", _broken_chain(tmp_path, edit))
    assert code == EXIT_ERROR
    assert report == {
        "command": "reduce",
        "error": "chain specification names unknown systems: 'nowhere'",
    }


def test_lc_orbit_object_vertex_is_an_error_report(capsys, tmp_path):
    graph = tmp_path / "object_vertex.graph.json"
    graph.write_text(json.dumps({"vertices": [0, {"id": 1}], "edges": []}))
    code, report = run_json(capsys, "lc-orbit", "--graph", str(graph))
    assert code == EXIT_ERROR
    assert report["command"] == "lc-orbit"
    assert report["error"].startswith("malformed graph data:")


@pytest.mark.parametrize("vertices", ["abc", {"a": 1, "b": 2, "c": 3}])
def test_lc_orbit_vertices_not_an_array_is_an_error_report(capsys, tmp_path, vertices):
    # iterated, the string or the object would give a 3-vertex graph
    graph = tmp_path / "vertices.graph.json"
    graph.write_text(json.dumps({"vertices": vertices, "edges": []}))
    assert run_error(capsys, "lc-orbit", "--graph", str(graph)) == f"vertices must be an array, got {vertices!r}"


def test_reduce_vertex_map_entry_not_a_pair_is_an_error_report(capsys, tmp_path):
    # unpacked, "01" and "ab" would map vertex "0" to "1" and "a" to "b"
    def edit(spec):
        spec["relabel"][0]["vertex_map"] = ["01", "ab"]

    error = run_error(capsys, "reduce", "--chain", _broken_chain(tmp_path, edit))
    assert error == "a vertex_map entry must be an array of two labels, got '01'"


def test_reduce_edge_map_entry_not_a_pair_is_an_error_report(capsys, tmp_path):
    def edit(spec):
        spec["relabel"][0]["edge_map"][0] = [0, 1, 2]

    error = run_error(capsys, "reduce", "--chain", _broken_chain(tmp_path, edit))
    assert error == "an edge_map entry must be an array of two labels, got [0, 1, 2]"


@pytest.mark.parametrize("field", ["base", "steps", "relabel"])
def test_reduce_chain_list_not_an_array_is_an_error_report(capsys, tmp_path, field):
    # iterated, the object {"s8": 1} would give the base ("s8",) and verify the chain
    def edit(spec):
        spec[field] = {"s8": 1}

    error = run_error(capsys, "reduce", "--chain", _broken_chain(tmp_path, edit))
    assert error == f"{field} must be an array, got {{'s8': 1}}"


@pytest.mark.parametrize(
    "where, misspelt, expected",
    [
        (lambda spec: spec, "basis", "['base', 'relabel', 'steps', 'systems']"),  # read as absent, no base ran
        (lambda spec: spec["systems"]["s0"], "files", "['file']"),
        (lambda spec: spec["steps"][0], "reduced_c", "['a', 'b', 'leaf', 'reduced_a', 'reduced_b', 'system']"),
        (lambda spec: spec["steps"][0]["leaf"], "outter", "['edges', 'inner', 'outer', 'vertices']"),
        (lambda spec: spec["relabel"][0], "vertex_maps", "['edge_map', 'source', 'system', 'vertex_map']"),
    ],
    ids=["top", "system-file", "step", "leaf", "relabeling"],
)
def test_reduce_chain_unknown_key_is_an_error_report(capsys, tmp_path, where, misspelt, expected):
    def edit(spec):
        where(spec)[misspelt] = []

    error = run_error(capsys, "reduce", "--chain", _broken_chain(tmp_path, edit))
    assert error == f"unknown keys [{misspelt!r}]; expected only {expected}"


def test_lc_orbit_beyond_64_vertices_is_an_error_report(capsys, tmp_path):
    graph = tmp_path / "path65.graph.json"
    graph.write_text(json.dumps({"vertices": list(range(65)), "edges": [[i, i + 1] for i in range(64)]}))
    code, report = run_json(capsys, "lc-orbit", "--graph", str(graph))
    assert code == EXIT_ERROR
    assert report == {"command": "lc-orbit", "error": "orbit enumeration is limited to 64 vertices, got 65"}


def _square(**changes) -> dict:
    setup = {
        "vertices": [0, 1, 2, 3],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "faces": [[0, 1, 2, 3]],
        "closed": False,
        "qubit_ids": [0, 1, 2, 3],
    }
    setup.update(changes)
    return setup


BAD_SETUPS = {
    "nested_qubit_ids": _square(qubit_ids=[[0], [1], [2], [3]]),
    "scalar_qubit_ids": _square(qubit_ids=5),
    "null_qubit_ids": _square(qubit_ids=None),
    "float_qubit_id": _square(qubit_ids=[0, 1, 2, 3.0]),
    "boolean_qubit_id": _square(qubit_ids=[False, 1, 2, 3]),
    "object_vertex": _square(vertices=[{"a": 1}, 1, 2, 3]),
    "string_closed": _square(closed="no", faces=[[0, 1, 2, 3], [0, 1, 2, 3]]),  # a valid sphere if truthy
    "numeric_closed": _square(closed=0),
    "fractional_face_entry": _square(faces=[[0.5, 1, 2, 3]]),
    "boolean_face_entry": _square(faces=[[0, True, 2, 3]]),
    "edge_on_three_faces": {
        "vertices": [0, 1, 2],
        "edges": [[0, 1], [1, 2], [2, 0]],
        "faces": [[0, 1, 2]] * 3,
        "closed": True,
    },
    "string_edges": {  # a triangle if each two-letter string were an edge
        "vertices": ["a", "b", "c"],
        "edges": ["ab", "bc", "ca"],
        "faces": [[0, 1, 2]],
        "closed": False,
    },
    "empty_qubit_ids": _square(qubit_ids=[]),  # absent means default ids, empty does not
    # loaded as the vertices a, b, c, d if a string or an object were iterated
    "string_vertices": _square(vertices="abcd", edges=[["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]),
    "object_vertices": _square(vertices=dict.fromkeys("abcd", 0), edges=[["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]),
    "misspelt_qubit_ids": {"qubit_id" if k == "qubit_ids" else k: v for k, v in _square(qubit_ids=[3, 2, 1, 0]).items()},
    "disconnected_carrier": {
        "vertices": [0, 1, 2, 3, 4, 5],
        "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]],
        "faces": [[0, 1, 2], [3, 4, 5]],
        "closed": False,
    },
    "empty_open_carrier": {"vertices": [], "edges": [], "faces": [], "closed": False},
    "empty_closed_carrier": {"vertices": [], "edges": [], "faces": [], "closed": True},
}


@pytest.mark.parametrize("command", ["phi", "verify-thm1", "locality"])
@pytest.mark.parametrize("case", sorted(BAD_SETUPS))
def test_bad_setup_gives_one_error_report(capsys, tmp_path, command, case):
    setup = tmp_path / f"{case}.json"
    setup.write_text(json.dumps(BAD_SETUPS[case]))
    run_error(capsys, command, "--setup", str(setup))


def test_unknown_keys_are_named_in_one_error_report(capsys, tmp_path):
    # Read silently, a misspelt key would give the default qubit ids, and a
    # setup read as a graph would enumerate the class of its lattice graph.
    setup = tmp_path / "misspelt.json"
    setup.write_text(json.dumps(BAD_SETUPS["misspelt_qubit_ids"]))
    assert run_error(capsys, "locality", "--setup", str(setup)) == (
        "malformed setup data: unknown keys ['qubit_id']; "
        "expected only ['closed', 'edges', 'faces', 'qubit_ids', 'vertices']"
    )
    assert run_error(capsys, "lc-orbit", "--graph", fixture_path("pentomino_plus.json")) == (
        "unknown keys ['closed', 'faces', 'qubit_ids']; expected only ['edges', 'vertices']"
    )


@pytest.mark.parametrize("depth", [900, 100_000])
@pytest.mark.parametrize("command", ["locality", "lc-orbit", "lc-equiv", "reduce"])
def test_deeply_nested_input_gives_one_error_report(capsys, tmp_path, command, depth):
    # A first vertex label nested 900 arrays deep passes the JSON decoder and
    # exhausts the recursion limit in freeze; 100,000 arrays exhaust it in the
    # decoder.  Either way the input is bad, not the program, and the reader
    # says so: main itself does not take a RecursionError for bad input.
    label = "[" * depth + "0" + "]" * depth
    setup = json.dumps(_square()).replace('"vertices": [0,', f'"vertices": [{label},', 1)
    graph = json.dumps({"vertices": [0, 1], "edges": []}).replace('"vertices": [0,', f'"vertices": [{label},', 1)
    if command == "reduce":
        chain = _broken_chain(tmp_path, lambda spec: None)
        (tmp_path / json.loads(Path(chain).read_text())["systems"]["s0"]["file"]).write_text(setup)
        argv = ["--chain", chain]
    else:
        path = tmp_path / "deep.json"
        path.write_text(setup if command == "locality" else graph)
        flags = {"locality": ["--setup"], "lc-orbit": ["--graph"], "lc-equiv": ["--g", "--h"]}[command]
        argv = [arg for flag in flags for arg in (flag, str(path))]
    assert "input nested too deep" in run_error(capsys, command, *argv)


def test_local_hit_within_the_budget_is_a_verdict(capsys, tmp_path):
    # The search stores 6 keys before the batch that holds the hit of
    # square_3_1, and never stores that batch: budget 6 gives the replayed
    # local verdict, budget 5 runs out before the hit's generation.
    run_cli(capsys, "enumerate", "--lattice", "square", "--n", "3", "--out", str(tmp_path))
    setup = str(tmp_path / "square_3_1.json")
    code, report = run_json(capsys, "locality", "--setup", setup, "--budget", "6")
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "local"
    assert report["result"]["complementations"] == LOCAL_PATHS[("square", 3, 1)]
    code, report = run_json(capsys, "locality", "--setup", setup, "--budget", "5")
    assert code == EXIT_BUDGET


def test_local_verdict_converts_only_its_hit_key(capsys, tmp_path, monkeypatch):
    # square_3_1's search stores 6 keys before its hit, and the verdict reads
    # the hit alone: that one key is the only one made a Python integer.
    converted = []
    key_ints = lc._key_ints
    monkeypatch.setattr(lc, "_key_ints", lambda words: converted.append(words.shape[1]) or key_ints(words))
    run_cli(capsys, "enumerate", "--lattice", "square", "--n", "3", "--out", str(tmp_path))
    setup = str(tmp_path / "square_3_1.json")
    code, report = run_json(capsys, "locality", "--setup", setup)
    assert code == EXIT_OK
    assert report["result"]["complementations"] == LOCAL_PATHS[("square", 3, 1)]
    assert converted == [1]

    # The allowed graph shares the tree graph's label order, so its rows are
    # packed as they are; listed in another order, it gives the same rows.
    emb = load_setup(setup)
    graph, allowed = phi_graph(emb), adjacency_relation(emb)
    assert allowed.labels == graph.labels
    assert allowed.in_order(graph.labels) is allowed
    reordered = SimpleGraph.from_edges(reversed(allowed.labels), allowed.edges())
    assert reordered.labels != allowed.labels
    assert reordered.in_order(graph.labels) == allowed
    other = SimpleGraph(graph.labels[:-1] + ("elsewhere",), allowed.rows)
    with pytest.raises(GraphError, match="vertex sets differ"):
        other.in_order(graph.labels)


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    """Calls in one process print what lone calls print, from one parser."""
    monkeypatch.setenv("COLUMNS", "80")  # help text is wrapped to the terminal width
    equiv = ("lc-equiv", "--g", fixture_path("star5.graph.json"), "--h", fixture_path("complete5.graph.json"))
    calls = [
        ("locality", "--setup", fixture_path("plaquette4.json"), "--format", "dot"),
        equiv,
        ("locality", "--setup", fixture_path("plaquette4.json"), "--budget", "0"),
        ("--help",),
        ("reduce", "--help"),
        ("phi", "--setup", fixture_path("tetriamond.json")),
        ("locality", "--setup", fixture_path("tetriamond.json"), "--budget", "5"),
    ]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # usage errors and --help
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def lone(argv):
        cli.build_parser.cache_clear()
        return call(argv)

    expected = [lone(argv) for argv in calls]
    assert expected[2][0] == "SystemExit(2)" and expected[3][0] == "SystemExit(0)"
    cli.build_parser.cache_clear()
    assert [call(argv) for argv in calls * 2] == expected * 2
    # the subcommands look up the module's names when they run, not when the parser is built
    monkeypatch.setattr(cli, "lc_equivalent", lambda g, h: None)
    assert json.loads(call(equiv)[1])["result"] == {"equivalent": False, "status": "complete"}
    monkeypatch.undo()
    assert call(equiv) == expected[1]
    assert cli.build_parser.cache_info().misses == 1
    # a lone process prints the same help
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "toricgs.cli", "--help"], capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected[3][1], "")


@pytest.mark.slow
def test_torus_3x3_runs_out_of_budget_within_memory():
    # At a budget of 10^6 keys the 18-qubit torus gets no verdict; the
    # search must fail closed (exit 2) and stay within 150 MB of resident
    # memory.  os.wait4 reads the rusage of this one child (Linux reports
    # ru_maxrss in kilobytes).
    import subprocess, sys

    argv = ["locality", "--setup", fixture_path("torus_3x3.json"), "--budget", "1000000"]
    proc = subprocess.Popen([sys.executable, "-m", "toricgs.cli", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == EXIT_BUDGET
    assert usage.ru_maxrss <= 150 * 1024
