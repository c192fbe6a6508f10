"""Fuzzing the graph and chain loaders through the CLI: bad input is one JSON error report, exit 1."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from toricgs.cli import EXIT_ERROR, main  # noqa: E402
from toricgs.fixture_files import fixture_path  # noqa: E402
from toricgs.graphs import GraphError, graph_from_dict  # noqa: E402
from toricgs.reduction import load_chain_spec  # noqa: E402
from tests.test_setup_fuzz import ints, json_values, setup_shaped  # noqa: E402

FUZZ = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SQUARE = {
    "vertices": [0, 1, 2, 3],
    "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
    "faces": [[0, 1, 2, 3]],
    "closed": False,
}


@contextlib.contextmanager
def input_file(data):
    """``data`` as a JSON file, with a valid setup ``square.json`` beside it."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "square.json"), "w", encoding="utf-8") as fh:
            json.dump(SQUARE, fh)
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        yield path


def check_cli(argv, rejected: bool) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    report = json.loads(out.getvalue())  # exactly one JSON document
    assert report["command"] == argv[0]
    if rejected:
        assert code == EXIT_ERROR
        assert sorted(report) == ["command", "error"]
    else:  # accepted input: a verdict, or an error found after loading
        assert ("result" in report) != ("error" in report)


labels = ints | st.text("ab", max_size=1)
graph_shaped = st.fixed_dictionaries(
    {
        "vertices": st.lists(labels, max_size=5) | json_values,
        "edges": st.lists(st.lists(labels, min_size=2, max_size=2), max_size=5)
        | st.lists(st.text("ab01", min_size=2, max_size=2) | st.lists(labels, max_size=3) | json_values, max_size=3)
        | json_values,
    }
)


@FUZZ
@given(st.one_of(graph_shaped, json_values))
@example({"vertices": ["a", "b", "c"], "edges": ["ab", "bc"]})
@example({"vertices": "abc", "edges": []})  # a string or an object is not an array of labels
@example({"vertices": {"a": 1, "b": 2, "c": 3}, "edges": []})
@example(json.loads(Path(fixture_path("pentomino_plus.json")).read_text()))  # a setup is not a graph
def test_graph_loader_fails_closed(data):
    try:
        graph_from_dict(data)
    except GraphError:
        rejected = True
    else:
        rejected = False
        assert set(data) <= {"vertices", "edges"}
        assert type(data["vertices"]) is list and type(data["edges"]) is list
        assert all(type(e) is list and len(e) == 2 for e in data["edges"])
    with input_file(data) as path:
        check_cli(["lc-orbit", "--graph", path, "--budget", "100"], rejected)


names = st.sampled_from(["s", "t"])
# Numbers that int() would take but JSON does not write as integers.
integer_like = st.floats(0, 5) | st.booleans() | st.text("012", min_size=1, max_size=1)
numbers = ints | integer_like | json_values
number_pairs = st.lists(st.lists(ints | integer_like, min_size=2, max_size=2), max_size=4)
system_entry = (
    st.just(SQUARE)
    | st.fixed_dictionaries(
        {"file": st.sampled_from(["square.json", "missing.json", ""])}, optional={"closed": st.booleans()}
    )
    | setup_shaped
    | json_values
)
leaf_shaped = st.fixed_dictionaries(
    {
        "vertices": st.lists(ints, max_size=4) | st.lists(ints | integer_like, max_size=4) | json_values,
        "edges": st.lists(st.lists(ints, min_size=2, max_size=2), max_size=3) | number_pairs | json_values,
        "outer": numbers,
        "inner": numbers,
    }
)
step_shaped = st.fixed_dictionaries(
    {
        "system": names | json_values,
        "a": numbers,
        "b": numbers,
        "reduced_a": names | json_values,
        "reduced_b": names | json_values,
        "leaf": leaf_shaped | json_values,
    },
    optional={"reduced_c": names},  # a misspelt key
)
relabel_shaped = st.fixed_dictionaries(
    {
        "system": names | json_values,
        "source": names | json_values,
        "edge_map": st.lists(st.lists(ints, min_size=2, max_size=2), max_size=4) | number_pairs | json_values,
        "vertex_map": st.lists(st.lists(ints, min_size=2, max_size=2), max_size=4) | json_values,
    }
)
chain_shaped = st.fixed_dictionaries(
    {"systems": st.dictionaries(names, system_entry, max_size=2) | json_values},
    optional={
        "base": st.lists(names | json_values, max_size=2) | json_values,
        "steps": st.lists(step_shaped | json_values, max_size=2) | json_values,
        "relabel": st.lists(relabel_shaped | json_values, max_size=2) | json_values,
        "basis": st.lists(names, max_size=2),  # a misspelt key
    },
)


STEP_KEYS = {"system", "a", "b", "reduced_a", "reduced_b", "leaf"}
LEAF_KEYS = {"vertices", "edges", "outer", "inner"}
RELABEL_KEYS = {"system", "source", "edge_map", "vertex_map"}


def chain(step=None, leaf=None, relabel=None) -> dict:
    """A chain specification that loads, with the given fields of its step, leaf and relabeling changed."""
    leaf = dict({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]], "outer": 0, "inner": 1}, **(leaf or {}))
    return {
        "systems": {"s": SQUARE, "t": {"file": "square.json"}},
        "steps": [dict({"system": "s", "a": 0, "b": 1, "reduced_a": "t", "reduced_b": "t", "leaf": leaf}, **(step or {}))],
        "relabel": [dict({"system": "t", "source": "s", "edge_map": [[0, 1]], "vertex_map": [[0, 1]]}, **(relabel or {}))],
    }


def integers_read(data):
    """Every number of a chain specification that the loader must read as a JSON integer."""
    for step in data.get("steps", []):
        leaf = step["leaf"]
        yield from (step["a"], step["b"], leaf["outer"], leaf["inner"], *leaf["vertices"])
        yield from (v for edge in leaf["edges"] for v in edge)
    yield from (v for r in data.get("relabel", []) for pair in r["edge_map"] for v in pair)


@FUZZ
@given(st.one_of(chain_shaped, json_values))
@example({"systems": {"s": SQUARE}, "base": ["s"]})
@example({"systems": {"s": {"file": "missing.json"}}})
@example(chain())
@example(chain(step={"a": 0.7}))
@example(chain(step={"b": 1.0}))
@example(chain(leaf={"vertices": ["0", "1", "2"]}))
@example(chain(leaf={"outer": "0"}))
@example(chain(leaf={"edges": [[0, 1], [1, 2.0]]}))
@example(chain(leaf={"inner": True}))
@example(chain(relabel={"edge_map": [["0", "1"]]}))
@example(chain(relabel={"vertex_map": ["01", "ab"]}))  # strings, not pairs of labels
@example(chain(relabel={"edge_map": [[0, 1, 2]]}))  # three integers, not a pair
@example({"systems": {"s": SQUARE}, "base": {"s": 1}})  # an object, not an array of names
@example(dict(chain(), basis=["s"]))  # a misspelt key is rejected, not read as absent
@example({"systems": {"s": {"file": "square.json", "closed": False}}})  # a file entry holds the file alone
@example(chain(step={"reduced_c": "t"}))
@example(chain(leaf={"outter": 0}))
@example(chain(relabel={"vertex_maps": [[0, 1]]}))
def test_chain_loader_fails_closed(data):
    with input_file(data) as path:
        try:
            load_chain_spec(path)
        except (ValueError, OSError):  # bad data, or a system file that cannot be read
            rejected = True
        else:
            rejected = False
            assert set(data) <= {"systems", "base", "steps", "relabel"}
            assert all(set(entry) == {"file"} for entry in data["systems"].values() if "file" in entry)
            assert all(set(s) <= STEP_KEYS and set(s["leaf"]) <= LEAF_KEYS for s in data.get("steps", []))
            assert all(set(r) <= RELABEL_KEYS for r in data.get("relabel", []))
            assert all(type(data.get(key, [])) is list for key in ("base", "steps", "relabel"))
            assert all(type(v) is int for v in integers_read(data))
            assert all(type(pair) is list and len(pair) == 2 for r in data.get("relabel", []) for pair in r["vertex_map"])
            assert all(len(pair) == 2 for r in data.get("relabel", []) for pair in r["edge_map"])
        check_cli(["reduce", "--chain", path, "--budget", "1000"], rejected)
