"""Fuzzing the graph and chain loaders through the CLI: bad input is one JSON error report, exit 1."""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from toricgs.cli import EXIT_ERROR, main  # noqa: E402
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
def test_graph_loader_fails_closed(data):
    try:
        graph_from_dict(data)
    except GraphError:
        rejected = True
    else:
        rejected = False
        assert all(type(e) is list and len(e) == 2 for e in data["edges"])
    with input_file(data) as path:
        check_cli(["lc-orbit", "--graph", path, "--budget", "100"], rejected)


names = st.sampled_from(["s", "t"])
system_entry = (
    st.just(SQUARE)
    | st.fixed_dictionaries({"file": st.sampled_from(["square.json", "missing.json", ""])})
    | setup_shaped
    | json_values
)
leaf_shaped = st.fixed_dictionaries(
    {
        "vertices": st.lists(ints, max_size=4) | json_values,
        "edges": st.lists(st.lists(ints, min_size=2, max_size=2), max_size=3) | json_values,
        "outer": ints | json_values,
        "inner": ints | json_values,
    }
)
step_shaped = st.fixed_dictionaries(
    {
        "system": names | json_values,
        "a": ints | json_values,
        "b": ints | json_values,
        "reduced_a": names | json_values,
        "reduced_b": names | json_values,
        "leaf": leaf_shaped | json_values,
    }
)
relabel_shaped = st.fixed_dictionaries(
    {
        "system": names | json_values,
        "source": names | json_values,
        "edge_map": st.lists(st.lists(ints, min_size=2, max_size=2), max_size=4) | json_values,
        "vertex_map": st.lists(st.lists(ints, min_size=2, max_size=2), max_size=4) | json_values,
    }
)
chain_shaped = st.fixed_dictionaries(
    {"systems": st.dictionaries(names, system_entry, max_size=2) | json_values},
    optional={
        "base": st.lists(names | json_values, max_size=2) | json_values,
        "steps": st.lists(step_shaped | json_values, max_size=2) | json_values,
        "relabel": st.lists(relabel_shaped | json_values, max_size=2) | json_values,
    },
)


@FUZZ
@given(st.one_of(chain_shaped, json_values))
@example({"systems": {"s": SQUARE}, "base": ["s"]})
@example({"systems": {"s": {"file": "missing.json"}}})
def test_chain_loader_fails_closed(data):
    with input_file(data) as path:
        try:
            load_chain_spec(path)
        except (ValueError, OSError):  # bad data, or a system file that cannot be read
            rejected = True
        else:
            rejected = False
        check_cli(["reduce", "--chain", path, "--budget", "1000"], rejected)
