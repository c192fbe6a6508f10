"""Fuzzing the setup parser: any JSON-shaped input is an embedding or an EmbeddingError."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from toricgs.surface import Embedding, EmbeddingError, setup_from_dict  # noqa: E402

scalars = st.none() | st.booleans() | st.integers(-1, 5) | st.floats(-1, 5) | st.text(max_size=1)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=1), inner, max_size=2),
    max_leaves=4,
)
# Mostly small integers, so that many inputs get past the parser into validation.
ints = st.integers(0, 5)
setup_shaped = st.fixed_dictionaries(
    {
        "vertices": st.lists(ints, max_size=5) | st.lists(ints | json_values, max_size=4) | json_values,
        "edges": st.lists(st.lists(ints, min_size=2, max_size=2), max_size=7)
        | st.lists(st.lists(ints | json_values, max_size=3) | json_values, max_size=4)
        | st.lists(st.text("ab01", min_size=2, max_size=2), max_size=4)  # two-character strings
        | json_values,
        "faces": st.lists(st.lists(ints, max_size=4), max_size=3)
        | st.lists(st.lists(ints | json_values, max_size=3) | json_values, max_size=3)
        | json_values,
        "closed": st.booleans() | json_values,
    },
    optional={"qubit_ids": st.lists(ints, max_size=7) | json_values},
)
TRIANGLE = {"vertices": ["a", "b", "c"], "faces": [[0, 1, 2]], "closed": False}
SETUP_KEYS = {"vertices", "edges", "faces", "closed", "qubit_ids"}


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(setup_shaped, json_values))
@example(dict(TRIANGLE, edges=["ab", "bc", "ca"]))
@example(dict(TRIANGLE, edges=[["a", "b"], ["b", "c"], ["c", "a"]], qubit_ids=[]))
@example(dict(TRIANGLE, edges=[["a", "b"], ["b", "c"], ["c", "a"]], qubit_id=[2, 1, 0]))  # misspelt
@example(dict(TRIANGLE, vertices="abc", edges=[["a", "b"], ["b", "c"], ["c", "a"]]))  # a string, not an array
@example(dict(TRIANGLE, vertices=dict.fromkeys("abc", 0), edges=[["a", "b"], ["b", "c"], ["c", "a"]]))
def test_setup_from_dict_returns_an_embedding_or_raises_embedding_error(data):
    try:
        emb = setup_from_dict(data)
    except EmbeddingError:
        return
    assert isinstance(emb, Embedding)
    # what loads is what the file says: its five keys only, arrays where
    # arrays belong, two-label arrays as edges, the ids as given
    assert set(data) <= SETUP_KEYS
    assert all(type(data[key]) is list for key in ("vertices", "edges", "faces"))
    assert all(type(e) is list and len(e) == 2 for e in data["edges"])
    assert emb.qubit_ids == tuple(data.get("qubit_ids", range(len(data["edges"]))))


def test_setup_from_dict_accepts_a_valid_square():
    emb = setup_from_dict(
        {
            "vertices": [0, 1, 2, 3],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
            "faces": [[0, 1, 2, 3]],
            "closed": False,
        }
    )
    assert emb.n_qubits == 4 and emb.qubit_ids == (0, 1, 2, 3)
