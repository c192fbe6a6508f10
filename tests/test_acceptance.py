"""Acceptance gate: every shipped guarantee, one test per criterion.

Each criterion prints its pass/fail line; the assertion carries the details.
The literal all-pairs cross-oracle run at 6 vertices (~3.6e8 pairs) lives
behind the ``slow`` marker; the default criterion 5 run is exhaustive through
5 vertices and structured at 6 (see ``toricgs.acceptance``).
"""

import itertools

import pytest

from toricgs import acceptance
from toricgs.fixture_files import fixture_path
from toricgs.lc import certify_nonlocal
from toricgs.reduction import load_chain_spec, reduction_chain
from toricgs.surface import adjacency_relation, phi_graph


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=[f.__name__ for f in acceptance.CRITERIA]
)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_criteria_time_themselves_on_a_monotonic_clock(monkeypatch):
    # A wall clock that steps an hour at every read would fail criterion 1's
    # one-second gate; the criteria read the monotonic performance counter.
    hours = itertools.count(0, 3600)
    monkeypatch.setattr(acceptance.time, "time", lambda: next(hours))
    result = acceptance.criterion_1_single_plaquette()
    assert result.passed and result.elapsed < 1.0, result.line()


# class size of every system of the pentomino reduction chain
CHAIN_CLASS_SIZES = {
    "s0": 20992,
    **{f"{p}1": 16592 for p in "sm"},
    **{f"{p}2": 6096 for p in "sm"},
    **{f"{p}3": 4816 for p in "sm"},
    **{f"{p}4": 3804 for p in "sm"},
    **{f"{p}5": 1396 for p in "sm"},
    **{f"{p}6": 512 for p in "sm"},
    **{f"{p}7": 404 for p in "sm"},
    **{f"{p}8": 148 for p in "sm"},
}


def test_chain_systems_are_nonlocal_by_exhaustive_enumeration():
    # A second proof of criterion 8 that does not rest on the reduction
    # hypotheses: every chain system, the 16-qubit plus pentomino (s0)
    # included, has its whole LC class enumerated and scanned for a local member.
    spec = load_chain_spec(fixture_path("chain/pentomino_chain.json"))
    chain = reduction_chain(spec)
    sizes = {}
    for name, emb in spec.systems.items():
        orbit = certify_nonlocal(phi_graph(emb), adjacency_relation(emb))
        assert orbit.complete, name
        assert chain.verdicts[name] == "nonlocal", name
        sizes[name] = orbit.size
    assert sizes == CHAIN_CLASS_SIZES


@pytest.mark.slow
def test_criterion_5_full_six_vertices():
    result = acceptance.criterion_5_cross_oracle(full_six=True)
    print(result.line())
    assert result.passed, result.line()
