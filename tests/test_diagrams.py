"""Ordered diagrams: structure checks, path enumeration, the successor map,
extremal paths, telescoping, orbit coding, and DOT export."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicshift import (
    FinitePath,
    ImproperOrdering,
    Maximal,
    OrderedDiagram,
    PeriodicLabels,
    StationaryOrderedDiagram,
    Substitution,
    TooManyPaths,
    enumerate_paths,
    export_dot,
    extremal_paths,
    maximal_path,
    minimal_path,
    read_substitution,
    stationary_from_substitution,
    telescope,
    validate,
    vershik_orbit_coding,
    vershik_successor,
)
from adicshift.diagrams import MAX_ENUMERATED_PATHS, _successors
from oracles import (all_paths_sorted, extremal_periods,
                     path_count_by_matrices, path_successors,
                     path_walk_orbit_coding, stepwise_orbit_coding)
from strategies import (CHACON, ordered_diagrams, stationary_diagrams,
                        substitutions)

ODOMETER = StationaryOrderedDiagram(("v",), (("v", "v"),), (2,))
CHAIN = StationaryOrderedDiagram(("v",), (("v",),), (1,))   # one edge a level

# the induced rule on Chacon return words, with its top multiplicities
DERIV = StationaryOrderedDiagram(
    ("1", "2", "3", "4"),
    (("1", "2"), ("1", "3", "2"), ("1", "3", "3", "2"),
     ("1", "2", "4", "4", "1", "2")),
    (1, 3, 5, 4),
)


def incoming_maps(d: OrderedDiagram):
    """Label-indexed view of the incoming tuples, for the oracles."""
    return [dict(zip(d.levels[k], d.incoming[k]))
            for k in range(len(d.levels))]


# ---------------------------------------------------------------------------
# structure and validation


def test_unroll_shape():
    d = DERIV.unroll(3)
    assert d.levels == (("top",), DERIV.alphabet, DERIV.alphabet,
                        DERIV.alphabet)
    assert d.in_edges(1, "3") == ("top",) * 5
    assert d.in_edges(2, "4") == ("1", "2", "4", "4", "1", "2")
    assert validate(d) == []


def test_validate_no_incoming():
    d = OrderedDiagram(
        (("top",), ("a1",), ("a2", "b2")),
        ((), (("top",),), (("a1",), ())),
    )
    problems = validate(d)
    assert any(v.startswith("no-incoming") and "b2" in v for v in problems)


def test_validate_level_skew():
    d = OrderedDiagram(
        (("top",), ("a1",), ("a2",), ("a3",)),
        ((), (("top",),), (("a1",),), (("a1",),)),
    )
    problems = validate(d)
    assert any(v.startswith("level-skew") for v in problems)


def test_validate_no_outgoing():
    d = OrderedDiagram(
        (("top",), ("a1", "b1"), ("a2",)),
        ((), (("top",), ("top",)), (("a1",),)),
    )
    problems = validate(d)
    assert any(v.startswith("no-outgoing") and "b1" in v for v in problems)


@settings(max_examples=30, deadline=None)
@given(ordered_diagrams())
def test_random_diagrams_validate(d):
    assert validate(d) == []


def test_roundtrip_chacon():
    d = stationary_from_substitution(CHACON, {"0": 1, "s": 1, "1": 2})
    assert read_substitution(d) == CHACON
    assert d.top_count("1") == 2


@settings(max_examples=50, deadline=None)
@given(substitutions(), st.data())
def test_roundtrip_random(s, data):
    counts = tuple(data.draw(st.integers(1, 4)) for _ in s.alphabet)
    assert read_substitution(stationary_from_substitution(s, counts)) == s


def test_read_substitution_of_derivative_diagram():
    tau = read_substitution(DERIV)
    assert tau.image("1") == ("1", "2")
    assert tau.image("4") == ("1", "2", "4", "4", "1", "2")


# ---------------------------------------------------------------------------
# path enumeration


def test_odometer_depth3_binary_counter():
    d = ODOMETER.unroll(3)
    paths = enumerate_paths(d, 3, "v")
    assert len(paths) == 8
    assert [p.indices for p in paths] == [
        (k & 1, (k >> 1) & 1, (k >> 2) & 1) for k in range(8)]


def test_enumeration_endpoints_are_extremal():
    d = DERIV.unroll(3)
    for v in DERIV.alphabet:
        paths = enumerate_paths(d, 3, v)
        assert paths[0] == minimal_path(d, 3, v)
        assert paths[-1] == maximal_path(d, 3, v)


@settings(max_examples=30, deadline=None)
@given(ordered_diagrams(), st.data())
def test_enumeration_matches_oracles(d, data):
    n = d.depth
    v = data.draw(st.sampled_from(d.levels[n]))
    inc = incoming_maps(d)
    paths = enumerate_paths(d, n, v)
    oracle = all_paths_sorted(inc, n, v)
    assert [p.indices for p in paths] == [idx for _, idx in oracle]
    assert [p.vertices(d) for p in paths] == [verts for verts, _ in oracle]
    assert len(paths) == path_count_by_matrices(inc, d.levels, n, v)


def test_deep_single_path_enumerates_without_recursion():
    # 1,500 levels at the default recursion limit: one path, all edges 0
    assert enumerate_paths(CHAIN.unroll(1500), 1500, "v") == [
        FinitePath(1500, "v", (0,) * 1500)]


def test_path_budget_refuses_before_building():
    doubling = StationaryOrderedDiagram(("v",), (("v", "v"),), (2,))
    start = time.perf_counter()
    with pytest.raises(TooManyPaths):
        enumerate_paths(doubling.unroll(1500), 1500, "v")   # 2^1500 paths
    assert time.perf_counter() - start < 1.0
    assert 2 ** 16 <= MAX_ENUMERATED_PATHS < 2 ** 17
    assert len(enumerate_paths(doubling, 16, "v")) == 2 ** 16
    with pytest.raises(ValueError):
        enumerate_paths(doubling, 17, "v")


# ---------------------------------------------------------------------------
# successor


def test_odometer_increment():
    d = ODOMETER.unroll(3)
    p = FinitePath(3, "v", (1, 0, 0))
    assert vershik_successor(d, p) == FinitePath(3, "v", (0, 1, 0))
    assert vershik_successor(d, FinitePath(3, "v", (1, 1, 1))) is Maximal
    assert repr(Maximal) == "Maximal"


@settings(max_examples=30, deadline=None)
@given(ordered_diagrams(max_depth=4), st.data())
def test_successor_enumerates_lexicographically(d, data):
    n = d.depth
    v = data.draw(st.sampled_from(d.levels[n]))
    expected = enumerate_paths(d, n, v)
    walked = [minimal_path(d, n, v)]
    while True:
        nxt = vershik_successor(d, walked[-1])
        if nxt is Maximal:
            break
        walked.append(nxt)
        assert len(walked) <= len(expected)
    assert walked == expected
    # one index list, rewritten in place at every step
    assert [FinitePath(n, v, tuple(indices))
            for indices in _successors(d, walked[0])] == expected[1:]


def test_successor_on_derivative_depth3_visits_everything():
    d = DERIV.unroll(3)
    for v in DERIV.alphabet:
        expected = enumerate_paths(d, 3, v)
        p = minimal_path(d, 3, v)
        seen = [p]
        while (p := vershik_successor(d, p)) is not Maximal:
            seen.append(p)
        assert seen == expected


# ---------------------------------------------------------------------------
# extremal paths


def test_derivative_extremals_unique():
    ex = extremal_paths(DERIV)
    assert ex.minimal == (PeriodicLabels(("1",)),)
    assert ex.maximal == (PeriodicLabels(("2",)),)


def test_odometer_extremals_unique():
    ex = extremal_paths(ODOMETER)
    assert ex.minimal == (PeriodicLabels(("v",)),)
    assert ex.maximal == (PeriodicLabels(("v",)),)


def test_two_cycle_extremals():
    d = stationary_from_substitution(
        Substitution(("a", "b"), (("b", "a"), ("a", "b"))), (1, 1))
    ex = extremal_paths(d)
    # first letters swap a <-> b: two minimal paths, one per cycle vertex
    assert ex.minimal == (PeriodicLabels(("a", "b")),
                          PeriodicLabels(("b", "a")))
    # last letters fix every label: two maximal paths
    assert ex.maximal == (PeriodicLabels(("a",)), PeriodicLabels(("b",)))


@settings(max_examples=50, deadline=None)
@given(substitutions())
def test_extremal_sequences_satisfy_recursion(s):
    d = stationary_from_substitution(s, (1,) * len(s.alphabet))
    ex = extremal_paths(d)
    for kind, pick in ((ex.minimal, lambda a: d.read_image(a)[0]),
                       (ex.maximal, lambda a: d.read_image(a)[-1])):
        assert 1 <= len(kind) <= len(s.alphabet)
        for seq in kind:
            for n in range(1, 21):
                assert seq.label(n) == pick(seq.label(n + 1))


@settings(max_examples=80, deadline=None)
@given(substitutions())
def test_extremal_paths_match_backward_walk(s):
    d = stationary_from_substitution(s, (1,) * len(s.alphabet))
    ex = extremal_paths(d)
    for kind, pick in ((ex.minimal, lambda a: d.read_image(a)[0]),
                       (ex.maximal, lambda a: d.read_image(a)[-1])):
        assert [seq.period for seq in kind] == extremal_periods(
            s.alphabet, pick)


# ---------------------------------------------------------------------------
# telescoping


def test_telescope_odometer_pairs():
    d = ODOMETER.unroll(4)
    t = telescope(d, (2, 4))
    assert t.levels == (("top",), ("v",), ("v",))
    assert t.in_edges(1, "v") == ("top",) * 4
    assert t.in_edges(2, "v") == ("v",) * 4
    assert validate(t) == []


def test_telescope_all_levels_is_identity():
    d = DERIV.unroll(4)
    assert telescope(d, (1, 2, 3, 4)) == d


def test_telescope_empty_picks_rejected():
    with pytest.raises(Exception):
        telescope(DERIV.unroll(2), ())


def test_deep_telescope_without_recursion():
    # one composed block spans 1,499 levels at the default recursion limit
    t = telescope(CHAIN.unroll(1500), (1, 1500))
    assert t.levels == (("top",), ("v",), ("v",))
    assert t.in_edges(1, "v") == ("top",)
    assert t.in_edges(2, "v") == ("v",)


@settings(max_examples=30, deadline=None)
@given(ordered_diagrams(max_depth=5), st.data())
def test_telescope_validates_and_preserves_path_order(d, data):
    picks = sorted(data.draw(
        st.sets(st.integers(1, d.depth), min_size=1)))
    if picks[-1] != d.depth:
        picks.append(d.depth)
    t = telescope(d, tuple(picks))
    assert validate(t) == []
    v = data.draw(st.sampled_from(d.levels[d.depth]))
    original = enumerate_paths(d, d.depth, v)
    composed = enumerate_paths(t, t.depth, v)
    assert len(original) == len(composed)
    # same path space in the same order: vertex chains agree on picked levels
    keep = [0] + list(picks)
    for p, q in zip(original, composed):
        chain = p.vertices(d)
        assert tuple(chain[k] for k in keep) == q.vertices(t)


# ---------------------------------------------------------------------------
# orbit coding


def test_odometer_coding_constant():
    start = minimal_path(ODOMETER, 1, "v")
    assert vershik_orbit_coding(ODOMETER, start, 8, 1) == ("v",) * 8


def test_coding_shift_equivariance():
    start = minimal_path(DERIV, 6, "1")
    shifted = vershik_successor(DERIV, start)
    a = vershik_orbit_coding(DERIV, start, 201, 1)
    b = vershik_orbit_coding(DERIV, shifted, 200, 1)
    assert a[1:] == b


def test_coding_deepens_past_truncation():
    # 64 steps from a depth-2 start needs deepening well beyond depth 2
    start = minimal_path(DERIV, 2, "1")
    labels = vershik_orbit_coding(DERIV, start, 64, 1)
    assert len(labels) == 64
    assert set(labels) <= set(DERIV.alphabet)


def test_coding_agrees_across_start_depths():
    a = vershik_orbit_coding(DERIV, minimal_path(DERIV, 2, "1"), 100, 1)
    b = vershik_orbit_coding(DERIV, minimal_path(DERIV, 5, "1"), 100, 1)
    assert a == b


def test_wrap_requires_assignment_when_minimals_are_many():
    d = StationaryOrderedDiagram(("a", "b"), (("a",), ("b",)), (1, 1))
    start = minimal_path(d, 1, "a")
    with pytest.raises(ImproperOrdering):
        vershik_orbit_coding(d, start, 3, 1)
    swapped = vershik_orbit_coding(
        d, start, 4, 1,
        max_to_min={("a",): ("b",), ("b",): ("a",)})
    assert swapped == ("a", "b", "a", "b")


SWAP = StationaryOrderedDiagram(("a", "b"), (("a",), ("b",)), (1, 1))
SWAP_WRAP = {("a",): ("b",), ("b",): ("a",)}
# deepens twice, then wraps to its one minimal path, in the first 40 steps
DEEPEN_AND_WRAP = StationaryOrderedDiagram(
    ("a", "b"), (("b", "b", "a"), ("b",)), (2, 2))


@pytest.mark.parametrize("d, start, steps, level, max_to_min", [
    (DERIV, minimal_path(DERIV, 2, "1"), 300, 1, None),
    (DERIV, minimal_path(DERIV, 5, "3"), 300, 4, None),
    (SWAP, minimal_path(SWAP, 1, "a"), 9, 1, SWAP_WRAP),
    (SWAP, minimal_path(SWAP, 3, "b"), 9, 2, SWAP_WRAP),
    (DEEPEN_AND_WRAP, minimal_path(DEEPEN_AND_WRAP, 2, "a"), 40, 1, None),
    (DEEPEN_AND_WRAP, minimal_path(DEEPEN_AND_WRAP, 3, "a"), 40, 3, None),
    (ODOMETER.unroll(3), minimal_path(ODOMETER, 3, "v"), 7, 2, None),
])
def test_orbit_coding_matches_stepwise_reference_on_deepen_and_wrap(
        d, start, steps, level, max_to_min):
    assert (vershik_orbit_coding(d, start, steps, level, max_to_min)
            == stepwise_orbit_coding(d, start, steps, level, max_to_min))


@settings(max_examples=150, deadline=None)
@given(stationary_diagrams(), st.integers(1, 4), st.integers(0, 2),
       st.integers(1, 4), st.integers(1, 60))
def test_orbit_coding_matches_stepwise_reference(d, depth, pick, level,
                                                 steps):
    start = minimal_path(d, depth, d.alphabet[pick % len(d.alphabet)])
    level = min(level, depth)
    try:
        expected = stepwise_orbit_coding(d, start, steps, level)
    except ImproperOrdering:
        with pytest.raises(ImproperOrdering):
            vershik_orbit_coding(d, start, steps, level)
        return
    assert vershik_orbit_coding(d, start, steps, level) == expected


def _coded(code, *args):
    try:
        return code(*args)
    except ImproperOrdering as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(stationary_diagrams(), st.integers(1, 5), st.integers(0, 2),
       st.integers(1, 5), st.integers(1, 80))
def test_orbit_coding_matches_path_walk(d, depth, pick, level, steps):
    # the walk on one index list against one FinitePath per state, through
    # deepenings, wraps with and without an assignment, and a plain diagram
    start = minimal_path(d, depth, d.alphabet[pick % len(d.alphabet)])
    level = min(level, depth)
    ex = extremal_paths(d)
    assignment = {m.period: ex.minimal[0].period for m in ex.maximal}
    for diagram, max_to_min in ((d, None), (d, assignment),
                                (d.unroll(depth), None)):
        args = (diagram, start, steps, level, max_to_min)
        assert (_coded(vershik_orbit_coding, *args)
                == _coded(path_walk_orbit_coding, *args))
    # the successor itself, through Maximal
    for p in enumerate_paths(d, min(depth, 3), start.terminal):
        assert (vershik_successor(d, p)
                == next(path_successors(d, p, list(p.vertices(d))), Maximal))


def test_fixed_depth_diagram_cannot_extend():
    d = ODOMETER.unroll(2)
    start = minimal_path(d, 2, "v")
    with pytest.raises(ImproperOrdering):
        vershik_orbit_coding(d, start, 5, 1)


# ---------------------------------------------------------------------------
# DOT export


ODOMETER_DOT = """digraph ordered_diagram {
  L0_top;
  L1_v;
  L2_v;
  L0_top -> L1_v [label="0"];
  L0_top -> L1_v [label="1"];
  L1_v -> L2_v [label="0"];
  L1_v -> L2_v [label="1"];
}
"""


def test_dot_golden_odometer():
    assert export_dot(ODOMETER.unroll(2)) == ODOMETER_DOT


@settings(max_examples=20, deadline=None)
@given(ordered_diagrams())
def test_dot_byte_stable(d):
    assert export_dot(d) == export_dot(d)
    rebuilt = OrderedDiagram(tuple(d.levels), tuple(d.incoming))
    assert export_dot(rebuilt) == export_dot(d)
