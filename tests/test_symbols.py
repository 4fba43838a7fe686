"""Layered box matrices: symbol construction from both source kinds, parse
and path windows, compatibility depth, cuts, eventual periodicity, the
shift-down map, and the expansiveness witness search."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adicshift import (
    TOP,
    AlphabetError,
    CompatibleWitness,
    JSequenceWindow,
    JSymbol,
    NoneWithinBudget,
    ParseChain,
    SpanMismatch,
    StationaryOrderedDiagram,
    SymbolTooLarge,
    WindowTooShort,
    box_matrix_text,
    build_j_symbol,
    depth_and_cuts,
    enumerate_paths,
    eventually_periodic_check,
    expand,
    expansiveness_witness_search,
    minimal_path,
    one_word_tilings,
    path_window,
    read_substitution,
    recognize_window,
    shift_down_path,
    stationary_from_substitution,
    tower_rank,
    vershik_successor,
    window_from_parse,
)
from adicshift.symbols import MAX_SYMBOL_CELLS, _column_path, _tower_heights
from oracles import (descent_path_window, expanded_symbol_rows,
                     pairwise_witness_search)
from strategies import (CHACON, DOUBLING, THUE_MORSE, stationary_diagrams,
                        substitutions)

ODOMETER = StationaryOrderedDiagram(("v",), (("v", "v"),), (2,))

DERIV = StationaryOrderedDiagram(
    ("1", "2", "3", "4"),
    (("1", "2"), ("1", "3", "2"), ("1", "3", "3", "2"),
     ("1", "2", "4", "4", "1", "2")),
    (1, 3, 5, 4),
)

# the running three-vertex example: c expands into a b c c
ABC = StationaryOrderedDiagram(
    ("a", "b", "c"), (("a",), ("b",), ("a", "b", "c", "c")), (1, 1, 1))


def positioned(symbol):
    """Symbol rows as (label, start, stop) boxes anchored at 0."""
    rows = []
    for row in symbol.rows:
        at, out = 0, []
        for label, width in row:
            out.append((label, at, at + width))
            at += width
        rows.append(tuple(out))
    return tuple(rows)


# ---------------------------------------------------------------------------
# symbols


def test_symbol_of_single_letter():
    sym = build_j_symbol(CHACON, "0", 0)
    assert sym.rows == ((("0", 1),),)
    assert sym.width == 1


def test_symbol_rows_golden():
    sym = build_j_symbol(CHACON, "0", 2)
    assert sym.width == 13
    assert sym.rows[2] == (("00s000s0s00s0", 13),)
    assert sym.rows[1] == (("00s0", 4), ("00s0", 4), ("s", 1), ("00s0", 4))
    assert sym.rows[0] == tuple((a, 1) for a in expand(CHACON, ("0",), 2))


def test_width_law():
    for s in (CHACON, THUE_MORSE):
        for a in s.alphabet:
            for j in range(6):
                assert build_j_symbol(s, a, j).width == len(
                    expand(s, (a,), j))


@settings(max_examples=60, deadline=None)
@given(stationary_diagrams(), st.integers(0, 2), st.integers(0, 5))
def test_symbol_rows_match_expanded_boxes(d, pick, j):
    s = read_substitution(d)
    base = s.alphabet[pick % len(s.alphabet)]
    assert build_j_symbol(s, base, j).rows == expanded_symbol_rows(s, base, j)
    if j:
        assert (build_j_symbol(d, base, j).rows
                == expanded_symbol_rows(d, base, j))


def test_deep_narrow_symbol_sums_its_own_boxes():
    # Chacon's s tower is one box wide at every level, while the 0 and 1
    # towers beside it grow like 3^k: the symbol must not pay for them
    d = stationary_from_substitution(CHACON, (1, 1, 1))
    misses = _tower_heights.cache_info().misses
    sym = build_j_symbol(d, "s", 20_000)
    assert sym.rows[0] == ((TOP, 1),)
    assert all(row == (("s", 1),) for row in sym.rows[1:])
    assert len(sym.rows) == 20_001
    assert _tower_heights.cache_info().misses == misses


def test_symbol_budget_refuses_before_building():
    # (j + 1) * width cells: Chacon's 0 has width 9,841 at 8 and 29,524 at 9
    assert MAX_SYMBOL_CELLS == 100_000
    assert build_j_symbol(CHACON, "0", 8).width == 9_841
    with pytest.raises(SymbolTooLarge):
        build_j_symbol(CHACON, "0", 9)
    with pytest.raises(SymbolTooLarge):
        build_j_symbol(CHACON, "0", 10 ** 9)
    # a one-letter-wide tower may go deep, up to the budget's rows
    assert build_j_symbol(CHACON, "s", 999).width == 1
    with pytest.raises(SymbolTooLarge):
        build_j_symbol(CHACON, "s", MAX_SYMBOL_CELLS)
    # diagrams count their top edges: 2^j paths into the odometer vertex
    assert build_j_symbol(ODOMETER, "v", 12).width == 4_096
    with pytest.raises(SymbolTooLarge):
        build_j_symbol(ODOMETER, "v", 13)
    wide = StationaryOrderedDiagram(("v",), (("v",),), (10 ** 6,))
    with pytest.raises(SymbolTooLarge):
        build_j_symbol(wide, "v", 1)


def test_symbol_validation():
    with pytest.raises(ValueError):
        JSymbol("a", 1, ((("a", 1),),))          # level / row count clash
    with pytest.raises(ValueError):
        JSymbol("a", 1, ((("a", 2),), (("a", 2),)))   # fat row-0 box
    with pytest.raises(ValueError):
        JSymbol("a", 1, ((("a", 1), ("b", 1)), (("a", 1),)))  # width clash
    with pytest.raises(ValueError):                  # cuts do not refine
        JSymbol("a", 2, (
            (("a", 1), ("b", 1), ("a", 1), ("b", 1)),
            (("ab", 2), ("ab", 2)),
            (("ab", 3), ("a", 1)),
        ))


def test_symbol_input_guards():
    with pytest.raises(ValueError):
        build_j_symbol(CHACON, "0", -1)
    with pytest.raises(AlphabetError):
        build_j_symbol(CHACON, "x", 1)
    with pytest.raises(AlphabetError):
        build_j_symbol(ABC, "x", 1)
    with pytest.raises(AlphabetError):
        build_j_symbol(ABC, "c", 0)      # level 0 carries the top label


def test_diagram_symbol_golden():
    sym = build_j_symbol(ABC, "c", 2)
    assert sym.rows == (
        ((TOP, 1), (TOP, 1), (TOP, 1), (TOP, 1)),
        (("a", 1), ("b", 1), ("c", 1), ("c", 1)),
        (("c", 4),),
    )
    assert box_matrix_text(sym) == (
        "|top|top|top|top|\n"
        "| a | b | c | c |\n"
        "|       c       |")
    assert build_j_symbol(ABC, TOP, 0).rows == (((TOP, 1),),)


def test_diagram_symbol_heights():
    sym = build_j_symbol(DERIV, "2", 2)
    assert sym.rows[2] == (("2", 9),)
    assert sym.rows[1] == (("1", 1), ("3", 5), ("2", 3))
    assert sym.rows[0] == ((TOP, 1),) * 9


@settings(max_examples=40)
@given(substitutions(max_letters=4, max_image=4), st.integers(0, 3))
def test_diagram_symbol_width_is_path_count(s, j):
    d = stationary_from_substitution(s, (1,) * len(s.alphabet))
    a = s.alphabet[-1]
    width = build_j_symbol(d, a, j).width if j else 1
    if j:
        assert width == len(enumerate_paths(d, j, a))


# ---------------------------------------------------------------------------
# windows from parse chains


def chacon_chain(offset, levels=2):
    text = expand(CHACON, ("0",), 6)
    chain = recognize_window(CHACON, text[offset - 32: offset + 33], levels)
    assert isinstance(chain, ParseChain)
    return chain


def test_window_from_parse_cuts_match_tilings():
    for offset in (500, 523, 546):
        chain = chacon_chain(offset)
        w = window_from_parse(CHACON, chain, 16)
        lo, hi = w.span
        assert w.span == (16, 49)
        target = w.cuts(1)
        tilings = one_word_tilings(CHACON, chain.base)
        assert any(
            frozenset(c for c in t.cuts if lo < c < hi) == target
            for t in tilings)


def test_window_from_parse_labels_are_images():
    w = window_from_parse(CHACON, chacon_chain(546), 16)
    for i in (1, 2):
        expected = {"".join(expand(CHACON, (a,), i))
                    for a in CHACON.alphabet}
        assert {label for label, _, _ in w.rows[i]} <= expected


def test_window_projection_compatibility():
    chain = chacon_chain(546)
    w2 = window_from_parse(CHACON, chain, 16)
    w1 = window_from_parse(CHACON, ParseChain(chain.base, chain.levels[:1]),
                           16)
    assert w2.rows[:2] == w1.rows
    assert w1.level == 1 and w2.level == 2


def test_window_from_parse_radius_guard():
    with pytest.raises(WindowTooShort):
        window_from_parse(CHACON, chacon_chain(546), 33)


def test_window_refinement_validation():
    with pytest.raises(ValueError):
        JSequenceWindow((0, 2), ((("a", 0, 1), ("b", 1, 2)),
                                 (("ab", 0, 1), ("ab", 1, 2)),
                                 (("x", 0, 2),),
                                 (("x", 0, 1), ("x", 1, 2))))
    with pytest.raises(ValueError):
        JSequenceWindow((0, 2), ((("a", 0, 1), ("b", 0, 2)),))  # overlap


# ---------------------------------------------------------------------------
# windows around paths


def test_path_window_odometer_golden():
    paths = enumerate_paths(ODOMETER, 3, "v")
    w0 = path_window(ODOMETER, paths[0], 3, 4)
    assert w0.span == (0, 5)
    assert w0.rows[1] == (("v", 0, 2), ("v", 2, 4), ("v", 4, 5))
    assert w0.rows[3] == (("v", 0, 5),)
    w4 = path_window(ODOMETER, paths[4], 3, 4)
    assert w4.span == (-4, 4)
    assert w4.rows[2] == (("v", -4, 0), ("v", 0, 4))
    assert w4.rows[3] == (("v", -4, 4),)


def test_path_window_of_minimal_path_reproduces_symbol():
    for d, v, j in ((DERIV, "2", 2), (DERIV, "4", 3), (ODOMETER, "v", 3),
                    (ABC, "c", 2)):
        p = minimal_path(d, j, v)
        w = path_window(d, p, j, 10 ** 6)
        sym = build_j_symbol(d, v, j)
        assert w.span == (0, sym.width)
        assert w.rows == positioned(sym)


@settings(max_examples=40)
@given(substitutions(max_letters=4, max_image=4))
def test_tower_rank_matches_enumeration_order(s):
    d = stationary_from_substitution(s, (1,) * len(s.alphabet))
    paths = enumerate_paths(d, 3, s.alphabet[-1])
    assert [tower_rank(d, p) for p in paths] == list(range(len(paths)))


@settings(max_examples=60, deadline=None)
@given(stationary_diagrams(max_letters=3, max_image=2, max_top=2))
def test_tower_table_counts_enumerated_paths(d):
    heights, edges = _tower_heights(d).upto(5)
    for level in range(1, 6):
        for v in d.alphabet:
            assert heights[level][v] == len(enumerate_paths(d, level, v))
            assert edges[level][v] == d.in_edges(level, v)
    # grown on demand, once: a shallower call reads the same levels
    assert _tower_heights(d).upto(2)[0] is heights


@settings(max_examples=60, deadline=None)
@given(stationary_diagrams(), st.integers(1, 6), st.data())
def test_column_path_inverts_tower_rank(d, level, data):
    v = data.draw(st.sampled_from(d.alphabet))
    for column, p in enumerate(enumerate_paths(d, level, v)):
        q = _column_path(d, level, v, column)
        assert q == p
        assert tower_rank(d, q) == column


@settings(max_examples=60, deadline=None)
@given(stationary_diagrams(), st.integers(1, 4),
       st.sampled_from((0, 1, 2, 5)), st.data())
def test_path_window_matches_per_row_descent(d, level, radius, data):
    v = data.draw(st.sampled_from(d.alphabet))
    j = data.draw(st.integers(0, level))
    for p in enumerate_paths(d, level, v):
        assert path_window(d, p, j, radius) == descent_path_window(
            d, p, j, radius)


def test_path_window_level_guard():
    p = minimal_path(ODOMETER, 3, "v")
    with pytest.raises(ValueError):
        path_window(ODOMETER, p, 4, 2)


# ---------------------------------------------------------------------------
# depth and cuts


def test_depth_and_cuts_span_mismatch():
    w = path_window(ODOMETER, minimal_path(ODOMETER, 3, "v"), 2, 4)
    with pytest.raises(SpanMismatch):
        depth_and_cuts(w, w.clip(0, 3))


def test_depth_of_identical_windows():
    w = path_window(DERIV, minimal_path(DERIV, 4, "4"), 3, 8)
    rep = depth_and_cuts(w, w)
    assert rep.depth == 3
    assert rep.common_cuts == tuple(
        tuple(sorted(w.cuts(i))) for i in range(4))


def nth_path(d, level, v, n):
    p = minimal_path(d, level, v)
    for _ in range(n):
        p = vershik_successor(d, p)
    return p


@settings(max_examples=30)
@given(st.integers(16, 200), st.integers(16, 200))
def test_common_cut_monotonicity(n, m):
    x = nth_path(ODOMETER, 10, "v", n)
    y = nth_path(ODOMETER, 10, "v", m)
    wx = path_window(ODOMETER, x, 6, 12)
    wy = path_window(ODOMETER, y, 6, 12)
    rep = depth_and_cuts(wx, wy)
    for lower, higher in zip(rep.common_cuts, rep.common_cuts[1:]):
        assert set(higher) <= set(lower)
    assert -1 <= rep.depth <= 6


# ---------------------------------------------------------------------------
# eventual periodicity


def test_eventually_periodic_goldens():
    assert eventually_periodic_check("aaaaaaaaa", 0, 3).period == 1
    assert eventually_periodic_check(
        expand(DOUBLING, ("a",), 4), 0, 2).period == 1
    assert eventually_periodic_check("xabcabcab", 1, 3).period == 3
    row = expand(CHACON, ("0",), 8)[:129]
    assert eventually_periodic_check(row, 0, 16) is None


def test_eventually_periodic_window_guard():
    with pytest.raises(ValueError):
        eventually_periodic_check("abab", 0, 2)


# ---------------------------------------------------------------------------
# shift-down map and witness search


def test_shift_down_raises_depth_by_one_per_step():
    x, y = nth_path(ODOMETER, 16, "v", 64), nth_path(ODOMETER, 16, "v", 66)

    def common_depth(a, b, j, radius=8):
        wa = path_window(ODOMETER, a, j, radius)
        wb = path_window(ODOMETER, b, j, radius)
        lo = max(wa.span[0], wb.span[0])
        hi = min(wa.span[1], wb.span[1])
        return depth_and_cuts(wa.clip(lo, hi), wb.clip(lo, hi)).depth

    assert common_depth(x, y, 2) == 1
    for i in range(1, 6):
        x, y = shift_down_path(ODOMETER, x), shift_down_path(ODOMETER, y)
        assert x != y
        assert common_depth(x, y, i + 2) == i + 1


def test_shift_down_structure():
    p = nth_path(ODOMETER, 4, "v", 5)
    f = shift_down_path(ODOMETER, p)
    assert f.level == p.level + 1
    assert f.terminal == p.terminal
    assert f.indices == (0, 0) + p.indices[1:]
    with pytest.raises(ValueError):
        shift_down_path(ODOMETER, minimal_path(ODOMETER, 0, "v"))


def test_witness_search_odometer_all_depths():
    for i in range(1, 9):
        w = expansiveness_witness_search(ODOMETER, i, 64, 100_000)
        assert isinstance(w, CompatibleWitness)
        assert w.left != w.right
        assert w.depth >= i
        assert w.radius == 64
        assert w.windows[0].rows[: i + 1] == w.windows[1].rows[: i + 1]


def test_witness_search_is_deterministic():
    a = expansiveness_witness_search(ODOMETER, 4, 32, 50_000)
    b = expansiveness_witness_search(ODOMETER, 4, 32, 50_000)
    assert a == b


def test_witness_search_exhausts_budget_without_witness():
    r = expansiveness_witness_search(DERIV, 2, 64, 20_000)
    assert r == NoneWithinBudget(budget=20_000, examined=20_000, radius=64)


# a one-column tower: with radius 1 every pool is empty
@example(StationaryOrderedDiagram(("v",), (("v",),), (1,)), 1, 1, 20)
# radius 0 on a two-column tower: the pool runs up to the maximal path
@example(StationaryOrderedDiagram(("v",), (("v",),), (2,)), 1, 0, 500)
@settings(max_examples=150, deadline=None)
@given(stationary_diagrams(), st.integers(1, 4),
       st.sampled_from((0, 1, 2, 5, 16)), st.integers(1, 600))
def test_witness_search_matches_pairwise_reference(d, rows, radius, budget):
    assert expansiveness_witness_search(d, rows, radius, budget) == \
        pairwise_witness_search(d, rows, radius, budget)


def test_witness_search_matches_pairwise_reference_on_odometers():
    # the odometer searches of the diagram survey: width 2-3, top count 1-3,
    # rows 1-6, budget 500
    for width in (2, 3):
        for top in (1, 2, 3):
            d = StationaryOrderedDiagram(("v",), (("v",) * width,), (top,))
            for rows in range(1, 7):
                radius = 16 if (width + top + rows) % 2 else 32
                assert expansiveness_witness_search(d, rows, radius, 500) == \
                    pairwise_witness_search(d, rows, radius, 500)


def test_witness_search_on_narrow_and_exhausted_towers():
    one_column = StationaryOrderedDiagram(("v",), (("v",),), (1,))
    assert expansiveness_witness_search(one_column, 1, 1, 20) == \
        NoneWithinBudget(budget=20, examined=0, radius=1)
    two_columns = StationaryOrderedDiagram(("v",), (("v",),), (2,))
    w = expansiveness_witness_search(two_columns, 1, 0, 500)
    assert (w.left.indices, w.right.indices) == ((0, 0), (1, 0))
    assert (w.via, w.examined, w.depth) == ("enumeration", 1, 1)


def test_witness_search_input_guard():
    with pytest.raises(ValueError):
        expansiveness_witness_search(ODOMETER, 0, 8, 100)


# ---------------------------------------------------------------------------
# rendering


def test_box_matrix_text_window():
    w = path_window(ODOMETER, enumerate_paths(ODOMETER, 3, "v")[4], 3, 4)
    assert box_matrix_text(w) == (
        "|top|top|top|top|top|top|top|top|\n"
        "|   v   |   v   |   v   |   v   |\n"
        "|       v       |       v       |\n"
        "|               v               |")


def test_box_matrix_text_wide_labels():
    sym = build_j_symbol(CHACON, "1", 1)
    lines = box_matrix_text(sym).splitlines()
    assert len({len(line) for line in lines}) == 1
    assert lines[1].count("|") == 2
