"""Phase-space windows: junction seeds, limit windows, occurrence chains
with the offset recurrence, and the origin-alignment core check."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adicshift import (
    ChainPrefix,
    CoreCheck,
    InsufficientGrowth,
    LambdaSeed,
    ShortLettersPresent,
    Word,
    classify_letters,
    core_membership,
    expand,
    factor_language,
    lambda_seeds,
    lambda_window,
    m0_window,
)
from oracles import bounded_seed_scan, core_membership_by_levels
from strategies import CHACON, DOUBLING, FIBONACCI, THUE_MORSE, substitutions


# ---------------------------------------------------------------------------
# seeds


def test_thue_morse_seeds():
    seeds = lambda_seeds(THUE_MORSE)
    assert {(s.left, s.right) for s in seeds} == {
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
    assert {s.period for s in seeds} == {2}


def test_doubling_seed():
    assert lambda_seeds(DOUBLING) == [LambdaSeed("a", "a", 1)]


def test_fibonacci_seeds_match_expansion_oracle():
    seeds = lambda_seeds(FIBONACCI)
    assert {(s.left, s.right) for s in seeds} == {("a", "a"), ("b", "a")}
    for seed in seeds:
        assert expand(FIBONACCI, (seed.left,), 8)[-1] == seed.left
        assert expand(FIBONACCI, (seed.right,), 8)[0] == seed.right


def test_short_letters_rejected():
    with pytest.raises(ShortLettersPresent):
        lambda_seeds(CHACON)


@settings(max_examples=50, deadline=None)
@given(substitutions(max_letters=4, max_image=4))
def test_seeds_verify_by_direct_expansion(s):
    assume(not classify_letters(s).short)
    lang = factor_language(s, 2)
    for seed in lambda_seeds(s):
        assert (seed.left, seed.right) in lang
        assert 1 <= seed.period <= (len(s.alphabet) + 1) ** 2
        assert expand(s, (seed.left,), seed.period)[-1] == seed.left
        assert expand(s, (seed.right,), seed.period)[0] == seed.right


@settings(max_examples=60, deadline=None)
@given(substitutions(max_letters=4, max_image=4))
def test_seed_periods_match_bounded_scan(s):
    assume(not classify_letters(s).short)
    assert lambda_seeds(s) == bounded_seed_scan(s)


# ---------------------------------------------------------------------------
# limit windows


def test_thue_morse_junction_window():
    w = lambda_window(THUE_MORSE, LambdaSeed("a", "b", 2), 4)
    assert str(w) == "abba.baab"
    assert w.marker == 4


def test_doubling_window_is_constant():
    w = lambda_window(DOUBLING, LambdaSeed("a", "a", 1), 5)
    assert str(w) == "aaaaa.aaaaa"


def test_window_stable_under_depth_increase():
    seed = LambdaSeed("a", "b", 2)
    base = lambda_window(THUE_MORSE, seed, 8)
    assert lambda_window(THUE_MORSE, seed, 8, depth=3) == base
    assert lambda_window(THUE_MORSE, seed, 8, depth=4) == base
    fib = LambdaSeed("b", "a", 2)
    assert (lambda_window(FIBONACCI, fib, 6)
            == lambda_window(FIBONACCI, fib, 6, depth=4))


def test_window_guards():
    with pytest.raises(ValueError):
        lambda_window(THUE_MORSE, LambdaSeed("a", "b", 2), 0)
    with pytest.raises(InsufficientGrowth):
        lambda_window(THUE_MORSE, LambdaSeed("a", "b", 2), 16, depth=1)


# ---------------------------------------------------------------------------
# occurrence chains


def chacon_chain(depth):
    return ChainPrefix(CHACON, (("0", 0),) + (("0", 1),) * depth)


def test_chain_offset_recurrence():
    assert chacon_chain(2).cuts() == (0, 1, 5)
    assert chacon_chain(4).cuts() == (0, 1, 5, 18, 58)
    lengths = [len(expand(CHACON, ("0",), n)) for n in range(4)]
    # each step adds the expanded length of the single letter left of the
    # occurrence of 0 at position 1 of 00s0
    assert [b - a for a, b in zip(chacon_chain(4).cuts(),
                                  chacon_chain(4).cuts()[1:])] == lengths


def test_all_zero_chain_keeps_origin_left():
    zero = ChainPrefix(CHACON, (("0", 0), ("0", 0), ("0", 0)))
    assert zero.cuts() == (0, 0, 0)
    with pytest.raises(InsufficientGrowth):
        m0_window(CHACON, zero, 1)


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainPrefix(CHACON, ())
    with pytest.raises(ValueError):
        ChainPrefix(CHACON, (("0", 3),))           # level 0 must sit at 0
    with pytest.raises(ValueError):
        ChainPrefix(CHACON, (("0", 0), ("0", 2)))  # 00s0[2] is s, not 0
    with pytest.raises(ValueError):
        ChainPrefix(CHACON, (("0", 0), ("0", 9)))  # out of range
    ChainPrefix(CHACON, (("1", 0), ("1", 1)))      # 0110[1] is 1: fine
    with pytest.raises(ValueError):
        ChainPrefix(CHACON, (("1", 0), ("0", 0)))  # 00s0[0] is 0, not 1


def test_m0_window_matches_expansion_slice():
    w = m0_window(CHACON, chacon_chain(2), 5)
    assert str(w) == "00s00.0s0s0"
    text = expand(CHACON, ("0",), 2)
    assert w.letters == text[0:10]
    deeper = m0_window(CHACON, chacon_chain(3), 5)
    assert deeper == w
    assert m0_window(CHACON, chacon_chain(1), 1) == Word(("0", "0"), 1)


def test_m0_growth_guard():
    with pytest.raises(InsufficientGrowth):
        m0_window(CHACON, chacon_chain(1), 2)
    with pytest.raises(ValueError):
        m0_window(CHACON, chacon_chain(2), 0)


# ---------------------------------------------------------------------------
# core membership


def test_lambda_windows_core_consistent():
    for seed in lambda_seeds(THUE_MORSE):
        w = lambda_window(THUE_MORSE, seed, 8)
        for n in range(4):
            check = core_membership(THUE_MORSE, w, n)
            assert check.consistent and check.refuted_at is None


def test_shifted_window_refuted_at_level_one():
    w = lambda_window(THUE_MORSE, LambdaSeed("a", "b", 2), 8)
    for off in (-1, 1):
        check = core_membership(
            THUE_MORSE, Word(w.letters, w.marker + off), 3)
        assert check == CoreCheck(False, 3, 1)


def test_interior_m0_origin_not_in_deep_images():
    # this chain's origin sits strictly inside every level-1 tile, so a
    # wide enough window refutes image membership outright
    w = m0_window(CHACON, chacon_chain(2), 1)
    assert core_membership(CHACON, w, 0).consistent
    w5 = m0_window(CHACON, chacon_chain(2), 5)
    assert core_membership(CHACON, w5, 2) == CoreCheck(False, 2, 1)


def test_fibonacci_window_refuted_at_level_two():
    w = Word(tuple("abaababa"), 2)
    assert core_membership(FIBONACCI, w, 3) == CoreCheck(False, 3, 2)
    assert core_membership_by_levels(FIBONACCI, w, 3) == CoreCheck(False, 3, 2)


@settings(max_examples=100, deadline=None)
@given(substitutions(max_letters=3, max_image=3), st.data())
def test_core_membership_matches_level_by_level_search(s, data):
    word = expand(s, (s.alphabet[0],), 5)
    assume(len(word) >= 4)
    start = data.draw(st.integers(0, len(word) - 4))
    length = data.draw(st.integers(4, min(12, len(word) - start)))
    window = Word(word[start:start + length],
                  data.draw(st.integers(0, length)))
    n = data.draw(st.integers(0, 4))
    assert (core_membership(s, window, n)
            == core_membership_by_levels(s, window, n))


def test_core_membership_guards():
    with pytest.raises(ValueError):
        core_membership(THUE_MORSE, Word(("a", "b")), 1)
    with pytest.raises(ValueError):
        core_membership(THUE_MORSE, Word(("a", "b"), 1), -1)
