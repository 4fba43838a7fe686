"""Core word machinery: parsing, expansion, norms, incidence, classification,
factor languages, and the structural predicates."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicshift import (
    GrammarError,
    NestingClass,
    NoneUpToBounds,
    Substitution,
    Unbounded,
    Word,
    classify_letters,
    expand,
    expansion_lengths,
    factor_language,
    incidence_matrix,
    nesting_class,
    norms,
    parse_substitution,
    periodicity_witness_search,
    short_block_bound,
    sorted_words,
)
from adicshift.words import _downward, _shortlex
from oracles import (cubic_downward, cycling_factor_language,
                     full_cap_short_block_bound, is_primitive,
                     naive_factors, naive_incidence_power)
from strategies import (CHACON, DOUBLING, FIBONACCI, IDENTITY, THUE_MORSE,
                        substitutions, with_short_letters)

# ---------------------------------------------------------------------------
# parsing


def test_parse_chacon():
    s = parse_substitution("0 -> 00s0\ns -> s\n1 -> 0110")
    assert s.alphabet == ("0", "s", "1")
    assert s.image("0") == ("0", "0", "s", "0")
    assert s.image("s") == ("s",)
    assert s.image("1") == ("0", "1", "1", "0")


def test_parse_comments_blanks_and_spacing():
    s = parse_substitution("""
        # a Chacon-type rule file
        0 -> 0 0 s 0   # spaces inside the image are ignored

        s -> s
        1 -> 0110
    """)
    assert s.alphabet == ("0", "s", "1")
    assert s.image("0") == ("0", "0", "s", "0")


def test_parse_identity():
    s = parse_substitution("a -> a")
    assert s.alphabet == ("a",)
    assert s.image("a") == ("a",)


def test_parse_empty_image_rejected():
    with pytest.raises(GrammarError, match="empty"):
        parse_substitution("a -> ")


def test_parse_missing_rule_rejected():
    with pytest.raises(GrammarError, match="missing rule"):
        parse_substitution("a -> ab")


def test_parse_duplicate_lhs_rejected():
    with pytest.raises(GrammarError, match="duplicate"):
        parse_substitution("a -> a\na -> aa")


def test_parse_garbage_line_rejected():
    with pytest.raises(GrammarError):
        parse_substitution("a = aa")


# ---------------------------------------------------------------------------
# expansion and norms


def test_expand_basics():
    assert expand(CHACON, "0", 1) == "00s0"
    assert expand(CHACON, "0", 0) == "0"
    assert expand(CHACON, "0", 2) == "00s000s0s00s0"
    assert expand(CHACON, ("0", "s"), 1) == ("0", "0", "s", "0", "s")


def test_expand_word_transport_marker():
    w = expand(CHACON, Word(("0", "1"), marker=1), 1)
    assert w.letters == tuple("00s00110")
    assert w.marker == 4
    assert (str(w), len(w)) == ("00s0.0110", 8)
    assert (str(Word(w.letters)), len(Word(w.letters))) == ("00s00110", 8)


@settings(max_examples=60, deadline=None)
@given(substitutions(), st.data(), st.integers(0, 4), st.integers(0, 4))
def test_expand_composes(s, data, m, n):
    w = tuple(data.draw(st.lists(st.sampled_from(s.alphabet), min_size=1, max_size=4)))
    assert expand(s, expand(s, w, m), n) == expand(s, w, m + n)


def test_norms():
    assert [expansion_lengths(CHACON, n) for n in range(3)] == [
        {"0": 1, "s": 1, "1": 1}, {"0": 4, "s": 1, "1": 4},
        {"0": 13, "s": 1, "1": 16}]
    assert norms(CHACON, 1) == (1, 4)
    assert norms(CHACON, 2) == (1, 16)
    assert norms(IDENTITY, 7) == (1, 1)


@settings(max_examples=40)
@given(substitutions(), st.integers(1, 4))
def test_norms_not_decreasing(s, n):
    assert norms(s, n + 1) >= norms(s, n)


@settings(max_examples=40)
@given(substitutions(), st.integers(0, 5))
def test_expansion_lengths_match_expand(s, n):
    lengths = expansion_lengths(s, n)
    for a in s.alphabet:
        assert lengths[a] == len(expand(s, (a,), n))


# ---------------------------------------------------------------------------
# incidence matrices


def test_incidence_chacon():
    m = incidence_matrix(CHACON)
    assert m.tolist() == [[3, 1, 0], [0, 1, 0], [2, 0, 2]]


def test_incidence_identity():
    assert incidence_matrix(IDENTITY).tolist() == [[1]]


def test_import_leaves_numpy_unloaded():
    # numpy is imported on first use of incidence_matrix, not by the package
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, adicshift; assert 'numpy' not in sys.modules; "
            "m = adicshift.incidence_matrix(adicshift.parse_substitution("
            "'a -> ab\\nb -> a')); "
            "assert type(m).__module__ == 'numpy' and m.dtype == 'int64'")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


@settings(max_examples=60)
@given(substitutions(), st.integers(1, 5))
def test_incidence_power_identity(s, n):
    m = incidence_matrix(s)
    assert np.array_equal(incidence_matrix(s.power(n)),
                          np.linalg.matrix_power(m, n))
    assert np.array_equal(incidence_matrix(s.power(n)),
                          naive_incidence_power(s, n))


@settings(max_examples=40)
@given(substitutions())
def test_incidence_row_sums(s):
    m = incidence_matrix(s)
    for i, img in enumerate(s.images):
        assert m[i].sum() == len(img)


# ---------------------------------------------------------------------------
# classification


def test_classify_chacon():
    c = classify_letters(CHACON)
    assert c.long == ("0", "1")
    assert c.short == ("s",)


def test_classify_tail_letter():
    s = parse_substitution("a -> ab\nb -> b")
    c = classify_letters(s)
    assert c.long == ("a",)
    assert c.short == ("b",)


def test_classify_all_long():
    assert classify_letters(THUE_MORSE).short == ()


def test_classify_self_doubling_short_candidate():
    # s has a self-loop with image length 2, so it genuinely grows
    s = parse_substitution("a -> as\ns -> ss")
    assert classify_letters(s).short == ()


@settings(max_examples=50)
@given(substitutions())
def test_classification_matches_growth(s):
    c = classify_letters(s)
    bound = 2 * len(s.alphabet)
    for a in c.short:
        lengths = [expansion_lengths(s, n)[a] for n in range(11)]
        # bounded and eventually constant
        assert len(set(lengths[bound:])) <= 1
    for a in c.long:
        lengths = [expansion_lengths(s, n)[a] for n in range(bound + 1)]
        assert any(lengths[j] > lengths[i]
                   for i in range(len(lengths)) for j in range(i + 1, len(lengths)))


def test_short_images_stay_short():
    c = classify_letters(CHACON)
    for a in c.short:
        assert set(CHACON.image(a)) <= set(c.short)


# ---------------------------------------------------------------------------
# factor language


def test_factor_language_chacon_cap2():
    lang = factor_language(CHACON, 2)
    expected = {("0",), ("s",), ("1",),
                ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"),
                ("0", "s"), ("s", "0")}
    assert lang.factors == frozenset(expected)
    assert ("s", "s") not in lang.factors
    assert ("1", "s") not in lang.factors
    assert ("s", "1") not in lang.factors


def test_factor_language_identity():
    assert factor_language(IDENTITY, 3).factors == frozenset({("a",)})


def test_factor_language_membership_string():
    assert "0s0s0" in factor_language(CHACON, 5)


def test_factor_language_against_expansion_oracle():
    # cross-check against direct factors of deep expansions of 0 and 1
    lang = factor_language(CHACON, 6)
    assert lang.factors == frozenset(naive_factors(CHACON, 6, 8))


@settings(max_examples=30, deadline=None)
@given(substitutions(max_letters=4, max_image=4), st.integers(1, 6))
def test_factor_language_downward_closed(s, cap):
    lang = factor_language(s, cap)
    for w in lang.factors:
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                assert w[i:j] in lang.factors


@settings(max_examples=30, deadline=None)
@given(substitutions(max_letters=4, max_image=4),
       st.integers(1, 5), st.integers(0, 3))
def test_factor_language_cap_filter_consistent(s, c1, extra):
    c2 = c1 + extra
    small = factor_language(s, c1).factors
    large = factor_language(s, c2).factors
    assert small == frozenset(w for w in large if len(w) <= c1)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.text(alphabet="\ue000\ue001\ue002", max_size=12),
               max_size=8),
       st.integers(1, 10))
def test_downward_closure_matches_cubic_slicing(words, cap):
    assert _downward(words, cap) == cubic_downward(words, cap)


@pytest.mark.parametrize("s", [CHACON, THUE_MORSE, FIBONACCI, IDENTITY,
                               DOUBLING])
def test_factors_are_the_decoded_encoding(s):
    lang = factor_language(s, 7)
    assert lang.factors == frozenset(s.decode(w) for w in lang.encoded)
    assert len(lang.factors) == len(lang.encoded)
    assert all(w in lang for w in lang.factors)


def test_letter_outside_alphabet_is_not_a_factor():
    lang = factor_language(CHACON, 4)
    assert ("x",) not in lang
    assert ("0", "x") not in lang
    assert "0x" not in lang


def test_factor_language_chacon_cap200_count():
    # the count of the linear-complexity language up to length 200
    assert len(factor_language(CHACON, 200).encoded) == 79_590


@pytest.mark.parametrize("cap, count", [(100, 19_690), (400, 324_275)])
def test_factor_language_chacon_counts(cap, count):
    # built past the cache, so the cap-400 language is not kept
    assert len(factor_language.__wrapped__(CHACON, cap).encoded) == count


@settings(max_examples=150, deadline=None)
@given(substitutions(max_letters=4, max_image=4), st.integers(1, 20))
def test_factor_language_matches_generation_cycle(s, cap):
    assert factor_language(s, cap).encoded == cycling_factor_language(s, cap)


def test_right_ends_expand_in_full():
    # bb lies only in the last windows of the generations a b^n: no
    # window's first image reaches it
    s = parse_substitution("a -> ab\nb -> b")
    assert ("b", "b") in factor_language(s, 4)
    assert ("b", "b", "b") in factor_language(s, 4)


@settings(max_examples=150, deadline=None)
@given(substitutions(max_letters=4, max_image=4), st.integers(1, 10),
       st.sampled_from((2, 3)))
def test_power_language_within_language(s, cap, k):
    # L(sigma^k) is read off the iterates sigma^(kn) only, so it lies in
    # L(sigma); when every letter occurs in L(sigma) (as for primitive
    # sigma) each letter has a realized preimage, every factor of
    # sigma^n(a) recurs in sigma^(kn')(b), and the two languages are equal
    power = factor_language(s.power(k), cap).encoded
    own = factor_language(s, cap).encoded
    assert power <= own
    if is_primitive(s):
        assert power == own
    if all((a,) in factor_language(s, 1) for a in s.alphabet):
        assert power == own


def test_primitivity_oracle():
    assert is_primitive(CHACON) is False        # s -> s reaches nothing else
    assert is_primitive(FIBONACCI) and is_primitive(THUE_MORSE)
    assert is_primitive(IDENTITY)
    assert not is_primitive(parse_substitution("a -> b\nb -> a"))


def test_sorted_words_order():
    lang = factor_language(CHACON, 2)
    assert sorted_words(CHACON, lang.factors) == [
        ("0",), ("s",), ("1",),
        ("0", "0"), ("0", "s"), ("0", "1"),
        ("s", "0"), ("1", "0"), ("1", "1")]


@pytest.mark.parametrize("s", [
    parse_substitution("b -> ba\na -> b"),
    Substitution(("bb", "a", "c1"), (("bb", "a"), ("c1", "bb", "a"), ("a",))),
], ids=["b-first", "multi-character"])
def test_encoded_order_is_sorted_words_order(s):
    # codes follow the alphabet, not the letters' own string order
    lang = factor_language(s, 5)
    assert len(lang.encoded) > 10
    assert ([s.decode(w) for w in sorted(lang.encoded, key=_shortlex)]
            == sorted_words(s, lang.factors))


# ---------------------------------------------------------------------------
# nesting class


def test_nesting_chacon_both():
    assert nesting_class(CHACON) is NestingClass.BOTH


def test_nesting_all_long_both():
    assert nesting_class(THUE_MORSE) is NestingClass.BOTH


def test_nesting_ends_long():
    s = parse_substitution("a -> saa\ns -> s")
    assert nesting_class(s) is NestingClass.ENDS_LONG


def test_nesting_starts_long():
    s = parse_substitution("a -> aas\ns -> s")
    assert nesting_class(s) is NestingClass.STARTS_LONG


def test_nesting_none():
    s = parse_substitution("a -> sas\ns -> s")
    assert nesting_class(s) is NestingClass.NONE


# ---------------------------------------------------------------------------
# short-block bound


def test_short_block_bound_chacon():
    assert short_block_bound(CHACON) == 2


def test_short_block_bound_all_long():
    assert short_block_bound(THUE_MORSE) == 1


def test_short_block_bound_unbounded():
    # s^k occurs for every k: no finite bound below the cap
    s = parse_substitution("a -> as\ns -> s")
    assert short_block_bound(s, cap=8) == Unbounded(8)


def test_short_block_bound_growing_s_is_long():
    # here s doubles, so it is long and the short alphabet is empty
    s = parse_substitution("a -> as\ns -> ss")
    assert short_block_bound(s, cap=8) == 1


@settings(max_examples=40, deadline=None)
@given(substitutions(max_letters=4, max_image=4))
def test_short_block_bound_invariant(s):
    m = short_block_bound(s, cap=12)
    if isinstance(m, Unbounded):
        return
    short = set(classify_letters(s).short)
    lang = factor_language(s, max(m, 1))
    assert not [w for w in lang.factors if len(w) == m and set(w) <= short]


@settings(max_examples=60, deadline=None)
@given(st.one_of(substitutions(), with_short_letters()))
def test_short_block_bound_matches_full_cap_scan(s):
    # the doubling caps stop early; the whole language at cap must agree
    for cap in (2, 3, 5, 16, 17):
        assert short_block_bound(s, cap) == full_cap_short_block_bound(s, cap)


# ---------------------------------------------------------------------------
# periodicity witnesses


def test_periodicity_witness_doubling():
    assert periodicity_witness_search(DOUBLING, 4, 4) == ("a",)


def test_periodicity_witness_two_letter():
    s = parse_substitution("a -> ab\nb -> ab")
    assert periodicity_witness_search(s, 4, 4) == ("a", "b")


def test_periodicity_witness_chacon_none():
    assert periodicity_witness_search(CHACON, 8, 4) == NoneUpToBounds(8, 4)


def test_periodicity_witness_fibonacci_none():
    assert periodicity_witness_search(FIBONACCI, 6, 4) == NoneUpToBounds(6, 4)
