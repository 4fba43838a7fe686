"""Marked-word nesting, multi-edge encoding, minimal components, return
words, the derivative rule, and the structural predicates behind them."""

import random
import time
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adicshift import (
    CountExceedsImage,
    DecompositionFailure,
    DiagramError,
    MarkedWord,
    MinimalComponent,
    MPrimitiveDecomposition,
    NestingClass,
    NoNesting,
    NotMPrimitive,
    NotProperUpTo,
    ProperWitness,
    ReturnWordSystem,
    ScaleTooSmall,
    StationaryOrderedDiagram,
    Substitution,
    UnboundedShorts,
    derivative_substitution,
    diagram_via_derivative,
    expand,
    is_m_primitive,
    is_proper,
    minimal_components,
    multi_edge_encoding,
    nesting_diagram,
    nesting_class,
    nesting_matching_rule,
    nesting_vocabulary,
    parse_substitution,
    read_substitution,
    return_words,
    validate,
    vershik_orbit_coding,
    minimal_path,
)
from adicshift import (classify_letters, factor_language,
                       stationary_from_substitution, tower_rank)
import adicshift.constructions as constructions
from adicshift.constructions import _grown_factors
from adicshift.symbols import _tower_heights
from adicshift.words import _cycle, _downward
from oracles import (_junction_ok, naive_seed_factors, per_seed_census,
                     phase_walk_factors, powers_checked_m_primitive,
                     primitive_blocks, whole_front_return_words)
from strategies import (CHACON, DOUBLING, FIBONACCI, IDENTITY, THUE_MORSE as TM,
                        TWO_BLOCK, chacon_like, substitutions)

# the Chacon vocabulary in its published order, with base tower heights
CHACON_MARKED = {
    "0.00": 1, "0s.00": 1, "0.0s0": 2, "0s.0s0": 2,
    "1.00": 1, "0.11": 1, "0.01": 1, "1.10": 1,
}

CHACON_RULE = {
    "0.00": ("0.00", "0.0s0", "0s.00"),
    "0s.00": ("0s.00", "0.0s0", "0s.00"),
    "0.0s0": ("0.00", "0.0s0", "0s.0s0"),
    "0s.0s0": ("0s.00", "0.0s0", "0s.0s0"),
    "1.00": ("0.00", "0.0s0", "0s.00"),
    "0.11": ("0.01", "0.11", "1.10", "1.00"),
    "0.01": ("0.00", "0.0s0", "0s.00"),
    "1.10": ("0.01", "0.11", "1.10", "1.00"),
}


# ---------------------------------------------------------------------------
# marked-word vocabulary


def test_vocabulary_chacon():
    vocab = nesting_vocabulary(CHACON)
    assert {mw.label for mw in vocab} == set(CHACON_MARKED)
    assert {mw.label: mw.base_height for mw in vocab} == CHACON_MARKED
    assert all(mw.starts_long for mw in vocab)


def test_vocabulary_all_long_has_empty_gaps():
    vocab = nesting_vocabulary(TM)
    assert len(vocab) == 6  # the six three-letter factors: no aaa, no bbb
    for mw in vocab:
        assert mw.left_shorts == () and mw.middle_shorts == ()


def test_no_nesting_rejected():
    s = Substitution(("a", "s"), (("s", "a", "s"), ("s",)))
    with pytest.raises(NoNesting):
        nesting_vocabulary(s)


def test_unbounded_shorts_rejected():
    s = Substitution(("b", "s"), (("b", "s"), ("s",)))
    with pytest.raises(UnboundedShorts):
        nesting_vocabulary(s)


def test_marked_word_text_and_cut():
    mw = MarkedWord("0", ("s",), "0", ("s",), "0")
    assert mw.label == "0s.0s0"
    assert mw.cut == 2
    assert mw.counted_block == ("0", "s")


# ---------------------------------------------------------------------------
# matching rule


def test_matching_rule_chacon_table():
    vocab = {mw.label: mw for mw in nesting_vocabulary(CHACON)}
    table = {
        name: tuple(out.label for out in nesting_matching_rule(CHACON, mw))
        for name, mw in vocab.items()}
    assert table == CHACON_RULE


def test_matching_rule_height_conservation():
    for mw in nesting_vocabulary(CHACON):
        outs = nesting_matching_rule(CHACON, mw)
        for n in range(1, 5):
            total = sum(
                len(expand(CHACON, out.counted_block, n - 1)) for out in outs)
            assert total == len(expand(CHACON, mw.counted_block, n))


def test_matching_rule_outputs_stay_in_vocabulary():
    for s in (CHACON, TM):
        labels = {mw.label for mw in nesting_vocabulary(s)}
        for mw in nesting_vocabulary(s):
            assert {out.label for out in nesting_matching_rule(s, mw)} <= labels


@settings(max_examples=150, deadline=None)
@given(substitutions())
def test_matching_rule_reads_its_block_in_the_expanded_word(s):
    assume(nesting_class(s) is not NestingClass.NONE)
    try:
        vocab = nesting_vocabulary(s)
    except (NoNesting, UnboundedShorts):
        assume(False)
    for mw in vocab:
        outs = nesting_matching_rule(s, mw)
        image = expand(s, mw.letters, 1)
        start = len(expand(s, mw.letters[:mw.cut], 1))
        assert (sum((out.counted_block for out in outs), ())
                == expand(s, mw.counted_block, 1))
        for out in outs:
            # out's counted block sits at `start`, right of out's own cut
            at = start - out.cut
            assert at >= 0 and out.letters == image[at:at + len(out.letters)]
            assert out.starts_long == mw.starts_long and out in vocab
            start += out.base_height


def test_ends_long_construction():
    # images end long; one starts short, so only the ends-long reading works
    s = Substitution(
        ("0", "1", "s"),
        (("0", "s", "0", "0"), ("s", "0", "1", "1"), ("s",)))
    vocab = nesting_vocabulary(s)
    assert vocab and all(not mw.starts_long for mw in vocab)
    labels = {mw.label for mw in vocab}
    for mw in vocab:
        outs = nesting_matching_rule(s, mw)
        assert {out.label for out in outs} <= labels
        for n in range(1, 5):
            total = sum(
                len(expand(s, out.counted_block, n - 1)) for out in outs)
            assert total == len(expand(s, mw.counted_block, n))
    d = nesting_diagram(s)
    assert validate(d.unroll(3)) == []


def test_nesting_diagram_chacon():
    d = nesting_diagram(CHACON)
    assert set(d.alphabet) == set(CHACON_MARKED)
    assert {a: d.top_count(a) for a in d.alphabet} == CHACON_MARKED
    assert {a: d.read_image(a) for a in d.alphabet} == CHACON_RULE
    assert validate(d.unroll(3)) == []
    tau = read_substitution(d)
    assert tau.image("0s.0s0") == ("0s.00", "0.0s0", "0s.0s0")


# ---------------------------------------------------------------------------
# multi-edge encoding


def deriv_diagram():
    return diagram_via_derivative(CHACON)


def squared(d):
    tau = read_substitution(d)
    return StationaryOrderedDiagram(
        d.alphabet, tau.power(2).images, d.top_counts)


def test_encoding_rejects_excess_counts():
    with pytest.raises(CountExceedsImage):
        multi_edge_encoding(deriv_diagram())


def test_encoding_of_squared_derivative():
    d = squared(deriv_diagram())
    enc = multi_edge_encoding(d)
    assert len(enc.letters) == sum(d.top_counts)
    base = read_substitution(d)
    for n in range(1, 5):
        for a in d.alphabet:
            assert (expand(enc.tau, enc.block_row(a), n)
                    == enc.encode_word(expand(base, (a,), n)))


def test_encoding_trivial_counts():
    d = StationaryOrderedDiagram(
        TM.alphabet, TM.images, (1,) * len(TM.alphabet))
    enc = multi_edge_encoding(d)
    assert enc.tau.alphabet == ("a:0", "b:0")
    assert enc.tau.image("a:0") == ("a:0", "b:0")


def test_encoding_full_counts_gives_single_blocks():
    d = StationaryOrderedDiagram(("v",), (("v", "v"),), (2,))
    enc = multi_edge_encoding(d)
    for a, i in enc.letters:
        img = enc.tau.image(enc.pair_name(a, i))
        assert img == enc.block_row("v")


@settings(max_examples=30, deadline=None)
@given(substitutions(), st.data())
def test_encoding_identity_random(s, data):
    counts = tuple(
        data.draw(st.integers(1, len(img))) for img in s.images)
    d = StationaryOrderedDiagram(s.alphabet, s.images, counts)
    enc = multi_edge_encoding(d)
    for n in range(1, 4):
        for a in s.alphabet:
            assert (expand(enc.tau, enc.block_row(a), n)
                    == enc.encode_word(expand(s, (a,), n)))


# ---------------------------------------------------------------------------
# minimal components


def test_components_chacon():
    comps = minimal_components(CHACON)
    assert len(comps) == 1
    assert comps[0].seeds == ("0",)
    assert comps[0].pair == ("0", "0")
    assert comps[0].period == 1


def test_components_two_block():
    comps = minimal_components(TWO_BLOCK)
    assert len(comps) == 2
    assert [c.seeds for c in comps] == [("a", "b"), ("c", "d")]
    assert comps[0].pair == ("a", "a") and comps[0].period == 2
    assert comps[1].pair == ("c", "c") and comps[1].period == 2


def test_components_single_primitive():
    comps = minimal_components(TM)
    assert len(comps) == 1
    assert comps[0].seeds == ("a", "b")


def test_components_drop_transient_seed():
    # e is fixed at the start of its own image but only accumulates on the
    # {a, b} system, so it must not count as a separate component
    s = Substitution(("a", "b", "e"),
                     (("a", "b"), ("b", "a"), ("e", "a")))
    comps = minimal_components(s)
    assert [c.seeds for c in comps] == [("a", "b")]


GROWN_PANEL = [CHACON, TM, TWO_BLOCK, FIBONACCI, DOUBLING, IDENTITY,
               Substitution.from_rules({"a": "saa", "s": "s"})]


@pytest.mark.parametrize("s", GROWN_PANEL, ids=lambda s: "".join(s.alphabet))
@pytest.mark.parametrize("steps", [1, 2])
def test_grown_factors_match_expanded_seed_iterates(s, steps):
    for a in s.alphabet:
        grown = _downward(_grown_factors(s, (a,), 5, steps)[0], 5)
        assert ({s.decode(w) for w in grown}
                == naive_seed_factors(s, (a,), 5, steps, 8 // steps))


@settings(max_examples=150, deadline=None)
@given(substitutions(max_letters=4, max_image=4), st.data(),
       st.integers(1, 20), st.integers(1, 3))
def test_grown_factors_match_phase_walk(s, data, cap, steps):
    seed = tuple(data.draw(st.lists(st.sampled_from(s.alphabet),
                                    min_size=1, max_size=3)))
    phases = _grown_factors(s, seed, cap, steps)
    assert len(phases) == steps
    for k, maximal in enumerate(phases):
        # phase k holds the iterates of sigma^k(seed)
        assert _downward(maximal, cap) == phase_walk_factors(
            s, expand(s, seed, k), cap, steps)
        # kept as the maximal factors only
        assert not any(w != x and w in x for w in maximal for x in maximal)


@settings(max_examples=60, deadline=None)
@given(st.one_of(chacon_like(), substitutions()))
def test_census_matches_per_seed_closures(s):
    # one closure per first-letter cycle against one full walk per seed
    for scale in (4, 8, 16):
        assert (repr(minimal_components(s, scale))
                == repr(per_seed_census(s, scale)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(chacon_like(), substitutions()))
def test_junction_factor_keeps_glued_point_inside(s):
    # sigma^p fixes l's point, so its language is sigma^p-invariant: once
    # rl is a factor, so are r's left tail and the windows across the junction
    long = classify_letters(s).long
    first = {a: s.image(a)[0] for a in s.alphabet}
    last = {a: s.image(a)[-1] for a in s.alphabet}
    rights = [(a, len(c)) for a in long if (c := _cycle(first, a))]
    lefts = [(a, len(c)) for a in long if (c := _cycle(last, a))]
    for scale in (4, 8, 16):
        for l, pl in rights:
            factors = phase_walk_factors(s, (l,), scale, pl)
            for r, pr in lefts:
                if s.encode((r, l)) not in factors:
                    continue
                p = lcm(pr, pl)
                assert phase_walk_factors(s, (r,), scale, p) <= factors
                assert _junction_ok(s, p, r, l, factors, scale)


@settings(max_examples=60, deadline=None)
@given(substitutions())
def test_component_count_bounded(s):
    comps = minimal_components(s)
    assert len(comps) <= len(s.alphabet)
    for c in comps:
        assert isinstance(c, MinimalComponent)
        assert c.seeds


# ---------------------------------------------------------------------------
# return words and the derivative


def test_return_words_chacon():
    rs = return_words(CHACON, 8)
    assert rs.pairs == (("0", "0"),)
    assert rs.power == 1
    assert ["".join(w) for w in rs.vocabulary] == ["0", "0s0", "0s0s0", "0110"]
    assert rs.indices == ("1", "2", "3", "4")
    assert rs.word_text("3") == "0s0s0"


def test_return_words_over_long_labels_spell_apart():
    # bare, ('a','ab','ab','a') and ('a','ab','a','b','a') both read aababa
    s = Substitution(("a", "ab", "b"),
                     (("a", "ab"), ("ab", "a"), ("a", "b", "a")))
    rs = return_words(s, 12)
    texts = [rs.word_text(i) for i in rs.indices]
    assert "a ab a b a" in texts and len(set(texts)) == len(texts)
    assert s.rule_text().splitlines()[2] == "b -> a b a"


def test_return_words_scale_too_small():
    with pytest.raises(ScaleTooSmall):
        return_words(CHACON, 3)


def test_return_words_against_sliding_oracle():
    # every return word must appear as a block between consecutive marker
    # cuts somewhere in a deep expansion, and vice versa
    rs = return_words(TM, 8)
    (r, l), = rs.pairs
    text = expand(TM.power(rs.power), (l,), 6)
    cuts = [0] + [c for c in range(1, len(text))
                  if (text[c - 1], text[c]) == (r, l)]
    observed = {text[c1:c2] for c1, c2 in zip(cuts, cuts[1:])}
    assert observed == set(rs.vocabulary)


def _outcome(build):
    try:
        return build()
    except (DecompositionFailure, ScaleTooSmall) as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(st.one_of(chacon_like(), substitutions()))
def test_return_words_match_whole_fronts(s):
    # fronts kept as distinct blocks plus a tail, against fronts in full:
    # the same vocabulary in the same order, or the same refusal
    for scale in (None, 8, 16):
        comps = minimal_components(s, 8 if scale is None else scale)
        assert (_outcome(lambda: constructions._return_words(s, comps,
                                                             scale)[0])
                == _outcome(lambda: whole_front_return_words(s, comps, scale)))


def test_derivative_chacon_table():
    rs = return_words(CHACON, 8)
    tau = derivative_substitution(rs, CHACON)
    assert tau.alphabet == ("1", "2", "3", "4")
    assert tau.image("1") == ("1", "2")
    assert tau.image("2") == ("1", "3", "2")
    assert tau.image("3") == ("1", "3", "3", "2")
    assert tau.image("4") == ("1", "2", "4", "4", "1", "2")


def test_derivative_decomposition_concatenates_back():
    rs = return_words(CHACON, 8)
    tau = derivative_substitution(rs, CHACON)
    for idx in rs.indices:
        assert rs.phi_word(tau.image(idx)) == CHACON.apply(rs.phi(idx))


def test_derivative_identity_like():
    fixed = Substitution(("a",), (("a",),))
    rs = ReturnWordSystem(pairs=(("a", "a"),), power=1,
                          vocabulary=(("a",),))
    tau = derivative_substitution(rs, fixed)
    assert tau.image("1") == ("1",)


def test_derivative_incomplete_vocabulary_fails():
    rs = return_words(CHACON, 8)
    clipped = ReturnWordSystem(
        rs.pairs, rs.power, (rs.vocabulary[0],) + rs.vocabulary[2:])
    with pytest.raises(DecompositionFailure):
        derivative_substitution(clipped, CHACON)


PANEL_FILE = Path(__file__).parent.parent / "perfbench" / "panel.txt"
PANEL = [parse_substitution(line.replace(";", "\n"))
         for line in PANEL_FILE.read_text().splitlines()
         if line.strip() and not line.startswith("#")]


def _raised(build):
    try:
        return build()
    except DecompositionFailure as e:
        return type(e), str(e)


def _same_tau_both_routes(s):
    """The route's tau, from the pieces its closure check cut, against the
    public derivative_substitution on the same return-word system; then
    both on the system without its first word.  The refusal, if any."""
    try:
        d = diagram_via_derivative(s)
    except (DecompositionFailure, ScaleTooSmall, DiagramError):
        return None
    rs, cut = constructions._return_words(s, minimal_components(s), None)
    assert d.read_images == derivative_substitution(rs, s).images
    clipped = ReturnWordSystem(rs.pairs, rs.power, rs.vocabulary[1:])
    refused = _raised(lambda: constructions._derivative(clipped, s, cut))
    assert refused == _raised(lambda: derivative_substitution(clipped, s))
    return refused


def test_derivative_route_tau_matches_public_rule_on_panel():
    refusals = [_same_tau_both_routes(s) for s in PANEL + [CHACON]]
    # a missing segment is refused with the same type and message
    assert refusals[-1] == (DecompositionFailure,
                            "segment '0' is not in the return-word system's "
                            "vocabulary")


@settings(max_examples=60, deadline=None)
@given(chacon_like())
def test_derivative_route_tau_matches_public_rule(s):
    _same_tau_both_routes(s)


# ---------------------------------------------------------------------------
# properness and m-primitivity


def test_proper_chacon_derivative():
    rs = return_words(CHACON, 8)
    tau = derivative_substitution(rs, CHACON)
    assert is_proper(tau, 4) == ProperWitness(1)


def test_not_proper_thue_morse():
    assert is_proper(TM, 6) == NotProperUpTo(6)


def test_proper_single_letter():
    s = Substitution(("a",), (("a", "a"),))
    assert is_proper(s, 3) == ProperWitness(1)


def test_two_block_derivative_is_proper():
    rs = return_words(TWO_BLOCK, 8)
    tau = derivative_substitution(rs, TWO_BLOCK)
    verdict = is_proper(tau, 3)
    assert isinstance(verdict, ProperWitness) and verdict.power <= 3


def test_m_primitive_chacon_fails():
    verdict = is_m_primitive(CHACON)
    assert isinstance(verdict, NotMPrimitive)
    assert "s" in verdict.reason


def test_m_primitive_two_block():
    verdict = is_m_primitive(TWO_BLOCK)
    assert isinstance(verdict, MPrimitiveDecomposition)
    assert verdict.m == 2
    assert verdict.blocks == (("a", "b"), ("c", "d"))
    assert verdict.transient == ("e",)


def test_m_primitive_single_block():
    verdict = is_m_primitive(TM)
    assert isinstance(verdict, MPrimitiveDecomposition)
    assert verdict.m == 1 and verdict.transient == ()


@pytest.mark.parametrize("rules, blocks", [
    ({"a": "b", "b": "a"}, []),
    ({"a": "b", "b": "a", "c": "cd", "d": "dc"}, [("c", "d")]),
])
def test_m_primitive_periodic_closed_block(rules, blocks):
    # a <-> b is a closed cycle class of period 2: irreducible, not primitive
    s = Substitution.from_rules(rules)
    verdict = is_m_primitive(s)
    assert isinstance(verdict, NotMPrimitive)
    assert "('a', 'b')" in verdict.reason
    assert primitive_blocks(s) == blocks


@settings(max_examples=80, deadline=None)
@given(substitutions(max_letters=4, max_image=3))
def test_m_primitive_blocks_match_matrix_powers(s):
    blocks = primitive_blocks(s)
    covered = {a for block in blocks for a in block}
    stranded = [a for a in s.alphabet if a not in covered and not covered & {
        b for j in range(1, len(s.alphabet) + 1) for b in expand(s, (a,), j)}]
    verdict = is_m_primitive(s)
    if isinstance(verdict, MPrimitiveDecomposition):
        assert list(verdict.blocks) == blocks
        assert verdict.transient == tuple(
            a for a in s.alphabet if a not in covered)
    # the block test fails exactly when some letter reaches no block
    assert bool(stranded) == (isinstance(verdict, NotMPrimitive)
                              and "no primitive block" in verdict.reason)


@settings(max_examples=150, deadline=None)
@given(substitutions(max_letters=4, max_image=4), st.integers(1, 10))
def test_m_primitive_matches_powers_checked_oracle(s, scale):
    # a letter is realized at every cap once it is at cap 1, and then
    # L(sigma^2) and L(sigma^3) equal L(sigma) at every cap, so neither the
    # scale nor the power check decides a verdict
    assert (repr(is_m_primitive(s))
            == repr(powers_checked_m_primitive(s, scale)))


# ---------------------------------------------------------------------------
# end-to-end diagram


def test_diagram_via_derivative_chacon():
    d = diagram_via_derivative(CHACON)
    assert d == StationaryOrderedDiagram(
        ("1", "2", "3", "4"),
        (("1", "2"), ("1", "3", "2"), ("1", "3", "3", "2"),
         ("1", "2", "4", "4", "1", "2")),
        (1, 3, 5, 4))
    assert validate(d.unroll(3)) == []


def test_derivative_coding_spells_the_fixed_point():
    # floor p of the tower over index i contributes letter p of the i-th
    # return word, so the orbit of the minimal path, decoded floor by
    # floor, spells the substitution's own fixed point from the start
    d = diagram_via_derivative(CHACON)
    rs = return_words(CHACON, 8)
    labels = vershik_orbit_coding(d, minimal_path(d, 4, "1"), 64, 1)
    translated, p = "", 0
    while p < len(labels):
        text = rs.word_text(labels[p])
        chunk = labels[p:p + len(text)]
        assert set(chunk) == {labels[p]}
        translated += text[:len(chunk)]
        p += len(chunk)
    assert "".join(expand(CHACON, ("0",), 8)).startswith(translated)


# marker gap 159, beyond any scale the route used to try
GAP_159 = parse_substitution("a -> ccca\nb -> absbb\nc -> basb\ns -> s")


def test_long_marker_gap_builds_a_proper_diagram():
    d = diagram_via_derivative(GAP_159)
    assert max(d.top_counts) == 159
    assert isinstance(is_proper(read_substitution(d), 8), ProperWitness)
    assert validate(d.unroll(2)) == []


def test_fronts_that_never_close_raise_scale_too_small():
    # sigma^n(b) holds ever longer runs of a, so new return words keep
    # appearing; the front budget ends the growth
    s = parse_substitution("a -> a\nb -> cba\nc -> bc")
    start = time.perf_counter()
    with pytest.raises(ScaleTooSmall, match="front would pass"):
        diagram_via_derivative(s)
    assert time.perf_counter() - start < 1


def test_derivative_route_takes_the_census_once(monkeypatch):
    scales = []
    census = constructions.minimal_components

    def counted(s, scale=8):
        scales.append(scale)
        return census(s, scale)

    monkeypatch.setattr(constructions, "minimal_components", counted)
    diagram_via_derivative(GAP_159)
    assert scales == [8]


@settings(max_examples=40, deadline=None)
@given(chacon_like())
def test_derivative_route_matches_return_words(s):
    try:
        d = diagram_via_derivative(s)
    except (DecompositionFailure, ScaleTooSmall, DiagramError):
        return
    rs = return_words(s, max(8, *d.top_counts))
    assert d.alphabet == rs.indices
    built, _ = constructions._return_words(s, minimal_components(s), None)
    assert built.vocabulary == rs.vocabulary
    eff = s.power(rs.power)
    markers = set(rs.pairs)
    for i, image, top in zip(d.alphabet, d.read_images, d.top_counts):
        word, grown = rs.phi(i), eff.apply(rs.phi(i))
        assert top == len(word)
        assert rs.phi_word(image) == grown
        # sigma^p(word) cut before each marker's second letter
        cuts = [0] + [c for c in range(1, len(grown))
                      if (grown[c - 1], grown[c]) in markers] + [len(grown)]
        assert all(grown[c1:c2] in rs.vocabulary
                   for c1, c2 in zip(cuts, cuts[1:]))


def test_caches_stay_bounded_over_many_substitutions():
    rng = random.Random(300)
    caches = (factor_language, _tower_heights, classify_letters)
    for n in range(300):
        # two fresh letter names per system, so every call is a new key
        a, b = f"a{n}", f"b{n}"
        s = Substitution((a, b), tuple(
            (a,) + tuple(rng.choice((a, b)) for _ in range(rng.randint(0, 2)))
            + (b,) for _ in range(2)))
        factor_language(s, 6)
        diagram_via_derivative(s)
        d = stationary_from_substitution(s, (1, 2))
        tower_rank(d, minimal_path(d, 2, a))
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize
    assert all(cache.cache_info().misses > cache.cache_info().maxsize
               for cache in caches)
