"""Window tilings, language membership and the parse-chain engine."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adicshift.recognize as recognize
from adicshift import (Substitution, WindowTooShort, Word, core_membership,
                       expand, factor_language, parse_substitution)
from adicshift.recognize import (
    AmbiguityReport,
    ChainLevel,
    ParseChain,
    Tiling,
    one_word_tilings,
    recognize_window,
)
from oracles import (brute_tilings, bucketed_parent_in_language,
                     record_chain_recognize_window)
from strategies import (CHACON, DOUBLING, FIBONACCI, THUE_MORSE, TWO_BLOCK,
                        substitutions)

IDENTITY3 = parse_substitution("a -> a\nb -> b\nc -> c")

# ---------------------------------------------------------------------------
# one_word_tilings


def test_exact_cover_of_single_image():
    tilings = one_word_tilings(CHACON, "00s0", interior_only=True)
    assert len(tilings) == 1
    assert tilings[0].parent == ("0",)
    assert tilings[0].offset == 0


def test_exact_cover_of_second_expansion():
    tilings = one_word_tilings(CHACON, expand(CHACON, "0", 2), interior_only=True)
    assert len(tilings) == 1
    assert tilings[0].parent == ("0", "0", "s", "0")


def test_identity_tiles_any_window():
    tilings = one_word_tilings(IDENTITY3, "abc")
    assert len(tilings) == 1
    assert tilings[0].parent == ("a", "b", "c")
    assert tilings[0].offset == 0
    assert tilings[0].cuts == (0, 1, 2, 3)


def test_clipped_tiling_fields():
    # "0s00" has three readings: 0|s|00.. inside sigma(0s0), and .0s0|0...
    # inside sigma(00) and sigma(01); "1s" is not a language word, so no
    # tiling may start inside sigma(1)
    tilings = one_word_tilings(CHACON, "0s00")
    assert [(t.parent, t.offset) for t in tilings] == [
        (("0", "s", "0"), 3),
        (("0", "0"), 1),
        (("0", "1"), 1),
    ]
    t = tilings[1]
    assert t.boundary == (3, 1)
    assert t.cuts == (3,)
    assert t.reconstruct(CHACON) == ("0", "s", "0", "0")


def test_tilings_sorted_deterministically():
    tilings = one_word_tilings(DOUBLING, "aaaa")
    keys = [(len(DOUBLING.image(t.parent[0])) - t.offset, t.parent) for t in tilings]
    assert keys == sorted(keys)


PANEL = [CHACON, THUE_MORSE, FIBONACCI, DOUBLING,
         parse_substitution("a -> saa\ns -> s")]


@pytest.mark.parametrize("s", PANEL, ids=lambda s: "".join(s.alphabet))
def test_tilings_match_cut_placement_oracle_on_language_windows(s):
    # every window of length <= 12 drawn from a deep expansion
    text = expand(s, (s.alphabet[0],), 6 if s is not DOUBLING else 4)
    seen = set()
    for length in (1, 2, 3, 5, 8, 12):
        for i in range(0, max(1, len(text) - length), 7):
            w = text[i:i + length]
            if not w or w in seen:
                continue
            seen.add(w)
            engine = [(t.parent, t.offset) for t in one_word_tilings(s, w)]
            assert engine == brute_tilings(s, w)
            exact = [(t.parent, t.offset)
                     for t in one_word_tilings(s, w, interior_only=True)]
            assert exact == brute_tilings(s, w, interior_only=True)


@settings(max_examples=40, deadline=None)
@given(substitutions(max_letters=3, max_image=3), st.data())
def test_tilings_match_oracle_random(s, data):
    base = expand(s, (data.draw(st.sampled_from(s.alphabet)),), 4)
    i = data.draw(st.integers(0, max(0, len(base) - 1)))
    length = data.draw(st.integers(1, 10))
    interior_only = data.draw(st.booleans())
    w = base[i:i + length]
    engine = [(t.parent, t.offset)
              for t in one_word_tilings(s, w, interior_only)]
    assert engine == brute_tilings(s, w, interior_only)


@settings(max_examples=40, deadline=None)
@given(substitutions(max_letters=3, max_image=4), st.data())
def test_tilings_reconstruct_window(s, data):
    base = expand(s, (data.draw(st.sampled_from(s.alphabet)),), 3)
    i = data.draw(st.integers(0, max(0, len(base) - 1)))
    length = data.draw(st.integers(1, 12))
    w = base[i:i + length]
    for t in one_word_tilings(s, w):
        assert t.reconstruct(s) == w
        assert 0 <= t.offset < len(s.image(t.parent[0]))


def test_equal_images_do_not_multiply_partial_covers():
    # sigma(b) = sigma(c): every run of those tiles doubles the partial
    # covers unless each is checked against the language as it grows;
    # unpruned, 121 letters took seconds and hundreds of MB, 141 more
    s = parse_substitution("a -> caab\nb -> ba\nc -> ba")
    window = expand(s, ("a",), 6)[:141]
    tilings = one_word_tilings(s, window)
    assert [(t.parent, t.offset) for t in tilings] == [
        (expand(s, ("a",), 5)[:48], 0)]
    assert tilings[0].reconstruct(s) == window


@pytest.mark.parametrize("interior_only", [False, True])
def test_long_windows_tile_without_recursion(interior_only):
    # thousands of tiles deep, at the default recursion limit, with the
    # parent filter deciding parents of over a thousand letters
    seventh = expand(CHACON, ("0",), 7)
    sixth = expand(CHACON, ("0",), 6)
    for window, parent in [(seventh, sixth),                 # 3,280 letters
                           (seventh + seventh, sixth * 2)]:  # 6,560 letters
        tilings = one_word_tilings(CHACON, window, interior_only)
        assert (parent, 0) in [(t.parent, t.offset) for t in tilings]
        for t in tilings:
            assert t.reconstruct(CHACON) == window


# ---------------------------------------------------------------------------
# language membership by desubstitution

MEMBERSHIP_PANEL = [CHACON, THUE_MORSE, FIBONACCI, TWO_BLOCK] + [
    parse_substitution(rules) for rules in (
        # equal one-letter images, non-injective, letters outside the
        # language: the walk budget and the fallback lookup
        "a -> a\nb -> a\nc -> cd\nd -> abd",
        "a -> a\nb -> a\nc -> bc",
        "a -> dbc\nb -> aca\nc -> a\nd -> d",
        "a -> b\nb -> dbb\nc -> db\nd -> b",
        # c is outside the language, and b^9 lies only in its image
        "a -> ab\nb -> a\nc -> bbbbbbbbbba",
    )]


def membership_queries(s, language, limit):
    """The factors longer than 8 letters and every one-letter mutation of
    them, sorted; more than `limit` are thinned to every k-th."""
    codes = s.encode(s.alphabet)
    queries = set()
    for w in language:
        if len(w) > 8:
            queries.update(w[:i] + c + w[i + 1:]
                           for i in range(len(w)) for c in codes)
    queries = sorted(queries)
    return queries[::max(1, -(-len(queries) // limit))]


@pytest.mark.parametrize("s", MEMBERSHIP_PANEL,
                         ids=lambda s: s.rule_text().replace("\n", "; "))
def test_membership_matches_factor_language(s):
    language = factor_language(s, 24).encoded
    for w in membership_queries(s, language, 20_000):
        assert recognize._parent_in_language(s, w) == (w in language), \
            s.decode(w)


@settings(max_examples=30, deadline=None)
@given(substitutions(max_letters=4, max_image=4))
def test_membership_matches_factor_language_random(s):
    language = factor_language(s, 16).encoded
    for w in membership_queries(s, language, 2_000):
        assert recognize._parent_in_language(s, w) == (w in language), \
            s.decode(w)


def test_membership_chain_without_recursion():
    # every parent of a b^k is a b^(k-1): 2,000 levels of desubstitution at
    # the default recursion limit
    s = parse_substitution("a -> ab\nb -> b")
    assert recognize._parent_in_language(s, s.encode("a" + "b" * 2000))
    assert not recognize._parent_in_language(s, s.encode("b" * 999 + "a"))


# ---------------------------------------------------------------------------
# recognize_window


def central_window(text, radius):
    mid = len(text) // 2
    return text[mid - radius:mid + radius + 1]


def test_recognize_chacon_depth1_unique():
    w = central_window(expand(CHACON, "0", 6), 32)
    chain = recognize_window(CHACON, w, 1)
    assert isinstance(chain, ParseChain)
    lvl = chain.levels[0]
    # the parse reproduces the window slice it claims to cover
    assert expand(CHACON, lvl.parent, 1) == tuple(
        w[lvl.bounds[0]:lvl.bounds[0] + len(expand(CHACON, lvl.parent, 1))])


def test_recognize_chacon_depth3_unique():
    w = central_window(expand(CHACON, "0", 6), 32)
    chain = recognize_window(CHACON, w, 3)
    assert isinstance(chain, ParseChain)
    assert len(chain.levels) == 3
    assert all(lvl.parent for lvl in chain.levels)


def test_recognize_periodic_ambiguous():
    report = recognize_window(DOUBLING, "aaaa", 1)
    assert isinstance(report, AmbiguityReport)
    assert len(report.tilings) == 2


def test_recognize_identity_all_offsets_zero():
    for k in (1, 2, 5):
        chain = recognize_window(IDENTITY3, "abc", k)
        assert isinstance(chain, ParseChain)
        assert [l.bounds[0] for l in chain.levels] == [0] * k
        assert all(l.parent == ("a", "b", "c") for l in chain.levels)


def test_recognize_window_too_short():
    with pytest.raises(WindowTooShort):
        recognize_window(CHACON, "00", 1)


def test_non_language_window_has_no_tilings():
    # b never follows b in the Fibonacci language
    report = recognize_window(FIBONACCI, ("b",) * 9, 1)
    assert report == AmbiguityReport(
        1, (), (2, 7), "no tilings at all: not a language window")


def test_starved_level_starves_every_later_level():
    # level 3 of every chain keeps no tile, so level 4 reads nothing and
    # the chains cannot disagree there
    w = "0s00s0s00s000s0s00s000s000s0s00s000s000"
    with pytest.raises(WindowTooShort, match=(
            "no level tile meets the clipped interior; enlarge the radius")):
        recognize_window(CHACON, w, 4)


def test_recognize_nested_partitions():
    w = central_window(expand(CHACON, "0", 7), 120)
    chain = recognize_window(CHACON, w, 3)
    assert isinstance(chain, ParseChain)
    for level in (2, 3):
        fine = {c for c in chain.levels[level - 2].bounds if c is not None}
        coarse = {c for c in chain.levels[level - 1].bounds if c is not None}
        assert coarse <= fine


ORACLE_PANEL = {"chacon": CHACON, "thue-morse": THUE_MORSE,
                "period-doubling": parse_substitution("a -> ab\nb -> aa"),
                "fibonacci": FIBONACCI}


@pytest.mark.parametrize("s", ORACLE_PANEL.values(), ids=ORACLE_PANEL.keys())
def test_recognize_window_agrees_with_bucketed_language(s, monkeypatch):
    # the parse with membership by desubstitution against the parse with
    # every parent looked up in a factor language built to its length
    rng = random.Random(5)
    text = expand(s, (s.alphabet[0],), 1)
    while len(text) < 2_000:
        text = expand(s, text, 1)
    windows = []
    for length in (65, 129, 257, 401):
        for _ in range(3):
            i = rng.randrange(len(text) - length)
            windows.append(text[i:i + length])
    if s is FIBONACCI:
        windows.append(expand(s, "a", 12)[166:231])
    engine = [recognize_window(s, w, 3) for w in windows]
    monkeypatch.setattr(recognize, "_parent_in_language",
                        bucketed_parent_in_language)
    assert engine == [recognize_window(s, w, 3) for w in windows]
    if s is FIBONACCI:
        # the edge tile at the clipped interior keeps this window ambiguous
        assert isinstance(engine[-1], AmbiguityReport)
        assert engine[-1].note == "chains disagree on the interior"


def test_chain_budget_refusal():
    # "aaaa" has two level-1 tilings under a -> aa: one chain too many
    assert len(one_word_tilings(DOUBLING, "aaaa")) == 2
    report = recognize_window(DOUBLING, "aaaa", 1, chain_budget=1)
    assert isinstance(report, AmbiguityReport)
    assert (report.level, report.interior, report.note) == (
        1, (2, 2), "chain budget exceeded")
    assert report.tilings == ()


def test_chain_expansions_match_window():
    w = central_window(expand(CHACON, "0", 6), 40)
    chain = recognize_window(CHACON, w, 2)
    checked = 0
    for level in (1, 2):
        lvl = chain.levels[level - 1]
        bounds = lvl.bounds
        # each level tile's expansion matches the window over its visible span
        for letter, b, e in zip(lvl.parent, bounds, bounds[1:]):
            full = expand(CHACON, (letter,), level)
            if b is None and e is None:
                continue
            start = b if b is not None else e - len(full)
            lo, hi = max(start, 0), min(start + len(full), len(w))
            assert full[lo - start:hi - start] == tuple(w[lo:hi])
            checked += 1
    assert checked > 10


def _renamed(s, labels):
    return Substitution(tuple(map(labels.get, s.alphabet)),
                        tuple(tuple(map(labels.get, img)) for img in s.images))


def _outcome(f, *args):
    try:
        return f(*args)
    except (WindowTooShort, ValueError) as exc:
        return type(exc)


RENAMINGS = [(FIBONACCI, {"a": "aa", "b": "bb"}),
             (THUE_MORSE, {"a": "a", "b": "bc"}),
             (CHACON, {"0": "0", "s": "ss", "1": "1x"})]


@st.composite
def renamings(draw):
    """A substitution and a renaming of its letters to distinct labels,
    some of them several characters long."""
    if draw(st.booleans()):
        return draw(st.sampled_from(RENAMINGS))
    s = draw(substitutions(max_letters=3, max_image=3))
    suffixes = st.sampled_from(["", "x", "yz"])
    return s, {a: a + draw(suffixes) for a in s.alphabet}


@settings(max_examples=60, deadline=None)
@given(renamings(), st.integers(0, 200), st.integers(4, 32), st.integers(1, 3),
       st.data())
@example(RENAMINGS[0], 98, 32, 3, None)
@example(RENAMINGS[1], 14, 32, 3, None)
def test_multi_character_letters_parse_as_their_renaming(
        renaming, start, radius, depth, data):
    # parsing commutes with renaming letters: a label of several characters
    # is still one letter, and every position counts letters
    s, labels = renaming
    t = _renamed(s, labels)

    def rename(word):
        return tuple(map(labels.get, word))

    def rename_tiling(x):
        return Tiling(rename(x.parent), x.offset, x.length, x.boundary, x.cuts)

    text = (s.alphabet[0],)
    for _ in range(12):
        if len(text) >= start + 2 * radius + 1:
            break
        text = expand(s, text, 1)
    window = text[start:start + 2 * radius + 1] or text[-2 * radius - 1:]
    assert ([rename_tiling(x) for x in one_word_tilings(s, window)]
            == one_word_tilings(t, rename(window)))
    parse = _outcome(recognize_window, s, window, depth)
    if isinstance(parse, ParseChain):
        parse = ParseChain(rename(parse.base), tuple(
            ChainLevel(rename(l.parent), l.bounds) for l in parse.levels))
    elif isinstance(parse, AmbiguityReport):
        parse = AmbiguityReport(parse.level,
                                tuple(map(rename_tiling, parse.tilings)),
                                parse.interior, parse.note)
    assert _outcome(recognize_window, t, rename(window), depth) == parse
    marker = len(window) // 2 if data is None else data.draw(
        st.integers(0, len(window)))
    assert (core_membership(t, Word(rename(window), marker), depth)
            == core_membership(s, Word(window, marker), depth))


def _result(f, *args):
    try:
        return f(*args)
    except (WindowTooShort, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(renamings(), st.integers(0, 200), st.integers(2, 32), st.integers(1, 3),
       st.sampled_from([1, 3, 1000]))
def test_encoded_chains_match_record_chain_engine(renaming, start, radius,
                                                  depth, budget):
    # every field of every result, on a substitution and on its renaming
    s, labels = renaming
    text = (s.alphabet[0],)
    for _ in range(12):
        if len(text) >= start + 2 * radius + 1:
            break
        text = expand(s, text, 1)
    window = text[start:start + 2 * radius + 1] or text[-2 * radius - 1:]
    t = _renamed(s, labels)
    for sub, w in ((s, window), (t, tuple(map(labels.get, window)))):
        assert (_result(recognize_window, sub, w, depth, budget)
                == _result(record_chain_recognize_window, sub, w, depth,
                           budget))


@pytest.mark.parametrize("s", ORACLE_PANEL.values(), ids=ORACLE_PANEL.keys())
def test_encoded_chains_match_record_chain_engine_on_panel(s):
    # unique chains, reports at every level up to 4, windows too short, and
    # (Chacon at depth 4) a level that keeps no tile before the last one
    rng = random.Random(11)
    text = expand(s, (s.alphabet[0],), 1)
    while len(text) < 3_000:
        text = expand(s, text, 1)
    cases = []
    for length in (17, 33, 65, 129):
        for _ in range(12):
            i = rng.randrange(len(text) - length)
            cases.append((text[i:i + length], rng.randint(1, 4)))
    if s is FIBONACCI:
        cases.append((expand(s, "a", 12)[166:231], 3))
    if s is CHACON:
        cases.append((tuple("0s00s0s00s000s0s00s000s000s0s00s000s000"), 4))
    for w, depth in cases:
        assert (_result(recognize_window, s, w, depth)
                == _result(record_chain_recognize_window, s, w, depth))
