"""Shared hypothesis strategies and fixed sample substitutions."""

from hypothesis import strategies as st

from adicshift import (StationaryOrderedDiagram, Substitution,
                       parse_substitution)

CHACON = parse_substitution("0 -> 00s0\ns -> s\n1 -> 0110")
THUE_MORSE = parse_substitution("a -> ab\nb -> ba")
FIBONACCI = parse_substitution("a -> ab\nb -> a")
IDENTITY = parse_substitution("a -> a")
DOUBLING = parse_substitution("a -> aa")
TWO_BLOCK = parse_substitution(
    "a -> ab\nb -> ba\nc -> cd\nd -> dc\ne -> ae")

LETTERS = "abcde"


@st.composite
def substitutions(draw, max_letters=5, max_image=5):
    """Random substitution: alphabet a prefix of 'abcde', each image a
    nonempty word over the whole alphabet."""
    k = draw(st.integers(1, max_letters))
    alphabet = LETTERS[:k]
    images = tuple(
        tuple(draw(st.lists(st.sampled_from(alphabet), min_size=1,
                            max_size=max_image)))
        for _ in range(k))
    return Substitution(tuple(alphabet), images)


@st.composite
def with_short_letters(draw, max_long=3, max_image=5):
    """Random substitution on long-letter names 'a', 'b', ... plus short
    letters that the images may use: s -> s, or s -> t; t -> s."""
    shorts = draw(st.sampled_from((("s",), ("s", "t"))))
    alphabet = tuple(LETTERS[:draw(st.integers(1, max_long))]) + shorts
    images = tuple(
        tuple(draw(st.lists(st.sampled_from(alphabet), min_size=1,
                            max_size=max_image)))
        for _ in alphabet[:-len(shorts)])
    return Substitution(alphabet, images + tuple(
        (b,) for b in shorts[1:] + shorts[:1]))


@st.composite
def chacon_like(draw):
    """Chacon-like substitution in the shape of perfbench's panel: s -> s
    plus two or three long letters whose images have 3 to 5 letters,
    start and end with a long letter and never hold two s in a row."""
    longs = "abc"[:draw(st.integers(2, 3))]
    images = []
    for _ in longs:
        size = draw(st.integers(3, 5))
        word = [draw(st.sampled_from(longs))]
        while len(word) < size - 1:
            word.append(draw(st.sampled_from(
                longs if word[-1] == "s" else longs + "s")))
        word.append(draw(st.sampled_from(longs)))
        images.append(tuple(word))
    return Substitution(tuple(longs) + ("s",), tuple(images) + (("s",),))


@st.composite
def stationary_diagrams(draw, max_letters=3, max_image=3, max_top=3):
    """Random stationary ordered diagram: the read rule a random
    substitution, each top count between 1 and max_top."""
    s = draw(substitutions(max_letters, max_image))
    tops = tuple(draw(st.integers(1, max_top)) for _ in s.alphabet)
    return StationaryOrderedDiagram(s.alphabet, s.images, tops)


@st.composite
def words_over(draw, s, max_len=6):
    return tuple(draw(st.lists(st.sampled_from(s.alphabet), min_size=1,
                               max_size=max_len)))


@st.composite
def ordered_diagrams(draw, max_depth=5, max_width=2, max_edges=2):
    """Random valid ordered diagram: every vertex below the top has >= 1
    incoming edge, every vertex above the bottom >= 1 outgoing edge."""
    from adicshift import OrderedDiagram

    depth = draw(st.integers(1, max_depth))
    levels = [("top",)]
    for k in range(1, depth + 1):
        width = draw(st.integers(1, max_width))
        levels.append(tuple(f"{LETTERS[j]}{k}" for j in range(width)))
    incoming = [()]
    for k in range(1, depth + 1):
        above = levels[k - 1]
        rows = [list(draw(st.lists(st.sampled_from(above), min_size=1,
                                   max_size=max_edges)))
                for _ in levels[k]]
        for v in above:
            if not any(v in row for row in rows):
                rows[draw(st.integers(0, len(rows) - 1))].append(v)
        incoming.append(tuple(tuple(row) for row in rows))
    return OrderedDiagram(tuple(levels), tuple(incoming))
