"""Desubstitution of finite windows.

A window (a factor of the subshift, seen through a finite frame) is tiled by
one-letter images sigma(a); the two end tiles may be clipped.  Iterating the
tiling on the interior that survives end effects realizes recognizability at
desk scale: genuine aperiodic inputs produce a unique parse chain, periodic
ones an ambiguity report.

recognize_window tiles the base window once, through one_word_tilings.
Deeper levels stay encoded: a chain is a tuple of the (encoded parent,
offset) pairs of the cached walk, retiled and annotated as the walk gave
them; Tiling records of a deeper level are built only for a report.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from math import inf

from ._record import record
from .errors import WindowTooShort
from .words import (
    Substitution,
    Word,
    as_letters,
    expand,
    factor_language,
)

# ---------------------------------------------------------------------------
# tilings


@record
class Tiling:
    """One way to cover a window with images sigma(a).

    parent: the letters whose images tile the window, left to right.
    offset: position of the window start inside sigma(parent[0]); always
        0 <= offset < |sigma(parent[0])|.
    length: window length.
    boundary: visible lengths of the first and last tiles (the full image
        lengths when nothing is clipped; equal entries for a one-tile cover).
    cuts: tile boundary positions inside [0, length]; 0 and length appear
        exactly when a window edge coincides with a tile boundary.
    """

    parent: tuple[str, ...]
    offset: int
    length: int
    boundary: tuple[int, int]
    cuts: tuple[int, ...]

    def reconstruct(self, s: Substitution) -> tuple[str, ...]:
        """Concatenate the clipped images back into the window."""
        full = expand(s, self.parent, 1)
        return full[self.offset:self.offset + self.length]


_SHORT = 8             # words this long or shorter: factor_language(s, 8)
_POPS_PER_LETTER = 16  # walk budget: partial covers popped per word letter


def _tile_boundaries(lengths, parent: str, offset):
    """Tile boundary positions in window coordinates of the encoded parent,
    by the image lengths of _walk_tables; first entry <= 0."""
    return list(accumulate(map(lengths.__getitem__, parent), initial=-offset))


@lru_cache(maxsize=64)
def _walk_tables(s: Substitution):
    """Encoded images by encoded letter, (letter, image) pairs by the first
    letter of the image, the encoded factor_language(s, 8), or None when
    every image has length 1, and image lengths by encoded letter."""
    images = dict(zip(s.encode(s.alphabet), s._images_enc))
    starting = {c: [(a, img) for a, img in images.items() if img[0] == c]
                for c in images}
    lengths = {c: len(img) for c, img in images.items()}
    short = (factor_language(s, _SHORT).encoded
             if max(lengths.values()) > 1 else None)
    return images, starting, short, lengths


@lru_cache(maxsize=1 << 12)
def _tiling_walk(s: Substitution, word: str, budgeted: bool):
    """Every (encoded parent, offset) tiling of the encoded word by images,
    the end tiles possibly clipped, as a frozenset.

    The walk extends partial covers with an explicit stack, so long words
    never meet the recursion limit.  A budgeted walk returns None when it
    pops more than _POPS_PER_LETTER * |word| partial covers or finds more
    than |word| parents: runs of equal one-letter images multiply the
    tilings.  A partial cover is pushed only when its parent's last 8
    letters lie in the language (unless every image has length 1), as
    every parent the callers keep does.
    """
    n = len(word)
    images, starting, short, _ = _walk_tables(s)
    found: set[tuple[str, int]] = set()
    budget = _POPS_PER_LETTER * n if budgeted else inf

    # partial covers (next position, encoded parent, offset in first tile)
    stack = []
    for a, img in images.items():
        for offset in range(len(img)):
            k = len(img) - offset
            if k >= n:
                # single-tile cover: the word sits inside one image
                if img.startswith(word, offset):
                    found.add((a, offset))
            elif word.startswith(img[offset:]):
                stack.append((k, a, offset))
    # exact middle tiles, then an exact or clipped last tile
    while stack:
        budget -= 1
        if budget < 0:
            return None
        pos, parent, offset = stack.pop()
        for a, img in starting[word[pos]]:
            end = pos + len(img)
            if word.startswith(img, pos):
                if end >= n:
                    found.add((parent + a, offset))
                elif short is None or (parent + a)[-_SHORT:] in short:
                    stack.append((end, parent + a, offset))
            elif end > n and img.startswith(word[pos:]):
                found.add((parent + a, offset))
    if budgeted and len(found) > n:
        return None
    return frozenset(found)


@lru_cache(maxsize=16)
def _answers(s: Substitution) -> dict[str, bool]:
    """The words _parent_in_language decided for s, at most 1 << 14."""
    return {}


def _parent_in_language(s: Substitution, enc: str) -> bool:
    """Is the encoded word a factor of some sigma^n(a), n >= 1 (the language
    of factor_language)?  Answered by desubstitution, without building the
    language at the word's length.

    A word of at most 8 letters is looked up in factor_language(s, 8), and
    so are the first and last 8 letters of a longer word.  A longer word w
    lies in the language iff one of its minimal clipped
    parents u (the tiles of the clipped walk that meet w) is a single letter
    or lies in the language itself: if w is a factor of sigma^n(a), the
    tiles of sigma^n(a) = sigma(sigma^(n-1)(a)) meeting w read a factor of
    sigma^(n-1)(a), a letter when n = 1.  Parents are shorter than w unless
    every tile shows one letter; then, and when the budgeted walk gives up,
    w is looked up in the language at the next multiple of 8 above |w|.
    Parents are decided with an explicit stack, as they may shrink by one
    letter a level (a -> ab, b -> b on a b^k), and every word decided on
    the way is kept, so a parent at the next level is found decided.
    """
    answers = _answers(s)
    if enc in answers:
        return answers[enc]
    if len(answers) > 1 << 14:
        answers.clear()
    short = factor_language(s, _SHORT).encoded
    parents: dict[str, tuple[str, ...]] = {}
    stack = [enc]
    while stack:
        w = stack[-1]
        if w not in parents:
            if len(w) <= _SHORT:
                answers[w] = w in short
            elif w[:_SHORT] not in short or w[-_SHORT:] not in short:
                answers[w] = False     # the language is closed under factors
            else:
                found = _tiling_walk(s, w, True)
                if found is None or any(len(p) >= len(w) for p, _ in found):
                    cap = -(-len(w) // _SHORT) * _SHORT
                    answers[w] = w in factor_language(s, cap).encoded
                elif any(len(p) == 1 for p, _ in found):
                    answers[w] = True
                else:
                    parents[w] = tuple(sorted({p for p, _ in found}))
            if w in answers:
                stack.pop()
                continue
        # w holds iff one of its parents does; decide them one at a time
        if any(answers.get(p) for p in parents[w]):
            answers[w] = True
        else:
            undecided = next((p for p in parents[w] if p not in answers), None)
            if undecided is not None:
                stack.append(undecided)
                continue
            answers[w] = False
        stack.pop()
    return answers[enc]


def _tilings(s: Substitution, word: str):
    """The (encoded parent, offset) tilings of the encoded word whose parents
    lie in the language, in one_word_tilings' order."""
    found = _tiling_walk(s, word, True)
    if found is None:
        found = _tiling_walk(s, word, False)
    _, _, short, lengths = _walk_tables(s)
    if short is not None:
        found = [f for f in found if _parent_in_language(s, f[0])]
    return sorted(found, key=lambda f: (lengths[f[0][0]] - f[1], f[0]))


def _tiling(s: Substitution, lengths, parent: str, offset: int, n: int):
    """The Tiling of a word of n letters by the encoded parent at offset."""
    bounds = _tile_boundaries(lengths, parent, offset)
    cuts = tuple(bounds[bisect_left(bounds, 0):bisect_right(bounds, n)])
    left = min(bounds[1], n) - max(bounds[0], 0)
    right = min(bounds[-1], n) - max(bounds[-2], 0)
    return Tiling(s.decode(parent), offset, n, (left, right), cuts)


def one_word_tilings(s: Substitution, window, interior_only: bool = False):
    """All tilings of the window by {sigma(a)}; clipped end tiles are allowed
    unless interior_only, which keeps the exact covers: the clipped covers
    with offset 0 whose last tile ends at the window's end.

    Parents are kept only when they lie in the factor language, which
    _parent_in_language decides by desubstituting them in turn -- except
    when the substitution never expands (max norm 1), where the language
    contains no multi-letter words and the check is meaningless.  Result
    order: (first cut position, parent in alphabet indices).
    """
    word = s.encode(window.letters if isinstance(window, Word) else window)
    if not word:
        raise ValueError("window must be nonempty")
    n, lengths = len(word), _walk_tables(s)[3]
    tilings = [_tiling(s, lengths, parent, offset, n)
               for parent, offset in _tilings(s, word)]
    if interior_only:
        return [t for t in tilings if t.offset == 0 and t.cuts[-1] == n]
    return tilings


# ---------------------------------------------------------------------------
# recognizability


@record
class ChainLevel:
    """One desubstitution level: `parent` is the agreed word of level tiles
    meeting the clipped interior; `bounds` gives each tile boundary in base
    window coordinates, None where the boundary lies beyond the frame."""
    parent: tuple[str, ...]
    bounds: tuple


@record
class ParseChain:
    base: tuple[str, ...]
    levels: tuple[ChainLevel, ...]


@record
class AmbiguityReport:
    """The surviving parse chains disagree on the interior (or none exist):
    evidence of periodicity or an insufficient radius."""
    level: int
    tilings: tuple[Tiling, ...]
    interior: tuple[int, int]
    note: str = ""


def _letter_forced(images, visible: str, left_hidden: bool,
                   right_hidden: bool) -> bool:
    """Is the letter of a partially visible tile forced by `visible`, the
    observed fragment of its encoded image (`images` by _walk_tables)?  A
    hidden side: an image letter continues beyond the known region there."""
    both = left_hidden and right_hidden
    fits = [g for g in images.values() if len(g) > len(visible) + both and (
        visible in g[1:-1] if both else
        g.endswith(visible) if left_hidden else g.startswith(visible))]
    return len(visible) > 0 and len(fits) == 1


def _annotate_chain(images, lengths, chain, base: str, unit):
    """Per-level trace of an encoded chain of (parent, offset) tilings of the
    encoded base, by the tables of _walk_tables: the level's cuts in base
    coordinates that survive its clip, and the bounds (None where unknown)
    and letters of the run kept for the next level: located tiles meeting
    the clipped interior, and end tiles past the known letters whose
    fragment forces the letter.  Boundaries increase, so with -inf and inf
    for unknown ones cuts and run are bisected out.  A level that keeps no
    tile starves every later one: they read ((), (), "")."""
    length, trace = len(base), []
    # the letters kept last, their bounds, where they start in the parent
    word, at, shift, end = base, range(length + 1), 0, length
    for level, (parent, offset) in enumerate(chain, start=1):
        lb = _tile_boundaries(lengths, parent, offset + shift)
        lo, hi = unit * level, length - unit * level
        i, k = bisect_left(lb, 0), bisect_right(lb, end)
        bb = (lb[i:k] if level == 1 else     # base coordinates already
              list(map(at.__getitem__, lb[i:k])))
        a, b = bisect_left(bb, lo), bisect_right(bb, hi)
        cuts = tuple(bb[a:b])
        first, last = max(i + a - 1, 0), min(i + b, len(parent)) - 1
        if first <= last and first < i and not _letter_forced(
                images, word[:lb[first + 1]], True, first + 1 >= k):
            first += 1
        if first <= last and last + 1 >= k and not _letter_forced(
                images, word[max(lb[last], 0):], last < i, True):
            last -= 1
        if first > last:     # no tile kept: every later level starves
            return (*trace, (cuts, (), ""),
                    *[((), (), "")] * (len(chain) - level))
        at = ([-inf] * (first < i) + bb[max(first - i, 0):last + 2 - i]
              + [inf] * (last + 1 >= k))
        bounds = (None if at[0] == -inf else at[0], *at[1:-1],
                  None if at[-1] == inf else at[-1])
        word, shift, end = parent[first:last + 1], first, last + 1 - first
        trace.append((cuts, bounds, word))
    return tuple(trace)


def recognize_window(s: Substitution, window, n: int, chain_budget: int = 1000):
    """Parse the window n levels deep.

    All candidate chains of tilings (one tiling per level, each retiling the
    previous level's full parent word) are compared level by level in base
    coordinates.  At level k the frame loses k * (max norm) letters per end
    -- the reach of end effects -- or nothing at all when every image is a
    single letter, so no tile can straddle the frame.  Chains must agree on
    the surviving cut positions and on the kept tiles; the kept tiles of the
    first chain form the ParseChain, and disagreement yields an
    AmbiguityReport.
    """
    if n < 1:
        raise ValueError("levels must be >= 1")
    base = as_letters(s, window)
    length = len(base)
    mnorm = max(map(len, s.images))
    unit = mnorm if mnorm >= 2 else 0
    if unit and n * unit > length - n * unit:
        raise WindowTooShort(
            f"window length {length} cannot survive {n} rounds of clipping "
            f"{unit} per end")

    tilings, encoded = one_word_tilings(s, base), s.encode(base)
    first = dict(zip(_tilings(s, encoded), tilings))
    chains = [()]
    for level in range(1, n + 1):
        interior = (unit * level, length - unit * level)
        extended = []
        for chain in chains:
            extended += [chain + (pair,) for pair in
                         (_tilings(s, chain[-1][0]) if chain else first)]
            if len(extended) > chain_budget:
                return AmbiguityReport(level, (), interior,
                                       "chain budget exceeded")
        if not extended:
            return AmbiguityReport(level, (), interior,
                                   "no tilings at all: not a language window")
        chains = extended

    images, _, _, lengths = _walk_tables(s)
    traces = [_annotate_chain(images, lengths, chain, encoded, unit)
              for chain in chains]
    level = next((k + 1 for k in range(n)
                  if any(tr[k] != traces[0][k] for tr in traces)), None)
    if level is not None:
        level_tilings = sorted(
            {first[c[0]] if level == 1 else
             _tiling(s, lengths, *c[level - 1], len(c[level - 2][0]))
             for c in chains},
            key=lambda t: (len(s.image(t.parent[0])) - t.offset, t.parent))
        return AmbiguityReport(level, tuple(level_tilings),
                               (unit * level, length - unit * level),
                               "chains disagree on the interior")

    levels = []
    for _, bounds, letters in traces[0]:
        if not letters:
            raise WindowTooShort(
                "no level tile meets the clipped interior; enlarge the radius")
        levels.append(ChainLevel(s.decode(letters), bounds))
    return ParseChain(base, tuple(levels))
