"""Desubstitution of finite windows.

A window (a factor of the subshift, seen through a finite frame) is tiled by
one-letter images sigma(a); the two end tiles may be clipped.  Iterating the
tiling on the interior that survives end effects realizes recognizability at
desk scale: genuine aperiodic inputs produce a unique parse chain, periodic
ones an ambiguity report.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import inf

from ._record import record
from .errors import WindowTooShort
from .words import (
    Substitution,
    as_letters,
    expand,
    expansion_lengths,
    factor_language,
    norms,
)

# ---------------------------------------------------------------------------
# tilings


@record(frozen=True)
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


def _tile_boundaries(s: Substitution, parent, offset):
    """Tile boundary positions in window coordinates; first entry <= 0."""
    images = map(s.images.__getitem__, map(s._index.__getitem__, parent))
    return list(accumulate(map(len, images), initial=-offset))


@lru_cache(maxsize=64)
def _walk_tables(s: Substitution):
    """Encoded images by encoded letter, (letter, image) pairs by the first
    letter of the image, and the encoded factor_language(s, 8), or None
    when every image has length 1."""
    images = dict(zip(s.encode(s.alphabet), s._images_enc))
    starting = {c: [(a, img) for a, img in images.items() if img[0] == c]
                for c in images}
    short = (factor_language(s, _SHORT).encoded
             if max(map(len, images.values())) > 1 else None)
    return images, starting, short


@lru_cache(maxsize=1 << 12)
def _tiling_walk(s: Substitution, word: str, interior_only: bool,
                 budgeted: bool):
    """Every (encoded parent, offset) tiling of the encoded word by images,
    as a frozenset; see one_word_tilings for the two modes.

    The walk extends partial covers with an explicit stack, so long words
    never meet the recursion limit.  A budgeted walk returns None when it
    pops more than _POPS_PER_LETTER * |word| partial covers or finds more
    than |word| parents: runs of equal one-letter images multiply the
    tilings.  A partial cover is pushed only when its parent's last 8
    letters lie in the language (unless every image has length 1), as
    every parent the callers keep does.
    """
    n = len(word)
    images, starting, short = _walk_tables(s)
    found: set[tuple[str, int]] = set()
    budget = _POPS_PER_LETTER * n if budgeted else inf

    # partial covers (next position, encoded parent, offset in first tile)
    if interior_only:
        stack = [(0, "", 0)]
    else:
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
    # exact middle tiles, then an exact or (unless interior_only) clipped
    # last tile
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
            elif not interior_only and end > n and img.startswith(word[pos:]):
                found.add((parent + a, offset))
    if budgeted and len(found) > n:
        return None
    return frozenset(found)


@lru_cache(maxsize=1 << 14)
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
    letter a level (a -> ab, b -> b on a b^k).
    """
    short = factor_language(s, _SHORT).encoded
    answers: dict[str, bool] = {}
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
                found = _tiling_walk(s, w, False, True)
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


def one_word_tilings(s: Substitution, window, interior_only: bool = False):
    """All tilings of the window by {sigma(a)}; clipped end tiles are allowed
    unless interior_only, which demands an exact cover (offset 0, exact end).

    Parents are kept only when they lie in the factor language, which
    _parent_in_language decides by desubstituting them in turn -- except
    when the substitution never expands (max norm 1), where the language
    contains no multi-letter words and the check is meaningless.  The walk
    runs on the encoded window with an explicit stack (long windows never
    meet the recursion limit) and is cached, so the walk that decided a
    parent's membership also tiles that parent at the next level.
    Result order: (first cut position, parent in alphabet indices); the
    encoded parents sort in that order, as codes follow the alphabet.
    """
    word = s.encode(as_letters(s, window))
    n = len(word)
    if n == 0:
        raise ValueError("window must be nonempty")
    found = _tiling_walk(s, word, interior_only, True)
    if found is None:
        found = _tiling_walk(s, word, interior_only, False)
    images, _, short = _walk_tables(s)
    if short is not None:
        found = {(p, off) for (p, off) in found if _parent_in_language(s, p)}

    tilings = []
    for parent, offset in sorted(
            found, key=lambda f: (len(images[f[0][0]]) - f[1], f[0])):
        letters = s.decode(parent)
        bounds = _tile_boundaries(s, letters, offset)
        cuts = tuple(b for b in bounds if 0 <= b <= n)
        left = min(bounds[1], n) - max(bounds[0], 0)
        right = min(bounds[-1], n) - max(bounds[-2], 0)
        tilings.append(Tiling(letters, offset, n, (left, right), cuts))
    return tilings


# ---------------------------------------------------------------------------
# recognizability


@record(frozen=True)
class ChainLevel:
    """One desubstitution level: `parent` is the agreed word of level tiles
    meeting the clipped interior; `bounds` gives each tile boundary in base
    window coordinates, None where the boundary lies beyond the frame."""
    parent: tuple[str, ...]
    bounds: tuple

    @property
    def offset(self):
        """Base coordinate where the level expansion begins (None when the
        first tile starts left of the frame)."""
        return self.bounds[0]


@record(frozen=True)
class ParseChain:
    base: tuple[str, ...]
    levels: tuple[ChainLevel, ...]

    def windows(self):
        """The base window followed by the parent word of each level."""
        return (self.base,) + tuple(l.parent for l in self.levels)


@record(frozen=True)
class AmbiguityReport:
    """The surviving parse chains disagree on the interior (or none exist):
    evidence of periodicity or an insufficient radius."""
    level: int
    tilings: tuple[Tiling, ...]
    interior: tuple[int, int]
    note: str = ""


def _letter_forced(s: Substitution, visible: str, left_hidden: bool,
                   right_hidden: bool) -> bool:
    """Is the letter of a partially visible tile forced by its visible part?

    `visible` is the observed fragment of the tile's image; a hidden side
    means at least one image letter continues beyond the known region there.
    """
    if not visible:
        return False
    fits = 0
    for a in s.alphabet:
        img = "".join(s.image(a))
        if left_hidden and right_hidden:
            ok = len(img) > len(visible) + 1 and visible in img[1:-1]
        elif left_hidden:
            ok = len(img) > len(visible) and img.endswith(visible)
        else:
            ok = len(img) > len(visible) and img.startswith(visible)
        if ok:
            fits += 1
            if fits > 1:
                return False
    return fits == 1


def _annotate_chain(s: Substitution, chain, base, unit):
    """Per-level trace of one chain of tilings, in base coordinates.

    Returns a list of (cuts, tiles) per level, where cuts are the boundary
    positions surviving the level's clip and tiles are (start, end, letter)
    triples kept for the next level -- fully located tiles meeting the
    clipped interior, plus boundary-straddling tiles whose letter the
    visible fragment forces.  Unknown coordinates are None.
    """
    length = len(base)
    trace = []
    prev_word = "".join(base)        # word the current level retiles
    prev_bounds = list(range(length + 1))   # letter index -> base coordinate
    kept_lo, kept_hi = 0, length     # boundary-index clamp from kept tiles
    for level, t in enumerate(chain, start=1):
        lb = _tile_boundaries(s, t.parent, t.offset)
        bb = [prev_bounds[p] if kept_lo <= p <= kept_hi else None
              for p in lb]
        lo, hi = unit * level, length - unit * level
        cuts = tuple(b for b in bb if b is not None and lo <= b <= hi)
        tiles = []
        kept_idx = []
        for j, a in enumerate(t.parent):
            b, e = bb[j], bb[j + 1]
            if (b is not None and b > hi) or (e is not None and e < lo):
                continue
            # a tile reaching past the known letters is kept only when its
            # visible fragment forces the letter
            left_hidden = lb[j] < kept_lo
            right_hidden = lb[j + 1] > kept_hi
            if left_hidden or right_hidden:
                p, q = max(lb[j], kept_lo), min(lb[j + 1], kept_hi)
                visible = prev_word[p:q]
                if not _letter_forced(s, visible, left_hidden, right_hidden):
                    continue
            tiles.append((b, e, a))
            kept_idx.append(j)
        if kept_idx and kept_idx != list(range(kept_idx[0], kept_idx[-1] + 1)):
            raise AssertionError("kept tiles must form a contiguous run")
        trace.append((cuts, tuple(tiles)))
        prev_word = "".join(t.parent)
        prev_bounds = bb
        if kept_idx:
            kept_lo, kept_hi = kept_idx[0], kept_idx[-1] + 1
        else:
            kept_lo, kept_hi = 0, -1     # nothing located: starve next level
    return trace


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
    mnorm = norms(s, 1)[1]
    unit = mnorm if mnorm >= 2 else 0
    if unit and n * unit > length - n * unit:
        raise WindowTooShort(
            f"window length {length} cannot survive {n} rounds of clipping "
            f"{unit} per end")

    chains = [[]]
    for level in range(1, n + 1):
        interior = (unit * level, length - unit * level)
        extended = []
        for chain in chains:
            word = base if not chain else chain[-1].parent
            for t in one_word_tilings(s, word, interior_only=False):
                extended.append(chain + [t])
            if len(extended) > chain_budget:
                return AmbiguityReport(level, (), interior,
                                       "chain budget exceeded")
        if not extended:
            return AmbiguityReport(level, (), interior,
                                   "no tilings at all: not a language window")
        chains = extended

    traces = [tuple(_annotate_chain(s, chain, base, unit)) for chain in chains]
    if any(tr != traces[0] for tr in traces[1:]):
        level = next(
            k + 1 for k in range(n)
            if any(tr[k] != traces[0][k] for tr in traces[1:]))
        level_tilings = sorted(
            {chain[level - 1] for chain in chains},
            key=lambda t: (len(s.image(t.parent[0])) - t.offset, t.parent))
        return AmbiguityReport(level, tuple(level_tilings),
                               (unit * level, length - unit * level),
                               "chains disagree on the interior")

    levels = []
    for (cuts, tiles) in traces[0]:
        if not tiles:
            raise WindowTooShort(
                "no level tile meets the clipped interior; enlarge the radius")
        parent = tuple(a for _, _, a in tiles)
        bounds = (tiles[0][0],) + tuple(e for _, e, _ in tiles)
        levels.append(ChainLevel(parent, bounds))
    return ParseChain(base, tuple(levels))


def chain_cut_positions(chain: ParseChain, level: int):
    """Level tile boundaries in base coordinates (None beyond the frame)."""
    if not 1 <= level <= len(chain.levels):
        raise ValueError("level out of range")
    return chain.levels[level - 1].bounds


# ---------------------------------------------------------------------------
# tower bookkeeping


@record
class TowerTable:
    """Heights |sigma^n(a)| of the level-n tower over each letter whose
    cylinder is nonempty (the letter occurs in the language)."""
    heights: dict[str, int]
    level: int


def kr_tower_heights(s: Substitution, n: int) -> TowerTable:
    if n < 0:
        raise ValueError("level must be >= 0")
    lang = factor_language(s, 3)
    lengths = expansion_lengths(s, n)
    return TowerTable({a: lengths[a] for a in s.alphabet if (a,) in lang}, n)
