"""Explicit phase-space windows: junction seeds and their two-sided limit
windows, nested occurrence chains with the origin-offset recurrence, and the
origin-alignment check for membership in iterated images.

Everything here is a finite window onto a limit object; windows are marked
Words whose marker is the origin.
"""

from __future__ import annotations

from math import lcm

from ._record import record
from .errors import AlphabetError, InsufficientGrowth, ShortLettersPresent
from .recognize import _tile_boundaries, one_word_tilings
from .words import (
    Substitution,
    Word,
    _cycle,
    classify_letters,
    expand,
    expansion_lengths,
    factor_language,
)

# ---------------------------------------------------------------------------
# junction seeds


@record(frozen=True)
class LambdaSeed:
    """An adjacent letter pair whose facing ends reproduce: after `period`
    applications the left image ends in the left letter and the right image
    starts with the right letter, so iterating glues into a two-sided limit
    word with the origin at the junction."""

    left: str
    right: str
    period: int


def lambda_seeds(s: Substitution) -> list[LambdaSeed]:
    """All seeds (a, b) with ab in the language, each at its least period.

    The last letter of sigma^p(a) is the p-fold end-letter map applied to a
    (and dually for first letters), so a pair reproduces exactly when a lies
    on a cycle of the end-letter map and b on one of the first-letter map,
    and its least period is the lcm of the two cycle lengths.
    """
    short = classify_letters(s).short
    if short:
        raise ShortLettersPresent(
            f"letters {short} stay bounded, so the limit windows here "
            f"are not defined")
    lang = factor_language(s, 2)
    last = {a: s.image(a)[-1] for a in s.alphabet}
    first = {a: s.image(a)[0] for a in s.alphabet}
    lefts = [(a, len(c)) for a in s.alphabet if (c := _cycle(last, a))]
    rights = [(b, len(c)) for b in s.alphabet if (c := _cycle(first, b))]
    return [LambdaSeed(a, b, lcm(p, q)) for a, p in lefts for b, q in rights
            if (a, b) in lang]


def lambda_window(s: Substitution, seed: LambdaSeed, radius: int,
                  depth: int | None = None) -> Word:
    """The radius window around the junction of the seed's limit word: the
    last `radius` letters of the expanded left letter, the origin marker,
    then the first `radius` letters of the expanded right letter.

    Expansion goes `depth` rounds of `period` applications; by default the
    least depth at which both sides reach the radius.  Larger depths give
    the same window, since each round extends the sides outward only.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if depth is None:
        depth = 1
        while True:
            lengths = expansion_lengths(s, seed.period * depth)
            if min(lengths[seed.left], lengths[seed.right]) >= radius:
                break
            depth += 1
    left = expand(s, (seed.left,), seed.period * depth)
    right = expand(s, (seed.right,), seed.period * depth)
    if min(len(left), len(right)) < radius:
        raise InsufficientGrowth(
            f"depth {depth} gives sides {len(left)}/{len(right)}, "
            f"radius {radius} needs more")
    return Word(left[-radius:] + right[:radius], radius)


# ---------------------------------------------------------------------------
# nested occurrence chains


@record(frozen=True)
class ChainPrefix:
    """A nested occurrence chain ((a0, 0), (a1, i1), ..., (an, in)): the
    letter a_{k-1} occurs at position i_k of the image of a_k, so each
    sigma^k(a_k) contains sigma^{k-1}(a_{k-1}) one level further in."""

    sub: Substitution
    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((a, int(i)) for a, i in self.entries))
        if not self.entries:
            raise ValueError("chain needs at least the level-0 entry")
        if self.entries[0][1] != 0:
            raise ValueError("the level-0 position must be 0")
        for a, _ in self.entries:
            if a not in self.sub.alphabet:
                raise AlphabetError(
                    f"letter {a!r} not in alphabet {self.sub.alphabet}")
        for (prev, _), (a, i) in zip(self.entries, self.entries[1:]):
            img = self.sub.image(a)
            if not 0 <= i < len(img) or img[i] != prev:
                raise ValueError(
                    f"{prev!r} does not occur at position {i} of the "
                    f"image of {a!r}")

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def cuts(self) -> tuple[int, ...]:
        """Origin offsets j_k inside sigma^k(a_k): each level adds the
        expanded lengths of the image letters left of the occurrence, so
        with all positions 0 every offset stays 0."""
        out = [0]
        for k, (a, i) in enumerate(self.entries[1:], start=1):
            lengths = expansion_lengths(self.sub, k - 1)
            out.append(out[-1]
                       + sum(lengths[b] for b in self.sub.image(a)[:i]))
        return tuple(out)


def m0_window(s: Substitution, chain: ChainPrefix, radius: int) -> Word:
    """The radius window of the chain's deepest expansion around its origin.

    The origin sits j_n letters into sigma^n(a_n); both sides must reach
    the radius at this depth, otherwise the chain is not yet deep enough.
    Deeper extensions of the chain reproduce the window unchanged.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    a_n = chain.entries[-1][0]
    j_n = chain.cuts()[-1]
    total = expansion_lengths(s, chain.depth)[a_n]
    if j_n < radius or total - j_n < radius:
        raise InsufficientGrowth(
            f"origin at offset {j_n} of {total}: radius {radius} needs a "
            f"deeper chain")
    word = expand(s, (a_n,), chain.depth)
    return Word(word[j_n - radius: j_n + radius], radius)


# ---------------------------------------------------------------------------
# membership in iterated images


@record(frozen=True)
class CoreCheck:
    """Outcome of the origin-alignment scan: `consistent` means every level
    up to `depth` admits a parse whose cuts hit the marker -- a necessary
    condition for the marked point to lie in the n-fold image, never a
    certificate.  `refuted_at` is the first level with no aligned parse."""

    consistent: bool
    depth: int
    refuted_at: int | None = None


def core_membership(s: Substitution, window: Word, n: int) -> CoreCheck:
    """Check the marker can sit on an image boundary through n parse levels.

    A marked point in the n-fold image of the shift space has its origin on
    a tile boundary of some tiling at every level up to n, with the marker
    transported to the matching parent position.  The scan tries all
    tilings; absence of any aligned chain refutes membership at this
    window, while success is only consistency (the window is finite).

    One depth-first walk finds the deepest aligned chain, stopping once it
    reaches n; the first refuted level lies one below it, because a chain
    of depth k contains one of every smaller depth.
    """
    if window.marker is None:
        raise ValueError("window must carry a marker")
    if n < 0:
        raise ValueError("levels must be >= 0")
    deepest, stack = 0, [(window.letters, window.marker, 0)]
    while stack and deepest < n:
        letters, marker, depth = stack.pop()
        for t in one_word_tilings(s, letters):
            # the marker must sit on a tile boundary; it moves to the
            # position of that boundary in the parent word
            bounds = _tile_boundaries(s, t.parent, t.offset)
            if marker in bounds:
                deepest = max(deepest, depth + 1)
                stack.append((t.parent, bounds.index(marker), depth + 1))
    if deepest < n:
        return CoreCheck(False, n, deepest + 1)
    return CoreCheck(True, n)
