"""Alphabets, words, substitutions, factor languages, and growth classification.

A substitution is a map from a finite alphabet into nonempty words over that
alphabet.  Letters are arbitrary short strings (single characters in the rule
file grammar, but derived alphabets -- return-word indices, marked words --
need longer labels).

Inside the library a word is its encoded string (Substitution.encode: one
private-use character per letter, codes in alphabet order), so expansion is
str.translate, slicing and lengths count letters whatever the labels, and
the (length, code) order of encoded words is sorted_words' order.  Letter
tuples appear only where a public record or report is built.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache

from ._record import record
from .errors import AlphabetError, GrammarError

# ---------------------------------------------------------------------------
# substitutions


@record
class Substitution:
    """A map letter -> nonempty word, with a fixed alphabet order.

    The alphabet order is fixed at construction time (first appearance on the
    left-hand sides of the rule file) and is used for every deterministic
    tie-break downstream.
    """

    alphabet: tuple[str, ...]
    images: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        seen = set()
        for a in self.alphabet:
            if a in seen:
                raise GrammarError(f"duplicate letter {a!r} in alphabet")
            seen.add(a)
        if len(self.images) != len(self.alphabet):
            raise GrammarError("one image per alphabet letter required")
        for a, img in zip(self.alphabet, self.images):
            if not img:
                raise GrammarError(f"empty image for letter {a!r}")
            for b in img:
                if b not in seen:
                    raise GrammarError(
                        f"image of {a!r} uses {b!r}, which has no rule")

    @classmethod
    def from_rules(cls, rules) -> "Substitution":
        """Build from a dict or iterable of (letter, image) pairs; image may be
        a string (split into characters) or a sequence of letters."""
        pairs = list(rules.items()) if hasattr(rules, "items") else list(rules)
        alphabet = tuple(a for a, _ in pairs)
        images = tuple(tuple(img) for _, img in pairs)
        return cls(alphabet, images)

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def _index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alphabet)}

    def image(self, a: str) -> tuple[str, ...]:
        try:
            return self.images[self._index[a]]
        except KeyError:
            raise AlphabetError(f"letter {a!r} not in alphabet") from None

    def apply(self, word) -> tuple[str, ...]:
        """One expansion step on a word (tuple/list/str of letters)."""
        return self.decode(self.encode(as_letters(self, word)).translate(self._table))

    def power(self, k: int) -> "Substitution":
        """The substitution sigma^k (k >= 1) with the same alphabet order."""
        if k < 1:
            raise ValueError("power must be >= 1")
        return Substitution(
            self.alphabet,
            tuple(expand(self, (a,), k) for a in self.alphabet))

    def rule_text(self) -> str:
        """Render back into the rule-file grammar (used by reports)."""
        return "\n".join(
            f"{a} -> {_spell(img, self.alphabet)}"
            for a, img in zip(self.alphabet, self.images))

    @cached_property
    def _hash(self) -> int:     # computed once: every cache keys on it
        return hash((self.alphabet, self.images))

    def __hash__(self):
        return self._hash

    def __reduce__(self):       # from the fields: no hash crosses processes
        return Substitution, (self.alphabet, self.images)

    # -- internal single-character codec ------------------------------------

    @cached_property
    def _enc(self) -> dict[str, str]:
        return {a: chr(0xE000 + i) for i, a in enumerate(self.alphabet)}

    @cached_property
    def _dec(self) -> dict[str, str]:
        return {c: a for a, c in self._enc.items()}

    @cached_property
    def _images_enc(self) -> tuple[str, ...]:
        return tuple(map(self.encode, self.images))

    @cached_property
    def _table(self) -> dict[int, str]:
        # str.translate table: one expansion step on encoded strings
        return {0xE000 + i: img for i, img in enumerate(self._images_enc)}

    def encode(self, letters) -> str:
        try:
            return "".join(map(self._enc.__getitem__, letters))
        except KeyError as e:
            raise AlphabetError(f"letter {e.args[0]!r} not in alphabet") from None

    def decode(self, enc: str) -> tuple[str, ...]:
        return tuple(map(self._dec.__getitem__, enc))


def parse_substitution(text: str) -> Substitution:
    """Parse the rule-file grammar: one `letter -> word` per line, `#` starts
    a comment, blank lines ignored, letters are single visible characters,
    alphabet ordered by first appearance on the left."""
    order: list[str] = []
    rules: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise GrammarError(f"line {lineno}: expected 'letter -> word'")
        lhs, rhs = line.split("->", 1)
        lhs = lhs.strip()
        if len(lhs) != 1:
            raise GrammarError(
                f"line {lineno}: left-hand side must be a single letter, got {lhs!r}")
        if lhs in rules:
            raise GrammarError(f"line {lineno}: duplicate rule for {lhs!r}")
        img = tuple(ch for ch in rhs if not ch.isspace())
        if not img:
            raise GrammarError(f"line {lineno}: empty right-hand side for {lhs!r}")
        order.append(lhs)
        rules[lhs] = img
    if not order:
        raise GrammarError("no rules found")
    for a in order:
        for b in rules[a]:
            if b not in rules:
                raise GrammarError(
                    f"missing rule for letter {b!r} (used in the image of {a!r})")
    return Substitution(tuple(order), tuple(rules[a] for a in order))


# ---------------------------------------------------------------------------
# words


@record
class Word:
    """A finite word with an optional marker (a cut position in [0, len]),
    splitting negative from non-negative coordinates."""

    letters: tuple[str, ...]
    marker: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.marker is not None and not 0 <= self.marker <= len(self.letters):
            raise ValueError(f"marker {self.marker} outside [0, {len(self.letters)}]")

    def __len__(self):
        return len(self.letters)

    @property
    def text(self) -> str:
        """The letters, spelled over the word's own letters."""
        return _spell(self.letters, self.letters)

    def __str__(self):
        if self.marker is None:
            return self.text
        left, right = self.letters[:self.marker], self.letters[self.marker:]
        return f"{_spell(left, self.letters)}.{_spell(right, self.letters)}"


def _spell(letters, alphabet) -> str:
    """The one spelling of words over `alphabet`: the letters joined bare
    when every label of the alphabet is one character, and with spaces
    otherwise, so that no two words over one alphabet print alike."""
    return ("" if all(len(a) == 1 for a in alphabet) else " ").join(letters)


def as_letters(s: Substitution, w) -> tuple[str, ...]:
    """Normalize Word / str / sequence input to a tuple of letters over s."""
    # a str splits into characters: only sensible for one-character letters
    letters = w.letters if isinstance(w, Word) else tuple(w)
    for a in letters:
        if a not in s._index:
            raise AlphabetError(f"letter {a!r} not in alphabet {s.alphabet}")
    return letters


def expand(s: Substitution, w, n: int):
    """sigma^n applied letterwise; sigma^0 is the identity.

    Accepts a Word (marker transported to the image cut), a str (returned as
    str), or a sequence of letters (returned as a tuple).
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    letters = as_letters(s, w)
    enc = s.encode(letters)
    for _ in range(n):
        enc = enc.translate(s._table)
    if isinstance(w, Word):
        cut = (None if w.marker is None else
               sum(map(expansion_lengths(s, n).__getitem__, letters[:w.marker])))
        return Word(s.decode(enc), cut)
    dec = s.decode(enc)
    return "".join(dec) if isinstance(w, str) else dec


def expansion_lengths(s: Substitution, n: int) -> dict[str, int]:
    """|sigma^n(a)| for every letter, via |sigma^(k+1)(a)| = the sum of
    |sigma^k(b)| over the letters b of sigma(a), in exact integers."""
    lengths = dict.fromkeys(s.alphabet, 1)
    for _ in range(n):
        lengths = {a: sum(map(lengths.__getitem__, img))
                   for a, img in zip(s.alphabet, s.images)}
    return lengths


def norms(s: Substitution, n: int) -> tuple[int, int]:
    """(min, max) image length of sigma^n over the alphabet, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lengths = expansion_lengths(s, n)
    return min(lengths.values()), max(lengths.values())


def incidence_matrix(s: Substitution):
    """M[a, b] = number of occurrences of b in sigma(a), rows/columns in
    alphabet order, as an int64 numpy array.  Row a sums to |sigma(a)|.
    numpy is imported here, on first use, and nowhere else."""
    import numpy as np

    m = np.zeros((len(s.alphabet), len(s.alphabet)), dtype=np.int64)
    for i, img in enumerate(s.images):
        for b in img:
            m[i, s._index[b]] += 1
    return m


# ---------------------------------------------------------------------------
# the letter digraph


def _reach(succ) -> dict:
    """For each letter of the digraph `succ` (letter -> successor letters),
    the set of letters reachable from it in one or more steps; the letter
    itself is in its set exactly when it lies on a cycle."""
    reach = {}
    for a in succ:
        out, frontier = set(), list(succ[a])
        while frontier:
            b = frontier.pop()
            if b not in out:
                out.add(b)
                frontier.extend(succ[b])
        reach[a] = out
    return reach


def _cycle(step, a):
    """(a, step[a], step[step[a]], ...) once round the cycle of the map
    `step` (letter -> letter) through a, or None when a is not on a cycle."""
    path, seen, b = [a], {a}, step[a]
    while b not in seen:
        path.append(b)
        seen.add(b)
        b = step[b]
    return tuple(path) if b == a else None


# ---------------------------------------------------------------------------
# long/short classification


@record
class LetterClassification:
    long: tuple[str, ...]
    short: tuple[str, ...]


@lru_cache(maxsize=256)
def classify_letters(s: Substitution) -> LetterClassification:
    """Graph criterion: a letter is long iff it reaches, in the occurrence
    digraph (edge c -> b when b occurs in sigma(c)), some letter that lies on
    a cycle and has image length >= 2.  A bare cycle of length-1 images stays
    bounded; a cycle letter with a branching image pumps one extra persistent
    letter per loop, so this matches |sigma^n(a)| -> infinity exactly."""
    reach = _reach(dict(zip(s.alphabet, s.images)))
    targets = {c for c in s.alphabet if c in reach[c] and len(s.image(c)) >= 2}
    long = tuple(a for a in s.alphabet if ({a} | reach[a]) & targets)
    short = tuple(a for a in s.alphabet if a not in long)
    return LetterClassification(long, short)


# ---------------------------------------------------------------------------
# factor language


@record
class FactorLanguage:
    """All factors of the iterates sigma^n(a), n >= 1, up to length cap.

    The factors are stored encoded (Substitution.encode) in `encoded`;
    `factors` decodes them on first use, membership encodes the query.
    Each cap-window but the last of an iterate starts inside sigma(u[0])
    for a cap-window u of the iterate before (see factor_language).
    """

    substitution: Substitution
    cap: int
    encoded: frozenset[str]

    @cached_property
    def factors(self) -> frozenset[tuple[str, ...]]:
        return frozenset(map(self.substitution.decode, self.encoded))

    def __contains__(self, w) -> bool:
        if isinstance(w, Word):
            w = w.letters
        try:
            return self.substitution.encode(w) in self.encoded
        except AlphabetError:
            return False


def _windows(enc: str, cap: int) -> set[str]:
    # maximal cap-bounded pieces: the word itself if short, else all
    # length-cap windows
    if len(enc) <= cap:
        return {enc}
    return {enc[i:i + cap] for i in range(len(enc) - cap + 1)}


@lru_cache(maxsize=256)
def factor_language(s: Substitution, cap: int) -> FactorLanguage:
    """L(sigma) cut at length cap, kept encoded (FactorLanguage.factors
    decodes it lazily): _window_closure from the images sigma(a).  A
    cap-window u of an iterate needs only the windows of sigma(u) that
    start inside sigma(u[0]); the later ones are windows of sigma(u'), u'
    the next window, and the iterates' last windows expand in full.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    windows = _window_closure(s, s._images_enc, cap)[0]
    return FactorLanguage(s, cap, frozenset(_downward(windows, cap)))


def _window_closure(s: Substitution, starts, cap: int,
                    steps: int = 1) -> list[set[str]]:
    """Per phase k < steps, the cap-windows (shorter ones whole) of the
    iterates sigma^(steps * n + k)(w), n >= 0, of the encoded start words
    w; phase 0 holds the start words' own windows.

    Windows go through sigma one step at a time, tagged with the step
    count mod steps.  A window u pushes only the windows of sigma(u) that
    start inside sigma(u[0]): the later ones lie in sigma(u'), u' the next
    window of the same iterate.  The last cap letters of each iterate have
    no next window; they form a chain of their own and expand in full.
    """
    table = s._table
    first = {chr(c): len(img) for c, img in table.items()}
    seen = [set() for _ in range(steps)]
    seen[0].update(w for u in starts for w in _windows(u, cap))
    work = [(w, 0) for w in seen[0]]
    ends = set()
    for end in starts:
        end, phase = end[-cap:], 0
        while (end, phase) not in ends:
            ends.add((end, phase))
            end, phase = end.translate(table), (phase + 1) % steps
            fresh = _windows(end, cap) - seen[phase]
            seen[phase] |= fresh
            work.extend((w, phase) for w in fresh)
            end = end[-cap:]
    while work:
        u, phase = work.pop()
        image, phase = u.translate(table), (phase + 1) % steps
        known = seen[phase]
        for i in range(min(first[u[0]], len(image) - cap + 1)):
            w = image[i:i + cap]
            if w not in known:
                known.add(w)
                work.append((w, phase))
    return seen


def _downward(words, cap: int) -> set[str]:
    """Every nonempty factor of length <= cap of the words, in one pass down
    by length: the factors of length k are the inputs of length k (a longer
    input enters as its cap-windows) plus the prefix and the suffix of each
    factor of length k + 1, so the work is linear in the output."""
    by_length: dict[int, set[str]] = {}
    for w in words:
        by_length.setdefault(min(len(w), cap), set()).update(_windows(w, cap))
    out, level = set(), set()
    for k in range(max(by_length, default=0), 0, -1):
        level = ({x[:-1] for x in level} | {x[1:] for x in level}
                 | by_length.get(k, set()))
        out |= level
    return out


def sorted_words(s: Substitution, words) -> list[tuple[str, ...]]:
    """Deterministic order: length, then lexicographic by alphabet position."""
    idx = s._index
    return sorted(words, key=lambda w: (len(w), tuple(idx[a] for a in w)))


def _shortlex(enc: str) -> tuple[int, str]:
    """Sort key of encoded words: length, then code, which is sorted_words'
    order on the decoded words, as codes follow the alphabet."""
    return len(enc), enc


# ---------------------------------------------------------------------------
# structural predicates


class NestingClass(Enum):
    STARTS_LONG = "StartsLong"
    ENDS_LONG = "EndsLong"
    BOTH = "Both"
    NONE = "None"


def nesting_class(s: Substitution) -> NestingClass:
    """Do the images of long letters all start (resp. end) with a long letter?"""
    long = set(classify_letters(s).long)
    starts = all(s.image(a)[0] in long for a in long)
    ends = all(s.image(a)[-1] in long for a in long)
    if starts and ends:
        return NestingClass.BOTH
    if starts:
        return NestingClass.STARTS_LONG
    if ends:
        return NestingClass.ENDS_LONG
    return NestingClass.NONE


@record
class Unbounded:
    """All-short factors kept growing past the search cap -- evidence against
    aperiodicity, and a bound M does not exist at this scale."""
    cap: int


def short_block_bound(s: Substitution, cap: int = 16):
    """Least M such that every factor of length M contains a long letter.

    Asks the factor language at caps c = 2, 4, 8, ..., the last one cap,
    and returns M at the first c whose longest all-short factor is shorter
    than c (the language is closed under factors, so no longer one
    exists); Unbounded(cap) when an all-short factor reaches length cap.
    """
    if cap < 2:
        raise ValueError("cap must be >= 2")
    short = set(s.encode(classify_letters(s).short))
    if not short:
        return 1
    c = 1
    while c < cap:
        c = min(2 * c, cap)
        longest = max((len(w) for w in factor_language(s, c).encoded
                       if set(w) <= short), default=0)
        if longest < c:
            return longest + 1
    return Unbounded(cap)


@record
class NoneUpToBounds:
    """No periodic witness within the bounds; a semi-decision, not a proof."""
    max_len: int
    max_pow: int


def periodicity_witness_search(s: Substitution, max_len: int, max_pow: int):
    """Search for u with |u| <= max_len whose max_pow-fold repetition is in
    the language -- a witness that X_sigma plausibly has a periodic point.
    Candidates run in length-then-lexicographic order; first hit wins."""
    if max_len < 1 or max_pow < 1:
        raise ValueError("bounds must be >= 1")
    lang = factor_language(s, max_len * max_pow).encoded
    for u in sorted((w for w in lang if len(w) <= max_len), key=_shortlex):
        if u * max_pow in lang:
            return s.decode(u)
    return NoneUpToBounds(max_len, max_pow)
