"""Two routes from a substitution to a stationary ordered diagram.

Route one (marked-word nesting) works for substitutions whose long-letter
images all start (or all end) with long letters: the vertices are dotted
words of shape long/shorts/long/shorts/long, and the read rule expands a
marked word and reads off the marked word centred on each long letter of
its counted block's image; the starts-long and ends-long readings differ
only in where the cut and the counted block sit.

Route two (return words) induces the system on the two-letter junction
markers of its minimal components: the vertices are return-word indices,
the read rule is the derivative substitution, and the top multiplicities
are the return-word lengths.

The multi-edge encoding and the properness / m-primitivity predicates are
the supporting cast: they certify when each route applies.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from math import lcm

from ._record import record
from .diagrams import StationaryOrderedDiagram
from .errors import (
    CountExceedsImage,
    DecompositionFailure,
    DiagramError,
    NoNesting,
    ScaleTooSmall,
    UnboundedShorts,
)
from .words import (
    NestingClass,
    Substitution,
    Unbounded,
    Word,
    _cycle,
    _reach,
    _shortlex,
    _spell,
    _window_closure,
    classify_letters,
    expansion_lengths,
    factor_language,
    nesting_class,
    short_block_bound,
)

# ---------------------------------------------------------------------------
# marked words


@record
class MarkedWord:
    """A language word of shape (long)(shorts)(long)(shorts)(long), with a
    cut after the first long-with-shorts block (starts-long reading) or right
    after the first letter (ends-long reading)."""

    left: str
    left_shorts: tuple[str, ...]
    middle: str
    middle_shorts: tuple[str, ...]
    right: str
    starts_long: bool = True

    @property
    def letters(self) -> tuple[str, ...]:
        return ((self.left,) + self.left_shorts + (self.middle,)
                + self.middle_shorts + (self.right,))

    @property
    def cut(self) -> int:
        return 1 + len(self.left_shorts) if self.starts_long else 1

    def word(self) -> Word:
        return Word(self.letters, marker=self.cut)

    @property
    def label(self) -> str:
        return str(self.word())

    @property
    def counted_block(self) -> tuple[str, ...]:
        """The letters whose expansion length is the tower height: the block
        right of the cut up to (and including) the second long letter's run
        start -- middle+shorts when starts-long, shorts+middle otherwise."""
        if self.starts_long:
            return (self.middle,) + self.middle_shorts
        return self.left_shorts + (self.middle,)

    @property
    def base_height(self) -> int:
        return len(self.counted_block)


def _long_triples(w, long_set, starts_long, lo=0, hi=None) -> list[MarkedWord]:
    """The marked words of `w` around each long letter at a position in
    [lo, hi) that has a long letter on both sides in `w`: those two long
    letters and the short blocks in between."""
    at = [i for i, a in enumerate(w) if a in long_set]
    hi = len(w) if hi is None else hi
    return [MarkedWord(w[i], w[i + 1:j], w[j], w[j + 1:k], w[k], starts_long)
            for i, j, k in zip(at, at[1:], at[2:]) if lo <= j < hi]


def nesting_vocabulary(s: Substitution) -> list[MarkedWord]:
    """All language words with exactly three long letters, one at each end.

    Finite because all-short blocks are bounded; ordered by length then
    lexicographically (alphabet order).  The cut side follows the nesting
    class, preferring the starts-long reading when both hold.
    """
    cls = classify_letters(s)
    if not cls.long:
        raise NoNesting("no letter has unbounded growth")
    case = nesting_class(s)
    if case is NestingClass.NONE:
        raise NoNesting(
            "long-letter images neither all start nor all end with long letters")
    starts_long = case is not NestingClass.ENDS_LONG
    bound = short_block_bound(s)
    if isinstance(bound, Unbounded):
        raise UnboundedShorts(
            f"all-short factors keep growing past length {bound.cap}")
    long_set = set(cls.long)
    long_enc = set(s.encode(cls.long))
    kept = (w for w in factor_language(s, 2 * bound + 1).encoded
            if w[0] in long_enc and w[-1] in long_enc
            and sum(c in long_enc for c in w) == 3)
    # each kept word has one triple: the one around its middle long letter
    return [mw for w in sorted(kept, key=_shortlex)
            for mw in _long_triples(s.decode(w), long_set, starts_long)]


def nesting_matching_rule(s: Substitution, mw: MarkedWord) -> list[MarkedWord]:
    """The ordered marked words whose towers the expansion of `mw` sweeps.

    One marked word per long letter of sigma(counted block), read in
    sigma(mw): the long letters before and after it and the short blocks
    in between, cut on `mw`'s side.  In either reading the block is edged
    by long letters whose images start (or end) long, so each such letter
    has long neighbours in sigma(mw), and the outputs' counted blocks
    concatenate to sigma(mw.counted_block).
    """
    long_set = set(classify_letters(s).long)
    lo = sum(len(s.image(a)) for a in mw.letters[:mw.cut])
    hi = lo + sum(len(s.image(a)) for a in mw.counted_block)
    return _long_triples(s.apply(mw.letters), long_set, mw.starts_long, lo, hi)


def nesting_diagram(s: Substitution) -> StationaryOrderedDiagram:
    """Stationary diagram on the marked-word vocabulary: read rule from the
    matching rule, top multiplicity = base tower height."""
    vocab = nesting_vocabulary(s)
    label = {mw: mw.label for mw in vocab}
    images = tuple(tuple(map(label.__getitem__, nesting_matching_rule(s, mw)))
                   for mw in vocab)
    counts = tuple(mw.base_height for mw in vocab)
    return StationaryOrderedDiagram(tuple(label.values()), images, counts)


# ---------------------------------------------------------------------------
# multi-edge encoding


@record
class EncodedSystem:
    """Letters (a, i), one per top edge into a, with the rule that expands
    block i of a's read image; the i-blocks concatenate back to the full
    image, so expanding a letter's whole block row commutes with the read
    substitution."""

    base_alphabet: tuple[str, ...]
    counts: tuple[int, ...]
    tau: Substitution

    def pair_name(self, a: str, i: int) -> str:
        return f"{a}:{i}"

    def block_row(self, a: str) -> tuple[str, ...]:
        n = self.counts[self.base_alphabet.index(a)]
        return tuple(self.pair_name(a, i) for i in range(n))

    def encode_word(self, letters) -> tuple[str, ...]:
        out: list[str] = []
        for a in letters:
            out.extend(self.block_row(a))
        return tuple(out)

    @property
    def letters(self) -> tuple[tuple[str, int], ...]:
        return tuple((a, i)
                     for a, n in zip(self.base_alphabet, self.counts)
                     for i in range(n))


def multi_edge_encoding(d: StationaryOrderedDiagram) -> EncodedSystem:
    """Split each vertex into one letter per top edge.

    Letter (a, i) with i below the last block maps to the block row of the
    i-th read-image letter; the last letter (a, n_a - 1) absorbs the whole
    remaining image tail, so block rows expand exactly onto expanded block
    rows.  Requires every image to be at least as long as its top count.
    """
    for a in d.alphabet:
        if ":" in a:
            raise DiagramError(f"vertex label {a!r} contains the reserved ':'")
        n, m = d.top_count(a), len(d.read_image(a))
        if n > m:
            raise CountExceedsImage(
                f"vertex {a!r} has {n} top edges but only {m} image letters; "
                "replace the read rule by a power first")

    counts = tuple(d.top_count(a) for a in d.alphabet)
    # the block rows name tau's letters and spell its images
    shape = EncodedSystem(d.alphabet, counts, None)
    images = []
    for a, n in zip(d.alphabet, counts):
        img = d.read_image(a)
        images.extend(map(shape.block_row, img[:n - 1]))
        images.append(shape.encode_word(img[n - 1:]))
    tau = Substitution(shape.encode_word(d.alphabet), tuple(images))
    return EncodedSystem(d.alphabet, counts, tau)


# ---------------------------------------------------------------------------
# minimal components


@record
class MinimalComponent:
    """Seeds whose one-sided fixed points share a factor set (at the given
    scale), plus the canonical junction pair: a letter whose expansions end
    with itself (left marker) against one whose expansions start with itself
    (right marker), both staying inside the component.  A pair (r, l)
    stays inside once rl is a factor: sigma^period fixes l's point, so its
    language is sigma^period-invariant and holds every factor of
    sigma^(period*n)(rl)."""

    seeds: tuple[str, ...]
    pair: tuple[str, str] | None
    period: int | None
    scale: int


def _grown_factors(s: Substitution, seed: tuple[str, ...], cap: int,
                   steps: int = 1):
    """Per phase k < steps, the factors (length <= cap) of the iterates
    sigma^(steps * n + k)(seed), the seed word itself in phase 0, encoded,
    kept as their maximal members (which determine them; _within compares)
    from one _window_closure: it steps through sigma one application at a
    time, so sigma^steps is never materialised."""
    return tuple(
        frozenset(w for w in windows if len(w) == cap
                  or not any(w in x for x in windows if len(x) > len(w)))
        for windows in _window_closure(s, (s.encode(seed),), cap, steps))


def _within(words, windows) -> bool:
    """Is each encoded word a factor of one of the windows?"""
    return all(w in windows or any(w in x for x in windows) for w in words)


def minimal_components(s: Substitution, scale: int = 8):
    """Scale-bounded component census from one-letter fixed seeds.

    Seeds are the long letters lying on a cycle of the first-letter map (so
    some expansion power starts with the seed again).  One _grown_factors
    per cycle (a, f(a), ...) of length p, stepping by p, costs about its
    distinct scale-length windows: sigma^k of a's sigma^p-fixed point is
    f^k(a)'s, so phase k is f^k(a)'s factor set.  Seeds with equal factor
    sets share a component; a seed whose factor set strictly contains
    another's is discarded, since its limit point already accumulates on
    the smaller system.  Within each
    component the junction pair is the lexicographically least (left r,
    right l) marker pair with rl in the component's factor set.  That
    alone keeps the glued point inside: with p the pair's period, sigma^p
    fixes l's point u_l, so L(u_l) is closed under sigma^p, and each factor
    of sigma^(pn)(rl), r's left tail and every window across the junction
    alike, lies in L(u_l).
    """
    long = classify_letters(s).long
    first = {a: s.image(a)[0] for a in s.alphabet}
    last = {a: s.image(a)[-1] for a in s.alphabet}

    # each seed's cycle under the first-letter map, starting at the seed
    cycles = {a: c for a in long if (c := _cycle(first, a))}
    if not cycles:
        return ()

    fact = {b: f for a, c in cycles.items() if a == min(c, key=s._index.get)
            for b, f in zip(c, _grown_factors(s, (a,), scale, len(c)))}

    groups: dict[frozenset, list[str]] = {}
    for a in cycles:
        if not any(fact[a] != fact[b] and _within(fact[b], fact[a])
                   for b in cycles):
            groups.setdefault(fact[a], []).append(a)

    left_candidates = [(a, len(c)) for a in long if (c := _cycle(last, a))]

    out = []
    for factors, g in groups.items():
        # both lists run in alphabet order, so the first fit is the least
        best = None, None
        for (r, pr), l in itertools.product(left_candidates, g):
            if _within((s.encode((r, l)),), factors):
                best = (r, l), lcm(pr, len(cycles[l]))
                break
        out.append(MinimalComponent(tuple(g), *best, scale))
    return tuple(out)


# ---------------------------------------------------------------------------
# return words and the derivative substitution


@record
class ReturnWordSystem:
    """The census of blocks between consecutive junction markers.

    `pairs` lists one (left marker, right marker) junction per component;
    `power` is the expansion power fixing every marker on its side;
    `vocabulary` holds the return words, first-discovery order; `indices`
    names them 1..n as the derived alphabet.
    """

    pairs: tuple[tuple[str, str], ...]
    power: int
    vocabulary: tuple[tuple[str, ...], ...]

    @property
    def indices(self) -> tuple[str, ...]:
        return tuple(str(i + 1) for i in range(len(self.vocabulary)))

    def phi(self, index: str) -> tuple[str, ...]:
        return self.vocabulary[int(index) - 1]

    def phi_word(self, indices) -> tuple[str, ...]:
        return tuple(a for i in indices for a in self.phi(i))

    def word_text(self, index: str) -> str:
        """The return word, spelled over the letters of the vocabulary."""
        return _spell(self.phi(index), {a for w in self.vocabulary for a in w})


# Return words grow on fronts sigma^(pn)(l), one sigma^p at a time; a front
# that would pass this many letters is taken not to close (its return words
# keep changing), and ScaleTooSmall is raised before it is built.
_FRONT_BUDGET = 1 << 22


def _check_front(letters: int):
    if letters > _FRONT_BUDGET:
        raise ScaleTooSmall(f"a front would pass {_FRONT_BUDGET} "
                            "letters before its return words closed")


def _front_tools(s: Substitution, pairs, power: int):
    """sigma^power on encoded words, one sigma at a time, refusing a result
    longer than _FRONT_BUDGET letters, and the split of an encoded word
    between the two letters of every junction marker (re.split)."""
    enc, lengths = s._enc, expansion_lengths(s, power)

    def grow(word: str) -> str:
        _check_front(sum(word.count(enc[a]) * n for a, n in lengths.items()))
        for _ in range(power):
            word = word.translate(s._table)
        return word
    return grow, re.compile("|".join(
        f"(?<={enc[r]})(?={enc[l]})" for r, l in pairs)).split


def return_words(s: Substitution, scale: int) -> ReturnWordSystem:
    """The return words of the junction markers of the census at `scale`.
    The fronts sigma^(pn)(l) grow one round at a time until sigma^p of each
    word found splits into words found; a block longer than `scale`, or a
    front past _FRONT_BUDGET letters (checked on lengths: no front is
    built), raises ScaleTooSmall.  Order: first occurrence along the
    fronts, then the words of the language up to `scale` never seen there
    (transient strands), length-lexicographic."""
    return _return_words(s, minimal_components(s, scale=scale), scale)[0]


def _return_words(s: Substitution, comps, scale: int | None):
    """return_words on a given census, and its cut: w -> the pieces of
    sigma^p(w), cached.  With scale None, blocks are unbounded and transient
    words are scanned up to max(8, longest word).  A front is its distinct
    blocks, first occurrence first, and its tail after the last junction:
    sigma^p(r) ends in r and sigma^p(l) starts with l, so the next blocks
    are the pieces of sigma^p(w), w in order, and of sigma^p(tail) but the
    last, the next tail."""
    if not comps:
        raise DecompositionFailure("no one-letter fixed seeds: nothing recurs")
    for c in comps:
        if c.pair is None:
            raise DecompositionFailure(
                f"component seeded by {c.seeds[0]!r} has no junction pair")
    pairs = tuple(c.pair for c in comps)
    power = lcm(*(c.period for c in comps))
    enc, (grow, split) = s._enc, _front_tools(s, pairs, power)
    # the pieces of sigma^p(w), once per word w
    cut = lru_cache(maxsize=None)(lambda w: split(grow(w)))

    vocabulary: dict[str, None] = {}   # insertion-ordered set, encoded
    fronts, closed, n = [((), enc[l]) for _, l in pairs], False, 0
    while not closed:
        n += power   # the fronts grow to sigma^n(l)
        _check_front(max(expansion_lengths(s, n)[l] for _, l in pairs))
        for i, (blocks, tail) in enumerate(fronts):
            *last, tail = split(grow(tail))
            fronts[i] = (dict.fromkeys(itertools.chain(*map(cut, blocks),
                                                       last)), tail)
        for block in itertools.chain(*(blocks for blocks, _ in fronts)):
            if scale is not None and len(block) > scale:
                raise ScaleTooSmall(
                    f"marker gap of {len(block)} exceeds scale {scale}")
            vocabulary.setdefault(block)
        # once each front holds a block, the words closed under sigma^p
        # are all the return words of the fronts' limits
        closed = all(blocks for blocks, _ in fronts) and all(
            seg in vocabulary for w in vocabulary for seg in cut(w))
    if scale is None:
        scale = max(8, *map(len, vocabulary))

    # a return word and its two marker letters lie in a (scale + 2)-window
    found = {w for x in _window_closure(s, s._images_enc, scale + 2)[0]
             for w in split(x)[1:-1]}
    vocabulary.update(dict.fromkeys(sorted(found, key=_shortlex)))
    return (ReturnWordSystem(pairs, power, tuple(map(s.decode, vocabulary))),
            cut)


def derivative_substitution(rs: ReturnWordSystem, s: Substitution) -> Substitution:
    """The induced rule on return-word indices: expand each return word one
    step and split along the marker cuts (the split is forced, hence unique)."""
    grow, split = _front_tools(s, rs.pairs, rs.power)
    return _derivative(rs, s, lambda w: split(grow(w)))


def _derivative(rs: ReturnWordSystem, s: Substitution, cut) -> Substitution:
    """derivative_substitution with the pieces of sigma^p(w) from `cut`."""
    lookup = {s.encode(w): idx for idx, w in zip(rs.indices, rs.vocabulary)}
    images = list(map(cut, lookup))
    for seg in itertools.chain(*images):
        if seg not in lookup:
            raise DecompositionFailure(
                f"segment {''.join(s.decode(seg))!r} is not in the return-word "
                "system's vocabulary")
    return Substitution(rs.indices, tuple(tuple(map(lookup.get, segments))
                                          for segments in images))


# ---------------------------------------------------------------------------
# properness and m-primitivity


@record
class ProperWitness:
    power: int


@record
class NotProperUpTo:
    searched: int


def is_proper(s: Substitution, p_max: int):
    """Least p <= p_max such that, for every letter a, all admissible right
    neighbours expand (p times) to the same first letter, and all admissible
    left neighbours expand to the same last letter."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    lang2 = factor_language(s, 2)
    right_of = {a: set() for a in s.alphabet}
    left_of = {a: set() for a in s.alphabet}
    for a, b in map(s.decode, (w for w in lang2.encoded if len(w) == 2)):
        right_of[a].add(b)
        left_of[b].add(a)
    first = {a: s.image(a)[0] for a in s.alphabet}
    last = {a: s.image(a)[-1] for a in s.alphabet}
    fp, lp = dict(first), dict(last)
    for p in range(1, p_max + 1):
        ok = all(
            len({fp[b] for b in right_of[a]}) <= 1
            and len({lp[c] for c in left_of[a]}) <= 1
            for a in s.alphabet)
        if ok:
            return ProperWitness(p)
        fp = {a: fp[first[a]] for a in s.alphabet}
        lp = {a: lp[last[a]] for a in s.alphabet}
    return NotProperUpTo(p_max)


@record
class MPrimitiveDecomposition:
    blocks: tuple[tuple[str, ...], ...]
    transient: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.blocks)


@record
class NotMPrimitive:
    reason: str


def _is_primitive(succ, block) -> bool:
    """Is the step relation on the closed cycle class `block` primitive?
    By Wielandt's bound, iff its (n - 1)^2 + 1-st power is full."""
    power = {a: succ[a] for a in block}   # letters reached in k steps
    for _ in range((len(block) - 1) ** 2):
        power = {a: set().union(*map(succ.get, p)) for a, p in power.items()}
    return all(p == set(block) for p in power.values())


def is_m_primitive(s: Substitution):
    """Decompose the alphabet into primitive image-closed blocks plus letters
    feeding into them, or explain why that fails.

    The language conditions are that every letter is realized (occurs in
    L(sigma)) and that L(sigma^k) = L(sigma) for k >= 2.  The first is read
    off the one-letter factors, factor_language(s, 1).  It implies the
    second at every cap: each realized letter occurs in the image of a
    realized letter, so for every j >= 0 a factor of sigma^m(x), m >= 1,
    is a factor of some sigma^(m + j)(y); take j with k | m + j.
    """
    idx = s._index
    succ = {a: set(s.image(a)) for a in s.alphabet}
    reach = _reach(succ)
    # the cycle class of each letter (empty off cycles), taken once from
    # its first letter; it is closed when nothing outside it is reachable
    classes = {a: tuple(b for b in s.alphabet
                        if b in reach[a] and a in reach[b])
               for a in s.alphabet}
    blocks = [comp for a, comp in classes.items()
              if len(comp) >= 2 and comp[0] == a and reach[a] == set(comp)
              and _is_primitive(succ, comp)]

    block_letters = {a for comp in blocks for a in comp}
    for a in s.alphabet:
        if a in block_letters:
            continue
        if not (reach[a] & block_letters):
            trapped = tuple(sorted({a} | reach[a], key=idx.get))
            return NotMPrimitive(
                f"letters reachable from {a!r} close up into {trapped}, "
                "which contains no primitive block")

    lang = factor_language(s, 1)
    for a in s.alphabet:
        if (a,) not in lang:
            return NotMPrimitive(f"letter {a!r} never occurs in the language")

    transient = tuple(a for a in s.alphabet if a not in block_letters)
    return MPrimitiveDecomposition(tuple(blocks), transient)


# ---------------------------------------------------------------------------
# end-to-end pipeline


def diagram_via_derivative(s: Substitution) -> StationaryOrderedDiagram:
    """Return-word route to a stationary ordered diagram: derivative rule as
    the read substitution, return-word lengths as the top multiplicities.
    One census at the default scale; the return words grow to closure with
    no bound on their length, and transient words are scanned up to
    max(8, longest return word).  Fronts that never close raise
    ScaleTooSmall."""
    rs, cut = _return_words(s, minimal_components(s), None)
    tau = _derivative(rs, s, cut)
    verdict = is_proper(tau, 8)
    if isinstance(verdict, NotProperUpTo):
        raise DiagramError(
            "derivative rule is not proper at any power <= 8; "
            "the tower partitions would not generate the topology")
    counts = tuple(len(w) for w in rs.vocabulary)
    return StationaryOrderedDiagram(tau.alphabet, tau.images, counts)
