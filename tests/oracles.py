"""Brute-force oracles, independent of the library's own algorithms.

Everything here recomputes expected values the slow, obvious way: direct
expansion, exhaustive cut placement, full path enumeration with an
independent sort.  Golden values frozen into the test files were produced by
these functions.
"""

import itertools
import re
from math import isqrt, lcm

import numpy as np

import adicshift.recognize as recognize
from adicshift import (TOP, AmbiguityReport, ChainLevel, CompatibleWitness,
                       CoreCheck, DecompositionFailure, FinitePath,
                       ImproperOrdering, JSequenceWindow, LambdaSeed,
                       NoneWithinBudget, ParseChain, ReturnWordSystem,
                       ScaleTooSmall, StationaryOrderedDiagram, Substitution,
                       Tiling, Unbounded, WindowTooShort, classify_letters,
                       expand, expansion_lengths, factor_language, norms,
                       one_word_tilings, shift_down_path)
from adicshift.constructions import (_FRONT_BUDGET, MinimalComponent,
                                     MPrimitiveDecomposition, NotMPrimitive,
                                     _is_primitive, _within)
from adicshift.diagrams import _deepen_maximal, _wrap_maximal
from adicshift.words import (_cycle, _reach, _shortlex, _window_closure,
                             _windows, as_letters)


def naive_factors(s, cap, depth):
    """Factors (length <= cap) of sigma^n(a) for all letters and 1 <= n <= depth."""
    out = set()
    for a in s.alphabet:
        for n in range(1, depth + 1):
            w = expand(s, (a,), n)
            for i in range(len(w)):
                for j in range(i + 1, min(len(w), i + cap) + 1):
                    out.add(w[i:j])
    return out


def cubic_downward(words, cap):
    """Every nonempty factor of length <= cap of the given words (strings or
    tuples), by slicing each one at every (start, end) pair."""
    out = set()
    for w in words:
        for i in range(len(w)):
            for j in range(i + 1, min(len(w), i + cap) + 1):
                out.add(w[i:j])
    return out


def naive_seed_factors(s, seed, cap, steps, depth):
    """Factors (length <= cap) of sigma^(steps * n)(seed) for 0 <= n <= depth."""
    return cubic_downward(
        (expand(s, seed, steps * n) for n in range(depth + 1)), cap)


def _cap_windows(enc, cap):
    return {enc} if len(enc) <= cap else {enc[i:i + cap]
                                          for i in range(len(enc) - cap + 1)}


def cycling_factor_language(s, cap):
    """The encoded factors of length <= cap of L(sigma), by iterating the
    window sets X_1 = cap-windows of the images, X_(k+1) = cap-windows of
    sigma(u) over u in X_k, until a set repeats, and slicing their union."""
    current = frozenset(w for img in s._images_enc
                        for w in _cap_windows(img, cap))
    trail, union = {current}, set(current)
    while True:
        current = frozenset(w for u in current
                            for w in _cap_windows(u.translate(s._table), cap))
        if current in trail:
            return cubic_downward(union, cap)
        trail.add(current)
        union |= current


def phase_walk_factors(s, seed, cap, steps):
    """The encoded factors of length <= cap of sigma^(steps * n)(seed),
    n >= 0, by expanding every (window, step count mod steps) pair in full:
    each cap-window of its image goes on with the next count."""
    total = _cap_windows(s.encode(seed), cap)
    seen = {(w, 0) for w in total}
    work = list(seen)
    while work:
        u, phase = work.pop()
        phase = (phase + 1) % steps
        for w in _cap_windows(u.translate(s._table), cap):
            if (w, phase) not in seen:
                seen.add((w, phase))
                work.append((w, phase))
                if phase == 0:
                    total.add(w)
    return cubic_downward(total, cap)


def naive_incidence_power(s, n):
    """Occurrence counts of each letter in sigma^n(a), by direct expansion."""
    m = np.zeros((len(s.alphabet), len(s.alphabet)), dtype=np.int64)
    index = {a: i for i, a in enumerate(s.alphabet)}
    for i, a in enumerate(s.alphabet):
        for b in expand(s, (a,), n):
            m[i, index[b]] += 1
    return m


def is_primitive(s):
    """Every letter occurs in the sigma^n-image of every letter, at
    Wielandt's bound n = (k - 1)^2 + 1 for k letters; the letter sets of
    the images are stepped one substitution at a time."""
    n = (len(s.alphabet) - 1) ** 2 + 1
    for a in s.alphabet:
        letters = {a}
        for _ in range(n):
            letters = {b for c in letters for b in s.image(c)}
        if len(letters) < len(s.alphabet):
            return False
    return True


def brute_tilings(s, window, interior_only=False):
    """Every tiling of the window by images sigma(a), found by trying every
    interior cut placement.  Returns (parent, offset) pairs sorted by
    (first cut position, parent as alphabet indices) -- the engine's order.

    Mirrors the engine's parent filter: parents must lie in the factor
    language unless the substitution never expands (max norm 1), where the
    language holds no multi-letter words at all.
    """
    letters = tuple(window)
    n = len(letters)
    images = {a: expand(s, (a,), 1) for a in s.alphabet}
    results = set()

    def exact(seg):
        return [a for a in s.alphabet if images[a] == seg]

    def suffix_or_equal(seg):
        return [a for a in s.alphabet
                if len(images[a]) >= len(seg) and images[a][-len(seg):] == seg]

    def prefix_or_equal(seg):
        return [a for a in s.alphabet
                if len(images[a]) >= len(seg) and images[a][:len(seg)] == seg]

    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            bounds = (0,) + cuts + (n,)
            segments = [letters[bounds[i]:bounds[i + 1]]
                        for i in range(len(bounds) - 1)]
            if interior_only:
                for parent in itertools.product(*(exact(seg) for seg in segments)):
                    results.add((parent, 0))
            elif r == 0:
                # single tile covering the whole window, every placement
                for a in s.alphabet:
                    img = images[a]
                    for off in range(len(img) - n + 1):
                        if img[off:off + n] == letters:
                            results.add(((a,), off))
            else:
                choices = ([suffix_or_equal(segments[0])]
                           + [exact(seg) for seg in segments[1:-1]]
                           + [prefix_or_equal(segments[-1])])
                for parent in itertools.product(*choices):
                    offset = len(images[parent[0]]) - len(segments[0])
                    results.add((parent, offset))

    if norms(s, 1)[1] > 1:
        results = {(p, off) for (p, off) in results
                   if p in factor_language(s, len(p)).factors}

    index = {a: i for i, a in enumerate(s.alphabet)}
    return sorted(results,
                  key=lambda t: (len(images[t[0][0]]) - t[1],
                                 tuple(index[a] for a in t[0])))


def bucketed_parent_in_language(s, parent):
    """Language membership of an encoded word by building the factor
    language: the word is looked up at the next multiple of 8 above its
    length (at least 8), so that queries share a few cached languages."""
    bucket = max(8, -(-len(parent) // 8) * 8)
    return parent in factor_language(s, bucket).encoded


def all_paths_sorted(incoming, depth, terminal):
    """Independent path enumeration: generate unsorted via recursive descent,
    then sort by the reversed index tuple (deepest edge most significant).

    incoming[k][v] = ordered tuple of source labels at level k (1-based).
    Returns a list of (vertices, indices) with vertices of length depth+1.
    """
    paths = []

    def walk(level, vertex, idx_suffix, vert_suffix):
        if level == 0:
            paths.append((vert_suffix, idx_suffix))
            return
        for j, src in enumerate(incoming[level][vertex]):
            walk(level - 1, src, (j,) + idx_suffix, (src,) + vert_suffix)

    walk(depth, terminal, (), (terminal,))
    paths.sort(key=lambda p: tuple(reversed(p[1])))
    return paths


def path_count_by_matrices(incoming, levels, depth, terminal):
    """Path count = the (top, terminal) entry of the product of per-level
    incidence matrices, computed as repeated matrix-vector products."""
    total = {v: incoming[1][v].count(levels[0][0]) for v in levels[1]}
    for k in range(2, depth + 1):
        total = {v: sum(total[u] for u in incoming[k][v]) for v in levels[k]}
    return total[terminal]


def primitive_blocks(s):
    """Closed letter classes of two or more letters whose incidence
    submatrix is primitive, ordered by first letter: classes from boolean
    reachability by repeated matrix products, primitivity by one integer
    matrix power at Wielandt's bound (n - 1)^2 + 1."""
    n = len(s.alphabet)
    step = naive_incidence_power(s, 1) > 0
    reach = np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | ((reach.astype(np.int64) @ step.astype(np.int64)) > 0)
    blocks = []
    for i in range(n):
        rows = [j for j in range(n) if reach[i, j] and reach[j, i]]
        outside = [j for j in range(n) if j not in rows]
        if len(rows) < 2 or rows[0] != i or step[np.ix_(rows, outside)].any():
            continue
        sub = step[np.ix_(rows, rows)].astype(np.int64)
        if (np.linalg.matrix_power(sub, (len(rows) - 1) ** 2 + 1) > 0).all():
            blocks.append(tuple(s.alphabet[j] for j in rows))
    return blocks


def extremal_periods(alphabet, pick):
    """The periods of all label sequences with v_n = pick(v_{n+1}), one per
    start label: the labels with arbitrarily long backward chains are those
    in the |A|-fold image of pick; walk back through them 2|A| steps and
    read off the least period."""
    eventual = set(alphabet)
    for _ in alphabet:
        eventual = {pick(a) for a in eventual}
    out = []
    for v in alphabet:
        if v not in eventual:
            continue
        seq = [v]
        for _ in range(2 * len(alphabet)):
            seq.append(next(u for u in alphabet
                            if u in eventual and pick(u) == seq[-1]))
        p = next(p for p in range(1, len(alphabet) + 1)
                 if all(seq[i] == seq[i + p] for i in range(len(seq) - p)))
        out.append(tuple(seq[:p]))
    return out


def bounded_seed_scan(s):
    """Junction seeds (a, b) with ab a factor, by iterating the last- and
    first-letter maps side by side for up to (|A| + 1)^2 steps and taking
    the first step at which both return."""
    lang = factor_language(s, 2)
    last = {a: s.image(a)[-1] for a in s.alphabet}
    first = {a: s.image(a)[0] for a in s.alphabet}
    seeds = []
    for a in s.alphabet:
        for b in s.alphabet:
            if (a, b) not in lang:
                continue
            x, y = a, b
            for p in range(1, (len(s.alphabet) + 1) ** 2 + 1):
                x, y = last[x], first[y]
                if x == a and y == b:
                    seeds.append(LambdaSeed(a, b, p))
                    break
    return seeds


def core_membership_by_levels(s, window, n):
    """The origin-alignment check level by level: for each k <= n in turn,
    search afresh for an aligned chain of depth k; the first k without one
    is the refuted level."""

    def aligned(letters, marker, levels):
        if levels == 0:
            return True
        for t in one_word_tilings(s, letters):
            edge, hit = -t.offset, None
            for idx, parent_letter in enumerate(t.parent):
                if edge == marker:
                    hit = idx
                    break
                edge += len(s.image(parent_letter))
            if hit is None and edge == marker:
                hit = len(t.parent)
            if hit is not None and aligned(t.parent, hit, levels - 1):
                return True
        return False

    for k in range(1, n + 1):
        if not aligned(window.letters, window.marker, k):
            return CoreCheck(False, n, k)
    return CoreCheck(True, n)


def tower_heights(d, level):
    """heights[k][v]: the number of paths from the top into v at level k,
    summed over the read images level by level."""
    heights = [{TOP: 1}, {a: d.top_count(a) for a in d.alphabet}]
    for _ in range(2, level + 1):
        heights.append({a: sum(heights[-1][b] for b in d.read_image(a))
                        for a in d.alphabet})
    return heights


def rebuilt_successor(d, p):
    """The next path into p's terminal, or None after the maximal one, with
    the vertex chain rebuilt from the terminal at every step."""
    chain = p.vertices(d)
    for k in range(1, p.level + 1):
        j = p.indices[k - 1]
        if j + 1 < len(d.in_edges(k, chain[k])):
            return FinitePath(p.level, p.terminal,
                              (0,) * (k - 1) + (j + 1,) + p.indices[k:])
    return None


def stepwise_orbit_coding(d, start, steps, level, max_to_min=None):
    """vershik_orbit_coding one state at a time: the label read from the
    path's own vertex chain and the next path from rebuilt_successor, with
    the library's deepening and wrap at maximal truncations."""
    current, out = start, []
    for _ in range(steps):
        out.append(current.vertices(d)[level])
        nxt = rebuilt_successor(d, current)
        while nxt is None:
            if not isinstance(d, StationaryOrderedDiagram):
                raise ImproperOrdering("maximal truncation at full depth")
            deepened = _deepen_maximal(d, current)
            if deepened is not None:
                current = deepened
                nxt = rebuilt_successor(d, current)
                continue
            nxt = _wrap_maximal(d, current, max_to_min)
        current = nxt
    return tuple(out)


def expanded_symbol_rows(source, base, j):
    """The rows of the level-j box matrix, each box from its own expansion:
    labels sigma^i(b) joined for a substitution, vertex heights from
    tower_heights for a stationary diagram."""
    if isinstance(source, StationaryOrderedDiagram):
        tau = Substitution(source.alphabet, source.read_images)
        heights = tower_heights(source, j)
        rows = [tuple((TOP, 1) for b in expand(tau, (base,), j - 1)
                      for _ in range(source.top_count(b)))]
        rows += [tuple((b, heights[i][b]) for b in expand(tau, (base,), j - i))
                 for i in range(1, j + 1)]
        return tuple(rows)
    return tuple(
        tuple(("".join(expand(source, (b,), i)), len(expand(source, (b,), i)))
              for b in expand(source, (base,), j - i))
        for i in range(j + 1))


def descent_path_window(d, p, j, radius):
    """Rows 0..j of the tower around one path's column, each row found by
    its own descent from the terminal; tower heights and the path's rank
    are recounted from the read images."""
    heights = tower_heights(d, p.level)
    chain = p.vertices(d)
    n = sum(heights[k - 1][b]
            for k in range(1, p.level + 1)
            for b in d.in_edges(k, chain[k])[:p.indices[k - 1]])
    lo = max(-radius, -n)
    hi = min(radius + 1, heights[p.level][p.terminal] - n)

    def row_boxes(row, level, vertex, offset):
        if level == row:
            yield (vertex, max(offset, lo),
                   min(offset + heights[level][vertex], hi))
            return
        for b in d.in_edges(level, vertex):
            w = heights[level - 1][b]
            if offset < hi and offset + w > lo:
                yield from row_boxes(row, level - 1, b, offset)
            offset += w

    rows = [tuple((TOP, k, k + 1) for k in range(lo, hi))]
    rows += [tuple(row_boxes(i, p.level, p.terminal, -n))
             for i in range(1, j + 1)]
    return JSequenceWindow((lo, hi), tuple(rows))


def pairwise_witness_search(d, i, radius, budget):
    """The expansiveness witness search with every window built on its own:
    the pool walked by rebuilt_successor, one descent_path_window per path,
    and the same pair order, budget accounting and shift-down re-check."""
    level = max(i + radius, 2)
    per_vertex = max(3, isqrt(2 * budget // max(1, len(d.alphabet))) + 1)
    windows = {}

    def window(p):
        if p not in windows:
            windows[p] = descent_path_window(d, p, i, radius)
        return windows[p]

    def depth_of(x, y):
        wx, wy = window(x), window(y)
        lo, hi = max(wx.span[0], wy.span[0]), min(wx.span[1], wy.span[1])
        if lo >= hi:
            return -1
        if wx.span != wy.span:
            wx, wy = wx.clip(lo, hi), wy.clip(lo, hi)
        depth = -1
        while depth < i and wx.rows[depth + 1] == wy.rows[depth + 1]:
            depth += 1
        return depth

    examined = 0
    for v in d.alphabet:
        width = tower_heights(d, level)[level][v]
        pool, rank, p = [], 0, FinitePath(level, v, (0,) * level)
        while p is not None and len(pool) < per_vertex:
            if rank + radius >= width:
                break
            if rank >= radius:
                pool.append(p)
            p, rank = rebuilt_successor(d, p), rank + 1
        for a, x in enumerate(pool):
            for y in pool[a + 1:]:
                if examined >= budget:
                    return NoneWithinBudget(budget, examined, radius)
                examined += 1
                depth = depth_of(x, y)
                if depth >= i:
                    return CompatibleWitness(x, y, (window(x), window(y)),
                                             depth, radius, "enumeration",
                                             examined)
                if depth < 1:
                    continue
                fx, fy = x, y
                for _ in range(i - 1):
                    fx, fy = shift_down_path(d, fx), shift_down_path(d, fy)
                if fx == fy or examined >= budget:
                    continue
                examined += 1
                depth = depth_of(fx, fy)
                if depth >= i:
                    return CompatibleWitness(fx, fy, (window(fx), window(fy)),
                                             depth, radius, "shift-down",
                                             examined)
    return NoneWithinBudget(budget, examined, radius)


def full_cap_short_block_bound(s, cap):
    """The short-block bound from the whole factor language at cap: one
    more than the longest all-short factor, or Unbounded(cap) when an
    all-short factor reaches the cap."""
    short = set(classify_letters(s).short)
    if not short:
        return 1
    longest = max((len(w) for w in factor_language(s, cap).factors
                   if set(w) <= short), default=0)
    return Unbounded(cap) if longest >= cap else longest + 1


def whole_front_return_words(s, comps, scale):
    """Return words grown on whole fronts: each round applies sigma^p to
    every front sigma^(pn)(l) in full, takes all its blocks between
    junctions, and stops once sigma^p of every word found splits into
    words found; then adds, length-lexicographic, the blocks between two
    junctions inside the language windows of length scale + 2 (scale None:
    max(8, longest word))."""
    if not comps:
        raise DecompositionFailure("no one-letter fixed seeds: nothing recurs")
    for c in comps:
        if c.pair is None:
            raise DecompositionFailure(
                f"component seeded by {c.seeds[0]!r} has no junction pair")
    pairs = tuple(c.pair for c in comps)
    power = lcm(*(c.period for c in comps))
    lengths = expansion_lengths(s, power)
    split = re.compile("|".join(f"(?<={s.encode((r,))})(?={s.encode((l,))})"
                                for r, l in pairs)).split

    def grow(word):
        if sum(word.count(s.encode((a,))) * n
               for a, n in lengths.items()) > _FRONT_BUDGET:
            raise ScaleTooSmall(f"a front would pass {_FRONT_BUDGET} "
                                "letters before its return words closed")
        for _ in range(power):
            word = word.translate(s._table)
        return word

    vocabulary = {}
    fronts, closed = [s.encode((l,)) for _, l in pairs], False
    while not closed:
        fronts = [grow(front) for front in fronts]
        blocks = [split(front)[:-1] for front in fronts]
        for block in itertools.chain(*blocks):
            if scale is not None and len(block) > scale:
                raise ScaleTooSmall(
                    f"marker gap of {len(block)} exceeds scale {scale}")
            vocabulary.setdefault(block)
        closed = all(blocks) and all(seg in vocabulary for w in vocabulary
                                     for seg in split(grow(w)))
    if scale is None:
        scale = max(8, *map(len, vocabulary))
    found = {w for x in _window_closure(s, s._images_enc, scale + 2)[0]
             for w in split(x)[1:-1]}
    vocabulary.update(dict.fromkeys(sorted(found,
                                           key=lambda w: (len(w), w))))
    return ReturnWordSystem(pairs, power, tuple(map(s.decode, vocabulary)))


def _junction_ok(s: Substitution, power: int, r: str, l: str, factors,
                 cap: int) -> bool:
    """Does the two-sided point glued from r's left tail and l's right tail
    stay inside the encoded `factors`?  Checks the windows that straddle the
    junction; the two one-sided tails are checked separately by the caller.

    Tails grow under sigma^power, applied one sigma at a time and re-clipped
    (a suffix expands to a suffix, a prefix to a prefix), so long periods
    never materialise huge images.
    """
    tail, head = s.encode((r,)), s.encode((l,))
    for _ in range(cap * (len(s.alphabet) + 2)):
        if len(tail) >= cap and len(head) >= cap:
            break
        for _ in range(power):
            tail = tail.translate(s._table)[-cap:]
            head = head.translate(s._table)[:cap]
    # the longest windows across the junction are enough
    left, right = tail[max(0, len(tail) - cap + 1):], head[:cap - 1]
    return not (left and right) or _within(_windows(left + right, cap), factors)


def per_seed_census(s, scale):
    """minimal_components with one factor set per seed: each seed's full
    phase walk, stepping by its own first-letter cycle length, and each
    junction's left marker walked again at the pair's period."""
    long = classify_letters(s).long
    first = {a: s.image(a)[0] for a in s.alphabet}
    last = {a: s.image(a)[-1] for a in s.alphabet}
    seeds = [(a, len(c)) for a in long if (c := _cycle(first, a))]
    fact = {a: frozenset(phase_walk_factors(s, (a,), scale, p))
            for a, p in seeds}
    groups = {}
    for a, p in seeds:
        if not any(fact[b] < fact[a] for b, _ in seeds):
            groups.setdefault(fact[a], []).append((a, p))
    lefts = [(a, len(c)) for a in long if (c := _cycle(last, a))]
    out = []
    for factors, g in groups.items():
        best = None, None
        for (r, pr), (l, pl) in itertools.product(lefts, g):
            p = lcm(pr, pl)
            if (s.encode((r, l)) in factors
                    and phase_walk_factors(s, (r,), scale, p) <= factors
                    and _junction_ok(s, p, r, l, factors, scale)):
                best = (r, l), p
                break
        out.append(MinimalComponent(tuple(a for a, _ in g), *best, scale))
    return tuple(out)


def path_successors(d, p, chain):
    """The paths after p into its terminal, one FinitePath per state, with
    the vertex chain carried along in place and edges read by d.in_edges."""
    indices = list(p.indices)
    while True:
        for k in range(1, p.level + 1):
            edges = d.in_edges(k, chain[k])
            if indices[k - 1] + 1 < len(edges):
                break
        else:
            return
        indices[k - 1] += 1
        source = edges[indices[k - 1]]
        for m in range(k - 1, 0, -1):
            chain[m] = source
            indices[m - 1] = 0
            source = d.in_edges(m, source)[0]
        yield FinitePath(p.level, p.terminal, tuple(indices))


def path_walk_orbit_coding(d, start, steps, level, max_to_min=None):
    """vershik_orbit_coding on path_successors: every state a FinitePath,
    the library's deepening and wrap at maximal truncations."""
    current, chain = start, list(start.vertices(d))
    walk, out = path_successors(d, current, chain), []
    for _ in range(steps):
        out.append(chain[level])
        nxt = next(walk, None)
        while nxt is None:
            if not isinstance(d, StationaryOrderedDiagram):
                raise ImproperOrdering("maximal truncation at full depth; "
                                       "the diagram gives no continuation "
                                       "to extend along")
            deepened = _deepen_maximal(d, current)
            current = deepened or _wrap_maximal(d, current, max_to_min)
            chain = list(current.vertices(d))
            walk = path_successors(d, current, chain)
            nxt = current if deepened is None else next(walk, None)
        current = nxt
    return tuple(out)


def record_chain_recognize_window(s, window, n, chain_budget=1000):
    """recognize_window as it was before chains stayed encoded: every level
    is tiled through record_chain_tilings into Tiling records, and each
    chain's parents are encoded again for record_chain_annotate.  The walk,
    the image table and the membership test are the engine's, looked up
    through the module so that a patched _parent_in_language applies."""
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
            for t in record_chain_tilings(s, word):
                extended.append(chain + [t])
            if len(extended) > chain_budget:
                return AmbiguityReport(level, (), interior,
                                       "chain budget exceeded")
        if not extended:
            return AmbiguityReport(level, (), interior,
                                   "no tilings at all: not a language window")
        chains = extended

    images, encoded = recognize._walk_tables(s)[0], s.encode(base)
    traces = []
    for chain in chains:
        tilings = [(s.encode(t.parent), t.offset) for t in chain]
        traces.append(tuple(
            record_chain_annotate(images, tilings, encoded, unit)))
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
        parent = s.decode([a for _, _, a in tiles])
        bounds = (tiles[0][0],) + tuple(e for _, e, _ in tiles)
        levels.append(ChainLevel(parent, bounds))
    return ParseChain(base, tuple(levels))


def record_chain_tilings(s, window):
    """one_word_tilings with clipped end tiles, as it was: the window's
    letters checked, each parent decoded into a Tiling, cuts filtered one
    boundary at a time."""
    word = s.encode(as_letters(s, window))
    n = len(word)
    if n == 0:
        raise ValueError("window must be nonempty")
    found = recognize._tiling_walk(s, word, True)
    if found is None:
        found = recognize._tiling_walk(s, word, False)
    images, _, short, _ = recognize._walk_tables(s)
    if short is not None:
        found = {(p, off) for (p, off) in found
                 if recognize._parent_in_language(s, p)}

    tilings = []
    for parent, offset in sorted(
            found, key=lambda f: (len(images[f[0][0]]) - f[1], f[0])):
        bounds = record_chain_boundaries(images, parent, offset)
        cuts = tuple(b for b in bounds if 0 <= b <= n)
        left = min(bounds[1], n) - max(bounds[0], 0)
        right = min(bounds[-1], n) - max(bounds[-2], 0)
        tilings.append(Tiling(s.decode(parent), offset, n, (left, right), cuts))
    return tilings


def record_chain_boundaries(images, parent, offset):
    """Tile boundary positions of the encoded parent in window coordinates,
    by the encoded image table; first entry <= 0."""
    return list(itertools.accumulate(
        map(len, map(images.__getitem__, parent)), initial=-offset))


def record_chain_annotate(images, chain, base, unit):
    """The per-tile annotation of one encoded chain, as it was: (cuts,
    tiles) per level, tiles as (start, end, encoded letter) triples.  It
    raises AssertionError when the kept tiles of a level are not one
    contiguous run."""
    length = len(base)
    trace = []
    prev_word = base                 # word the current level retiles
    prev_bounds = list(range(length + 1))   # letter index -> base coordinate
    kept_lo, kept_hi = 0, length     # boundary-index clamp from kept tiles
    for level, (parent, offset) in enumerate(chain, start=1):
        lb = record_chain_boundaries(images, parent, offset)
        bb = [prev_bounds[p] if kept_lo <= p <= kept_hi else None
              for p in lb]
        lo, hi = unit * level, length - unit * level
        cuts = tuple(b for b in bb if b is not None and lo <= b <= hi)
        tiles = []
        kept_idx = []
        for j, a in enumerate(parent):
            b, e = bb[j], bb[j + 1]
            if (b is not None and b > hi) or (e is not None and e < lo):
                continue
            # a tile reaching past the known letters is kept only when its
            # visible fragment forces the letter
            left_hidden = lb[j] < kept_lo
            right_hidden = lb[j + 1] > kept_hi
            if left_hidden or right_hidden:
                p, q = max(lb[j], kept_lo), min(lb[j + 1], kept_hi)
                visible = prev_word[p:max(p, q)]
                if not recognize._letter_forced(images, visible, left_hidden,
                                                right_hidden):
                    continue
            tiles.append((b, e, a))
            kept_idx.append(j)
        if kept_idx and kept_idx != list(range(kept_idx[0], kept_idx[-1] + 1)):
            raise AssertionError("kept tiles must form a contiguous run")
        trace.append((cuts, tuple(tiles)))
        prev_word = parent
        prev_bounds = bb
        if kept_idx:
            kept_lo, kept_hi = kept_idx[0], kept_idx[-1] + 1
        else:
            kept_lo, kept_hi = 0, -1     # nothing located: starve next level
    return trace


def powers_checked_m_primitive(s, scale=8):
    """is_m_primitive as it was: after the block test and the realized
    letters, it also compares factor_language(s, scale) with the languages
    of s.power(2) and s.power(3) and refuses a factor that a power loses."""
    idx = s._index
    succ = {a: set(s.image(a)) for a in s.alphabet}
    reach = _reach(succ)
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

    lang = factor_language(s, scale)
    for a in s.alphabet:
        if (a,) not in lang:
            return NotMPrimitive(f"letter {a!r} never occurs in the language")
    for k in (2, 3):
        power_lang = factor_language(s.power(k), scale)
        # s.power(k) keeps the alphabet order, hence the encoding
        missing = lang.encoded - power_lang.encoded
        if missing:
            sample = "".join(s.decode(min(missing, key=_shortlex)))
            return NotMPrimitive(
                f"power {k} loses the factor {sample!r} at scale {scale}")

    transient = tuple(a for a in s.alphabet if a not in block_letters)
    return MPrimitiveDecomposition(tuple(blocks), transient)
