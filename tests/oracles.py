"""Brute-force oracles, independent of the library's own algorithms.

Everything here recomputes expected values the slow, obvious way: direct
expansion, exhaustive cut placement, full path enumeration with an
independent sort.  Golden values frozen into the test files were produced by
these functions.
"""

import itertools

import numpy as np

from adicshift import (CoreCheck, LambdaSeed, expand, factor_language, norms,
                       one_word_tilings)


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


def naive_incidence_power(s, n):
    """Occurrence counts of each letter in sigma^n(a), by direct expansion."""
    m = np.zeros((len(s.alphabet), len(s.alphabet)), dtype=np.int64)
    index = {a: i for i, a in enumerate(s.alphabet)}
    for i, a in enumerate(s.alphabet):
        for b in expand(s, (a,), n):
            m[i, index[b]] += 1
    return m


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
