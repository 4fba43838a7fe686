"""Brute-force oracles, independent of the library's own algorithms.

Everything here recomputes expected values the slow, obvious way: direct
expansion, exhaustive cut placement, full path enumeration with an
independent sort.  Golden values frozen into the test files were produced by
these functions.
"""

import itertools

import numpy as np

from adicshift import expand, factor_language, norms


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
