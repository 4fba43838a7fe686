"""Reference computations for the benchmark checks, written without adicshift.

A substitution is a plain dict ``letter -> image`` over single-character
letters.  Everything here is the slow, obvious way: direct string expansion,
prefix sums of image lengths, factor sets read off long expansions, and a
path successor that increments the first non-maximal edge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


def parse_rules(text: str) -> dict[str, str]:
    """``a -> ab`` lines (or ``;``-separated rules) into a dict."""
    rules = {}
    for part in text.replace(";", "\n").splitlines():
        part = part.split("#", 1)[0].strip()
        if part:
            lhs, rhs = part.split("->")
            rules[lhs.strip()] = "".join(rhs.split())
    return rules


def expand_word(rules: dict[str, str], word: str, n: int) -> str:
    """sigma^n(word) by substituting letter by letter n times."""
    for _ in range(n):
        word = "".join(rules[a] for a in word)
    return word


def expand_to_length(rules, letter: str, length: int, limit: int = 64):
    """(k, sigma^k(letter)) for the least k with |sigma^k(letter)| >= length."""
    word = letter
    for k in range(limit + 1):
        if len(word) >= length:
            return k, word
        word = expand_word(rules, word, 1)
    raise ValueError(f"{letter!r} does not reach length {length}")


def level_tiles(rules, letter: str, k: int, j: int):
    """The level-j tiling of sigma^k(letter): the letters of
    sigma^(k-j)(letter) and the start of each one's sigma^j image, plus the
    total length as a final entry."""
    parent = expand_word(rules, letter, k - j)
    size = {a: len(expand_word(rules, a, j)) for a in rules}
    starts = [0]
    for a in parent:
        starts.append(starts[-1] + size[a])
    return parent, starts


def window_tiles(parent: str, starts, p: int, length: int):
    """Tiles (start, end, letter) meeting the window [p, p + length), in
    window coordinates."""
    first = bisect_right(starts, p) - 1
    last = bisect_left(starts, p + length)
    return [(starts[t] - p, starts[t + 1] - p, parent[t])
            for t in range(first, last)]


def parse_matches_truth(levels, truth, length: int, unit: int) -> str | None:
    """Compare parse levels with the true tiles; None when they agree.

    ``levels`` holds (parent word, bounds) per level, bounds in window
    coordinates with None beyond the frame; ``truth[j]`` the true tiles of
    level j + 1 from window_tiles.  Every parse tile must be a true tile
    with the true letter, and every true cut inside the level's clipped
    interior [unit * level, length - unit * level] must be a parse bound.
    """
    for level, ((parent, bounds), tiles) in enumerate(zip(levels, truth), 1):
        starts = {b: t for t, (b, _, _) in enumerate(tiles)}
        known = [(i, b) for i, b in enumerate(bounds) if b is not None]
        if not known or (known[0][1] not in starts
                         and known[0][1] != tiles[-1][1]):
            return f"level {level}: bound {known[:1]} is not a true cut"
        i0, b0 = known[0]
        t0 = starts.get(b0, len(tiles)) - i0
        for i, a in enumerate(parent):
            t = t0 + i
            if not 0 <= t < len(tiles) or tiles[t][2] != a:
                return f"level {level}: tile {i} letter {a!r} is wrong"
            for edge, value in ((bounds[i], tiles[t][0]),
                                (bounds[i + 1], tiles[t][1])):
                if edge is not None and edge != value:
                    return f"level {level}: tile {i} bound {edge} != {value}"
        lo, hi = unit * level, length - unit * level
        true_cuts = {b for b, _, _ in tiles if lo <= b <= hi}
        true_cuts |= {e for _, e, _ in tiles if lo <= e <= hi}
        parse_cuts = {b for b in bounds if b is not None and lo <= b <= hi}
        if true_cuts != parse_cuts:
            return (f"level {level}: interior cuts "
                    f"{sorted(parse_cuts)} != {sorted(true_cuts)}")
    return None


def nested_offsets(rules, chain) -> tuple[int, ...]:
    """Origin offsets of a nested occurrence chain ((a0, 0), (a1, i1), ...):
    where sigma^(k-1)(a_(k-1)) starts inside sigma^k(a_k), read off the
    expanded words themselves."""
    out = [0]
    for k, (a, i) in enumerate(chain[1:], start=1):
        out.append(out[-1] + len(expand_word(rules, rules[a][:i], k - 1)))
    return tuple(out)


def factor_set(rules, cap: int, letters=None):
    """All factors of length <= cap of sigma^n(a), n >= 1, for the given
    letters (default: all), read off the expansions themselves.

    Each letter is expanded until an expansion longer than 64 * cap brings
    no new factor, or the expansion stops growing.  Factors are the
    prefixes of the length-<=cap windows starting at every position.
    """
    letters = list(rules if letters is None else letters)
    windows: set[str] = set()
    for a in letters:
        word = rules[a]
        for _ in range(64):
            before = len(windows)
            windows.update(word[i:i + cap] for i in range(len(word)))
            quiet = len(windows) == before
            if quiet and len(word) > 64 * cap:
                break
            grown = expand_word(rules, word, 1)
            if quiet and len(grown) == len(word):
                break
            word = grown
        else:
            raise ValueError("factor set did not settle")
    return {w[:j] for w in windows for j in range(1, len(w) + 1)}


def long_letters(rules) -> set[str]:
    """Letters whose expansions grow without bound: |sigma^n(a)| still
    grows at n = 2 |A|, when the lengths of bounded letters have settled."""
    size = {a: 1 for a in rules}
    for _ in range(2 * len(rules)):
        before = size
        size = {a: sum(before[b] for b in rules[a]) for a in rules}
    return {a for a in rules if size[a] > before[a]}


def marked_vocabulary(rules) -> dict[str, int]:
    """Starts-long marked words by brute force: every language word with
    exactly three long letters, one at each end, as ``label -> height``.
    The label puts the cut after the first long letter's short run; the
    height counts the middle long letter and its short run."""
    longs = long_letters(rules)
    run = max((len(r) for w in factor_set(rules, 8)
               for r in "".join(c if c not in longs else " "
                                for c in w).split()), default=0)
    out = {}
    for w in factor_set(rules, 2 * run + 3):
        pos = [i for i, c in enumerate(w) if c in longs]
        if len(pos) == 3 and pos[0] == 0 and pos[2] == len(w) - 1:
            out[f"{w[:pos[1]]}.{w[pos[1]:]}"] = pos[2] - pos[1]
    return out


def lambda_pairs(rules, factors2) -> dict[tuple[str, str], int]:
    """Adjacent pairs ab (ab among factors2) with sigma^p(a) ending in a
    and sigma^p(b) starting with b, at the least such p.  Only the facing
    end letters are expanded: the last letter of sigma^p(a) is the last
    letter of sigma of the last letter of sigma^(p-1)(a)."""
    out = {}
    bound = (len(rules) + 1) ** 2
    for a in rules:
        for b in rules:
            if a + b not in factors2:
                continue
            left, right = a, b
            for p in range(1, bound + 1):
                left = rules[left[-1]]
                right = rules[right[0]]
                if left[-1] == a and right[0] == b:
                    out[(a, b)] = p
                    break
    return out


def lambda_window_text(rules, a: str, b: str, period: int, radius: int):
    """The radius window around the junction of the glued limit word."""
    depth = 1
    while True:
        left = expand_word(rules, a, period * depth)
        right = expand_word(rules, b, period * depth)
        if min(len(left), len(right)) >= radius:
            return left[-radius:] + right[:radius]
        depth += 1


# ---------------------------------------------------------------------------
# paths in a stationary ordered diagram


class PlainDiagram:
    """read[v] is the ordered source word of v below level 1; top[v] is the
    number of edges from the top vertex into v."""

    def __init__(self, read: dict[str, tuple[str, ...]], top: dict[str, int]):
        self.read, self.top = read, top

    def sources(self, level: int, v: str):
        return ("top",) * self.top[v] if level == 1 else self.read[v]

    def vertices(self, terminal: str, indices) -> list[str]:
        """Vertex labels top first; indices[k-1] is the edge into level k."""
        chain = [terminal]
        for k in range(len(indices), 0, -1):
            chain.append(self.sources(k, chain[-1])[indices[k - 1]])
        return chain[::-1]

    def successor(self, terminal: str, indices):
        """Next path in lexicographic order (deepest edge most significant),
        or None past the last path."""
        chain = self.vertices(terminal, indices)
        for k in range(1, len(indices) + 1):
            if indices[k - 1] + 1 < len(self.sources(k, chain[k])):
                return (0,) * (k - 1) + (indices[k - 1] + 1,) + tuple(
                    indices[k:])
        return None

    def predecessor(self, terminal: str, indices):
        chain = self.vertices(terminal, indices)
        for k in range(1, len(indices) + 1):
            if indices[k - 1] > 0:
                out = list(indices)
                out[k - 1] -= 1
                v = self.sources(k, chain[k])[out[k - 1]]
                for m in range(k - 1, 0, -1):
                    out[m - 1] = len(self.sources(m, v)) - 1
                    v = self.sources(m, v)[out[m - 1]]
                return tuple(out)
        return None

    def neighbourhood(self, terminal: str, indices, radius: int):
        """{offset: path} for the columns within radius of the path that
        exist in its tower."""
        out = {0: tuple(indices)}
        for step, direction in ((1, self.successor), (-1, self.predecessor)):
            p, at = tuple(indices), 0
            while abs(at) < radius:
                p = direction(terminal, p)
                if p is None:
                    break
                at += step
                out[at] = p
        return out


def agreement_depth(d: PlainDiagram, left, right, radius: int,
                    rows: int) -> int:
    """Highest row r <= rows on which the two paths' radius windows agree
    in every box label and box boundary (rows 0..r all agree), over the
    offsets both towers cover; -1 when row 0 already differs.

    Paths are (terminal, indices).  The row-i box of a column is labelled
    by its level-i vertex, and two neighbouring columns share a row-i box
    when their edges below level i coincide.
    """
    nx = d.neighbourhood(left[0], left[1], radius)
    ny = d.neighbourhood(right[0], right[1], radius)
    span = sorted(set(nx) & set(ny))
    depth = -1
    for r in range(rows + 1):
        for o in span:
            vx = d.vertices(left[0], nx[o])[r] if r else "top"
            vy = d.vertices(right[0], ny[o])[r] if r else "top"
            if vx != vy:
                return depth
            if o + 1 in nx and o + 1 in ny:
                cut_x = nx[o][r:] != nx[o + 1][r:]
                cut_y = ny[o][r:] != ny[o + 1][r:]
                if cut_x != cut_y:
                    return depth
        depth = r
    return depth


def is_primitive(rules, letters) -> bool:
    """Some power of the occurrence matrix restricted to letters is
    positive (boolean powers up to Wielandt's bound)."""
    letters = list(letters)
    reach = {a: {b for b in rules[a] if b in letters} for a in letters}
    power = dict(reach)
    for _ in range((len(letters) - 1) ** 2 + 1):
        if all(len(power[a]) == len(letters) for a in letters):
            return True
        power = {a: {c for b in power[a] for c in reach[b]} for a in letters}
    return all(len(power[a]) == len(letters) for a in letters)
