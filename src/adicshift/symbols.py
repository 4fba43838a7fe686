"""Layered box matrices over towers: j-symbols, finite j-sequence windows,
their agreement depth, and the budgeted expansiveness search.

A j-symbol is the column-aligned matrix of a tower: row j is one box, row
j-1 the boxes it expands into one level down, and so on to unit boxes at
row 0.  Windows are finite clips of the bi-infinite row stacks an orbit
generates; all depth and cut notions here are window-relative.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING

from ._record import record
from .diagrams import (
    TOP,
    FinitePath,
    StationaryOrderedDiagram,
    _in_edge_maps,
    read_substitution,
)
from .errors import AlphabetError, SpanMismatch, SymbolTooLarge, WindowTooShort
from .words import Substitution, expand

if TYPE_CHECKING:
    from .recognize import ParseChain

# ---------------------------------------------------------------------------
# symbols


@record
class JSymbol:
    """Finite box matrix of one tower: rows[i] lists (label, width) boxes,
    row `level` is the single base box, row 0 has unit boxes only."""

    base: str
    level: int
    rows: tuple[tuple[tuple[str, int], ...], ...]

    def __post_init__(self):
        if self.level != len(self.rows) - 1:
            raise ValueError("level must index the last row")
        totals = {sum(w for _, w in row) for row in self.rows}
        if len(totals) != 1:
            raise ValueError("rows must have equal total width")
        if any(w != 1 for _, w in self.rows[0]):
            raise ValueError("row 0 must consist of unit boxes")
        for below, above in zip(self.rows, self.rows[1:]):
            if not _cut_set(above) <= _cut_set(below):
                raise ValueError("box boundaries must refine downward")

    @property
    def width(self) -> int:
        return sum(w for _, w in self.rows[0])


def _cut_set(row) -> set[int]:
    edge, cuts = 0, set()
    for _, w in row[:-1]:
        edge += w
        cuts.add(edge)
    return cuts


# build_j_symbol refuses a box matrix with more cells (rows times width)
MAX_SYMBOL_CELLS = 100_000


def build_j_symbol(source, base: str, j: int) -> JSymbol:
    """The level-j box matrix over `base`.

    For a substitution, boxes at row i are labeled by the i-fold images of
    the letters of the (j-i)-fold expansion of `base`, so the width is the
    j-fold image length.  For a stationary diagram, boxes at row i >= 1 are
    labeled by vertices and sized by their tower heights; row 0 lists one
    unit box per top edge.  Raises SymbolTooLarge, before building it, when
    the j + 1 rows of the width have more than MAX_SYMBOL_CELLS cells.
    """
    if j < 0:
        raise ValueError("symbol level must be >= 0")
    if isinstance(source, Substitution):
        if base not in source.alphabet:
            raise AlphabetError(f"unknown letter {base!r}")
        words = _level_words(source, base, j, j)
        rows = [tuple((a, 1) for a in source.decode(words[-1]))]
        _stack_rows(source, words[:-1], rows,
                    lambda c, span: "".join(label for label, _ in span))
        return JSymbol(base, j, tuple(rows))
    d: StationaryOrderedDiagram = source
    if j == 0:
        if base != TOP:
            raise AlphabetError(f"level-0 boxes carry the top label, "
                                f"not {base!r}")
        return JSymbol(base, 0, (((TOP, 1),),))
    if base not in d.alphabet:
        raise AlphabetError(f"unknown vertex {base!r}")
    tau = read_substitution(d)
    words = _level_words(tau, base, j - 1, j)
    bottom = tau.decode(words[-1])
    if (j + 1) * sum(map(d.top_count, bottom)) > MAX_SYMBOL_CELLS:
        raise SymbolTooLarge(f"the level-{j} symbol over {base!r} has more "
                             f"than {MAX_SYMBOL_CELLS} cells")
    rows = [tuple((TOP, 1) for b in bottom for _ in range(d.top_count(b))),
            tuple((b, d.top_count(b)) for b in bottom)]
    _stack_rows(tau, words[:-1], rows, lambda c, span: tau._dec[c])
    return JSymbol(base, j, tuple(rows))


def _stack_rows(s: Substitution, words: list[str], rows: list, label):
    """Append one box row per encoded word, the last word first: the box of
    a letter spans the boxes of its image in the row below, so its width is
    their summed widths and nothing wider than the symbol is computed."""
    for word in reversed(words):
        below, row = iter(rows[-1]), []
        for c in word:
            span = tuple(itertools.islice(below, len(s._table[ord(c)])))
            row.append((label(c, span), sum(w for _, w in span)))
        rows.append(tuple(row))


def _level_words(s: Substitution, base: str, n: int, j: int) -> list[str]:
    """sigma^k(base), encoded, for k = 0..n; SymbolTooLarge once j + 1
    rows of one pass the budget (a level-j symbol is as wide or wider)."""
    words = [s.encode((base,))]
    while (j + 1) * len(words[-1]) <= MAX_SYMBOL_CELLS:
        if len(words) > n:
            return words
        words.append(words[-1].translate(s._table))
    raise SymbolTooLarge(f"the level-{j} symbol over {base!r} has more "
                         f"than {MAX_SYMBOL_CELLS} cells")


class _TowerTable:
    """One per diagram (_tower_heights): upto(level) grows and returns two
    lists over levels 0..level, heights[k][v], the paths from the top into
    v at level k, summed over each read image's (source, multiplicity)
    pairs, and in_edges[k], each level-k vertex's ordered in-edge sources."""

    def __init__(self, d: StationaryOrderedDiagram):
        self._edges = _in_edge_maps(d, 2)
        self._sources = {a: tuple(Counter(img).items())
                         for a, img in self._edges[2].items()}
        self._heights = [{TOP: 1}, dict(zip(d.alphabet, d.top_counts))]

    def upto(self, level: int) -> tuple[list[dict], list[dict]]:
        heights, edges = self._heights, self._edges
        while len(heights) <= level:
            heights.append({a: sum(heights[-1][b] * m for b, m in sources)
                            for a, sources in self._sources.items()})
            edges.append(edges[2])
        return heights, edges


_tower_heights = lru_cache(maxsize=256)(_TowerTable)


# ---------------------------------------------------------------------------
# windows


@record
class JSequenceWindow:
    """A finite clip of stacked box rows on a common coordinate span.

    rows[i] lists (label, start, stop) with start/stop clipped to the
    half-open span; boxes abut and cover the span at every level.
    """

    span: tuple[int, int]
    rows: tuple[tuple[tuple[str, int, int], ...], ...]

    def __post_init__(self):
        lo, hi = self.span
        if lo >= hi:
            raise ValueError("span must be nonempty")
        for row in self.rows:
            if row[0][1] != lo or row[-1][2] != hi:
                raise ValueError("rows must cover the span")
            for (_, _, stop), (_, start, _) in zip(row, row[1:]):
                if stop != start:
                    raise ValueError("boxes must abut")
        edges = [{start for _, start, _ in row[1:]} for row in self.rows]
        for below, above in zip(edges, edges[1:]):
            if not above <= below:
                raise ValueError("box boundaries must refine downward")

    @property
    def level(self) -> int:
        return len(self.rows) - 1

    def cuts(self, i: int) -> frozenset[int]:
        """Interior box boundaries of row i."""
        return frozenset(start for _, start, _ in self.rows[i][1:])

    def clip(self, lo: int, hi: int) -> "JSequenceWindow":
        if lo < self.span[0] or hi > self.span[1] or lo >= hi:
            raise SpanMismatch(
                f"cannot clip {self.span} to [{lo}, {hi})")
        rows = tuple(
            tuple((label, max(start, lo), min(stop, hi))
                  for label, start, stop in row
                  if start < hi and stop > lo)
            for row in self.rows)
        return JSequenceWindow((lo, hi), rows)


def window_from_parse(s: Substitution, chain: ParseChain,
                      radius: int) -> JSequenceWindow:
    """Stack the levels of a parse chain over the central radius window.

    Coordinates are those of the parsed base window; row i boxes sit at the
    level-i tile boundaries of the chain and are labeled by i-fold images.
    """
    length = len(chain.base)
    center = length // 2
    lo, hi = center - radius, center + radius + 1
    if lo < 0 or hi > length:
        raise WindowTooShort(
            f"radius {radius} exceeds the parsed window interior")
    rows = [tuple((a, k, k + 1) for k, a in enumerate(chain.base))]
    for i, lvl in enumerate(chain.levels, start=1):
        # only the end boundaries can lie beyond the frame (None); they
        # clamp to the window's edges, the first to lo, the last to hi
        bounds = list(lvl.bounds)
        bounds[0] = lo if bounds[0] is None else bounds[0]
        bounds[-1] = hi if bounds[-1] is None else bounds[-1]
        rows.append(tuple(
            ("".join(expand(s, (a,), i)), start, stop)
            for a, start, stop in zip(lvl.parent, bounds, bounds[1:])))
    for row in rows:
        if row[0][1] > lo or row[-1][2] < hi:
            raise WindowTooShort(
                f"level tiles cover [{row[0][1]}, {row[-1][2]}), "
                f"short of the radius-{radius} window")
    return JSequenceWindow(
        (lo, hi),
        tuple(tuple((label, max(start, lo), min(stop, hi))
                    for label, start, stop in row
                    if start < hi and stop > lo)
              for row in rows))


def path_window(d: StationaryOrderedDiagram, p: FinitePath, j: int,
                radius: int) -> JSequenceWindow:
    """Rows 0..j of the tower matrix around a finite path's own column.

    The path sits at column 0; its tower spans [-rank, width - rank), and
    the window is the radius neighbourhood clipped to that extent.  Box
    positions come from a descent into the boxes meeting the window only,
    so deep towers never materialise.
    """
    if not 0 <= j <= p.level:
        raise ValueError("row level must be within the path depth")
    n = tower_rank(d, p)
    return _TowerSlice(d, p.level, p.terminal, j, n - radius,
                       n + radius + 1).window(n, radius)


def tower_rank(d: StationaryOrderedDiagram, p: FinitePath) -> int:
    """Position of the path inside its tower: the number of paths into the
    same terminal that precede it in the edge-wise enumeration order."""
    heights, edges = _tower_heights(d).upto(p.level)
    rank, v = 0, p.terminal
    for k in range(p.level, 0, -1):
        below, edge = edges[k][v], p.indices[k - 1]
        rank += sum(map(heights[k - 1].__getitem__, below[:edge]))
        v = below[edge]
    return rank


class _TowerSlice:
    """Rows 1..j of the tower over `vertex` at `level`, sliced once over
    the tower columns [lo, hi) (column 0 is the minimal path), read off
    the diagram's tower table.  Windows of single columns are cut from the
    slice; cells() reads the rows as strings, one character per column.
    """

    def __init__(self, d, level: int, vertex: str, j: int, lo: int,
                 hi: int):
        heights, edges = _tower_heights(d).upto(level)
        self.width = heights[level][vertex]
        # one descent, a row at a time, into the boxes meeting [lo, hi);
        # boxes keep their unclipped tower columns, and a box's children
        # are ordered, so they stop at the first one starting at hi
        row = [(vertex, 0, self.width)]
        rows = [row]
        for k in range(level, 1, -1):
            below, above = [], heights[k - 1]
            for v, at, _ in row:
                for b in edges[k][v]:
                    if at >= hi:
                        break
                    w = above[b]
                    if at + w > lo:
                        below.append((b, at, at + w))
                    at += w
            rows.append(below)
            row = below
        self.lo, self.hi = lo, hi
        self.rows = rows[::-1][:j]
        self.starts = [[start for _, start, _ in row] for row in self.rows]

    def window(self, column: int, radius: int) -> JSequenceWindow:
        """The radius window of one column, clipped to the tower and
        rebased so the column sits at 0; it must lie within [lo, hi)."""
        lo = max(column - radius, 0)
        hi = min(column + radius + 1, self.width)
        span = (lo - column, hi - column)
        rows = [tuple((TOP, k, k + 1) for k in range(*span))]
        for row, starts in zip(self.rows, self.starts):
            cut = row[bisect_right(starts, lo) - 1:bisect_left(starts, hi)]
            rows.append(tuple(
                (label, max(start, lo) - column, min(stop, hi) - column)
                for label, start, stop in cut))
        return JSequenceWindow(span, tuple(rows))

    def cells(self) -> list[str]:
        """Rows 1..j as strings over the columns [lo, hi), boxes clipped to
        them: a column's character codes its box's label, doubled, plus 1
        where the box starts or enters the slice.  Two columns' windows
        agree on a row where these strings agree over the window, save
        that the first column's start bit is not part of the window."""
        codes: dict = {}
        texts = []
        for row in self.rows:
            parts = []
            for label, start, stop in row:
                code = 2 * codes.setdefault(label, len(codes))
                parts.append(chr(code + 1) + chr(code) * (
                    min(stop, self.hi) - max(start, self.lo) - 1))
            texts.append("".join(parts))
        return texts


# ---------------------------------------------------------------------------
# agreement depth


def agreement_depth(w1: JSequenceWindow, w2: JSequenceWindow) -> int:
    """Highest row up to which two windows on one span agree, or -1 when
    even row 0 differs."""
    if w1.span != w2.span:
        raise SpanMismatch(f"spans differ: {w1.span} vs {w2.span}")
    depth = -1
    for r1, r2 in zip(w1.rows, w2.rows):
        if r1 is not r2 and r1 != r2:
            break
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# eventual periodicity


@record
class EventualPeriod:
    start: int
    period: int


def eventually_periodic_check(row, n0: int, m_max: int):
    """Least period m <= m_max with row[n + m] == row[n] for all visible
    n >= n0, or None.  The window must exceed n0 + 2*m_max so every
    candidate period is tested against at least m_max further columns."""
    row = tuple(row)
    if len(row) <= n0 + 2 * m_max:
        raise ValueError("window too short to certify any period")
    for m in range(1, m_max + 1):
        if all(row[n + m] == row[n] for n in range(n0, len(row) - m)):
            return EventualPeriod(n0, m)
    return None


# ---------------------------------------------------------------------------
# expansiveness witness search


@record
class CompatibleWitness:
    """Two distinct finite paths whose windows agree on all rows <= depth."""
    left: FinitePath
    right: FinitePath
    windows: tuple[JSequenceWindow, JSequenceWindow]
    depth: int
    radius: int
    via: str
    examined: int


@record
class NoneWithinBudget:
    budget: int
    examined: int
    radius: int


def shift_down_path(d: StationaryOrderedDiagram,
                    p: FinitePath) -> FinitePath:
    """Push every row one level down: re-enter the tower one level deeper
    through the minimal two-edge prefix, keeping all edges above the first.

    Iterating from a pair with equal rows up to 1 raises the agreement by
    one row per application, which is what turns shallow coincidences into
    deep ones on towers that repeat level structure.
    """
    if p.level < 1:
        raise ValueError("path must have at least one edge")
    return FinitePath(p.level + 1, p.terminal, (0, 0) + p.indices[1:])


def _window(d, p: FinitePath, j: int, radius: int, cache) -> JSequenceWindow:
    key = (p, j)
    if key not in cache:
        cache[key] = path_window(d, p, j, radius)
    return cache[key]


def _common_depth(d, x: FinitePath, y: FinitePath, j: int, radius: int,
                  cache) -> int:
    wx = _window(d, x, j, radius, cache)
    wy = _window(d, y, j, radius, cache)
    if wx.span != wy.span:
        # both spans hold column 0, so the common span is never empty
        lo = max(wx.span[0], wy.span[0])
        hi = min(wx.span[1], wy.span[1])
        wx, wy = wx.clip(lo, hi), wy.clip(lo, hi)
    return agreement_depth(wx, wy)


def expansiveness_witness_search(d: StationaryOrderedDiagram, i: int,
                                 radius: int, budget: int):
    """Search for two distinct paths whose radius windows agree on all rows
    up to i, or report NoneWithinBudget once `budget` comparisons are spent.

    Pairs are drawn deterministically: for each vertex, successive paths of
    the depth-(i + radius) tower whose column is at least `radius` from
    both tower ends, so every window covers the full span and agreement is
    never an artifact of edge truncation; only paths into a common terminal
    are paired, so the comparison is between two columns of one tower.
    The pool is a run of consecutive columns, so rows 1..i of the tower are
    sliced once per vertex and read as one cell string per row; a column's
    row-r key is its window's slice of that string, and two columns agree
    on row r exactly when their keys are equal.  Columns are bucketed by
    their row-1 key: a pair from different buckets agrees on row 0 only
    and is counted without being visited, so the cost is one key per
    column and row plus one key comparison per pair inside a bucket.
    Pairs agreeing up to row 1 but not row i are additionally pushed down
    with shift_down_path and the pushed pair is re-verified on its own
    path windows before being reported.  Paths are built only for bucket
    pairs, and windows only for a reported witness.  Everything is
    window-relative: a hit certifies agreement at this radius only, and
    no outcome ever certifies expansiveness.
    """
    if i < 1:
        raise ValueError("target depth must be >= 1")
    level = max(i + radius, 2)
    per_vertex = max(3, isqrt(2 * budget // max(1, len(d.alphabet))) + 1)
    heights = _tower_heights(d).upto(level)[0][level]
    span = 2 * radius + 1
    cache: dict = {}
    examined = 0
    for v in d.alphabet:
        # pool index a is tower column radius + a, its window [a, a + span)
        n = min(heights[v] - 2 * radius, per_vertex)
        if n < 2:
            continue
        tower = _TowerSlice(d, level, v, i, 0, 2 * radius + n)
        keys = [[chr(ord(text[a]) & ~1) + text[a + 1:a + span]
                 for a in range(n)] for text in tower.cells()]
        buckets: dict = {}
        for a, key in enumerate(keys[0]):
            buckets.setdefault(key, []).append(a)
        paths: dict = {}

        def path(a):
            if a not in paths:
                paths[a] = _column_path(d, level, v, radius + a)
            return paths[a]

        for a in range(n - 1):
            members = buckets[keys[0][a]]
            counted = a   # pairs (a, b) up to b = counted are examined
            for b in members[bisect_right(members, a):]:
                # the pairs in between agree on row 0 only
                examined += b - counted - 1
                counted = b
                if examined >= budget:
                    return NoneWithinBudget(budget, budget, radius)
                examined += 1
                depth = 1
                while depth < i and keys[depth][a] == keys[depth][b]:
                    depth += 1
                if depth >= i:
                    return CompatibleWitness(
                        path(a), path(b),
                        (tower.window(radius + a, radius),
                         tower.window(radius + b, radius)),
                        depth, radius, "enumeration", examined)
                fx, fy = path(a), path(b)
                for _ in range(i - 1):
                    fx = shift_down_path(d, fx)
                    fy = shift_down_path(d, fy)
                if fx == fy or examined >= budget:
                    continue
                examined += 1
                depth = _common_depth(d, fx, fy, i, radius, cache)
                if depth >= i:
                    return CompatibleWitness(
                        fx, fy,
                        (_window(d, fx, i, radius, cache),
                         _window(d, fy, i, radius, cache)),
                        depth, radius, "shift-down", examined)
            examined += n - 1 - counted
            if examined >= budget:
                return NoneWithinBudget(budget, budget, radius)
    return NoneWithinBudget(budget, examined, radius)


def _column_path(d: StationaryOrderedDiagram, level: int, vertex: str,
                 column: int) -> FinitePath:
    """The path at a column of the tower over `vertex`, the inverse of
    tower_rank: one descent, taking at each level the incoming edge whose
    box holds the column."""
    heights, edges = _tower_heights(d).upto(level)
    indices, v = [0] * level, vertex
    for k in range(level, 0, -1):
        for j, v in enumerate(edges[k][v]):
            if column < heights[k - 1][v]:
                break
            column -= heights[k - 1][v]
        indices[k - 1] = j
    return FinitePath(level, vertex, tuple(indices))


# ---------------------------------------------------------------------------
# pretty-printing


def box_matrix_text(obj) -> str:
    """Render a JSymbol or JSequenceWindow as an aligned box matrix, one
    text line per row, unit boxes first."""
    rows = []
    for row in obj.rows:
        boxes = []
        for box in row:
            if len(box) == 2:
                label, width = box
            else:
                label, start, stop = box
                width = stop - start
            boxes.append((str(label), width))
        rows.append(boxes)
    unit = 1
    for boxes in rows:
        for label, width in boxes:
            need = -(-(len(label) - (width - 1)) // width)
            unit = max(unit, need)
    lines = []
    for boxes in rows:
        cells = [label.center(width * unit + width - 1)
                 for label, width in boxes]
        lines.append("|" + "|".join(cells) + "|")
    return "\n".join(lines)
