"""Layered box matrices over towers: j-symbols, finite j-sequence windows,
compatibility depth, common cuts, and the budgeted expansiveness search.

A j-symbol is the column-aligned matrix of a tower: row j is one box, row
j-1 the boxes it expands into one level down, and so on to unit boxes at
row 0.  Windows are finite clips of the bi-infinite row stacks an orbit
generates; all depth and cut notions here are window-relative.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import isqrt

from ._record import record
from .diagrams import (
    TOP,
    FinitePath,
    StationaryOrderedDiagram,
    _successors,
    minimal_path,
    read_substitution,
)
from .errors import AlphabetError, SpanMismatch, SymbolTooLarge, WindowTooShort
from .recognize import ParseChain
from .words import Substitution, expand

# ---------------------------------------------------------------------------
# symbols


@record(frozen=True)
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


@lru_cache(maxsize=256)
def _tower_heights(d: StationaryOrderedDiagram, up_to: int):
    """heights[k][v] = number of paths from the top into v at level k."""
    heights = [{TOP: 1}]
    if up_to >= 1:
        heights.append({a: d.top_count(a) for a in d.alphabet})
    for _ in range(2, up_to + 1):
        prev = heights[-1]
        heights.append(
            {a: sum(prev[b] for b in d.read_image(a)) for a in d.alphabet})
    return tuple(heights)


# ---------------------------------------------------------------------------
# windows


@record(frozen=True)
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
        # boundaries beyond the frame (None) clamp to the window's edges:
        # leading ones to lo, trailing ones to hi
        bounds = list(lvl.bounds)
        for k in range(len(bounds)):
            if bounds[k] is not None:
                break
            bounds[k] = lo
        for k in range(len(bounds) - 1, -1, -1):
            if bounds[k] is not None:
                break
            bounds[k] = hi
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
    width = _tower_heights(d, p.level)[p.level][p.terminal]
    tower = _TowerSlice(d, p.level, p.terminal, j,
                        max(n - radius, 0), min(n + radius + 1, width))
    return tower.window(n, radius)


def tower_rank(d: StationaryOrderedDiagram, p: FinitePath) -> int:
    """Position of the path inside its tower: the number of paths into the
    same terminal that precede it in the edge-wise enumeration order."""
    heights = _tower_heights(d, p.level)
    chain = p.vertices(d)
    rank = 0
    for k, edge in enumerate(p.indices, start=1):
        below = d.in_edges(k, chain[k])
        rank += sum(heights[k - 1][b] for b in below[:edge])
    return rank


class _TowerSlice:
    """Rows 1..j of the tower over `vertex` at `level`, sliced once over
    the tower columns [lo, hi) (column 0 is the minimal path).  Windows of
    single columns are cut from the slice when first asked for, and kept.
    """

    def __init__(self, d, level: int, vertex: str, j: int, lo: int,
                 hi: int):
        heights = _tower_heights(d, level)
        self.width = heights[level][vertex]
        # one descent, a row at a time, into the boxes meeting [lo, hi);
        # boxes keep their unclipped tower columns
        row = [(vertex, 0, self.width)]
        rows = [row]
        for k in range(level, 1, -1):
            below = []
            for v, at, _ in row:
                for b in d.in_edges(k, v):
                    w = heights[k - 1][b]
                    if at < hi and at + w > lo:
                        below.append((b, at, at + w))
                    at += w
            rows.append(below)
            row = below
        self.rows = rows[::-1][:j]
        self.starts = [[start for _, start, _ in row] for row in self.rows]
        self.windows: dict = {}
        self.unit_rows: dict = {}   # row 0 by rebased span, shared

    def window(self, column: int, radius: int) -> JSequenceWindow:
        """The radius window of one column, clipped to the tower and
        rebased so the column sits at 0; it must lie within [lo, hi)."""
        if column not in self.windows:
            lo = max(column - radius, 0)
            hi = min(column + radius + 1, self.width)
            span = (lo - column, hi - column)
            if span not in self.unit_rows:
                self.unit_rows[span] = tuple((TOP, k, k + 1)
                                             for k in range(*span))
            rows = [self.unit_rows[span]]
            for row, starts in zip(self.rows, self.starts):
                cut = row[bisect_right(starts, lo) - 1:bisect_left(starts, hi)]
                rows.append(tuple(
                    (label, max(start, lo) - column, min(stop, hi) - column)
                    for label, start, stop in cut))
            self.windows[column] = JSequenceWindow(span, tuple(rows))
        return self.windows[column]


# ---------------------------------------------------------------------------
# depth and cuts


@record(frozen=True)
class DepthReport:
    """depth: highest row on which the two windows fully agree (-1 when
    even row 0 differs); common_cuts[i]: positions where both windows have
    a row-i box boundary."""
    depth: int
    common_cuts: tuple[tuple[int, ...], ...]


def _agreement_depth(w1: JSequenceWindow, w2: JSequenceWindow) -> int:
    """Highest row up to which two windows on one span agree, or -1."""
    depth = -1
    for r1, r2 in zip(w1.rows, w2.rows):
        if r1 is not r2 and r1 != r2:
            break
        depth += 1
    return depth


def depth_and_cuts(w1: JSequenceWindow, w2: JSequenceWindow) -> DepthReport:
    if w1.span != w2.span:
        raise SpanMismatch(f"spans differ: {w1.span} vs {w2.span}")
    cuts = tuple(tuple(sorted(w1.cuts(i) & w2.cuts(i)))
                 for i in range(min(w1.level, w2.level) + 1))
    return DepthReport(_agreement_depth(w1, w2), cuts)


# ---------------------------------------------------------------------------
# eventual periodicity


@record(frozen=True)
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


@record(frozen=True)
class CompatibleWitness:
    """Two distinct finite paths whose windows agree on all rows <= depth."""
    left: FinitePath
    right: FinitePath
    windows: tuple[JSequenceWindow, JSequenceWindow]
    depth: int
    radius: int
    via: str
    examined: int


@record(frozen=True)
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
        lo = max(wx.span[0], wy.span[0])
        hi = min(wx.span[1], wy.span[1])
        if lo >= hi:
            return -1
        wx, wy = wx.clip(lo, hi), wy.clip(lo, hi)
    return _agreement_depth(wx, wy)


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
    sliced once per vertex over the columns the pool's windows cover, and
    each window is cut from that slice when a pair first needs it.
    Each pair is compared over rows <= i by their agreement depth (the
    depth of depth_and_cuts, without its common cuts); pairs agreeing
    up to row 1 but not row i are additionally pushed down with
    shift_down_path and the pushed pair is re-verified before being
    reported.  Everything is window-relative: a hit certifies agreement at
    this radius only, and no outcome ever certifies expansiveness.
    """
    if i < 1:
        raise ValueError("target depth must be >= 1")
    level = max(i + radius, 2)
    per_vertex = max(3, isqrt(2 * budget // max(1, len(d.alphabet))) + 1)
    cache: dict = {}
    examined = 0
    for v in d.alphabet:
        pool = _path_pool(d, level, v, radius, per_vertex)
        if len(pool) < 2:
            continue
        # pool[a] sits at tower column radius + a
        tower = _TowerSlice(d, level, v, i, 0, 2 * radius + len(pool))
        for a in range(len(pool) - 1):
            x, wx = pool[a], tower.window(radius + a, radius)
            for b in range(a + 1, len(pool)):
                if examined >= budget:
                    return NoneWithinBudget(budget, examined, radius)
                examined += 1
                y, wy = pool[b], tower.window(radius + b, radius)
                depth = _agreement_depth(wx, wy)
                if depth >= i:
                    return CompatibleWitness(x, y, (wx, wy), depth, radius,
                                             "enumeration", examined)
                if depth >= 1:
                    fx, fy = x, y
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
    return NoneWithinBudget(budget, examined, radius)


def _path_pool(d: StationaryOrderedDiagram, level: int, vertex: str,
               radius: int, per_vertex: int):
    """Successive paths into the vertex whose column keeps the full radius
    window inside the tower, starting at the lowest such column: the paths
    at tower columns radius, radius + 1, ..., at most per_vertex of them,
    stepped by one chain-carrying successor walk from the minimal path."""
    width = _tower_heights(d, level)[level][vertex]
    first = minimal_path(d, level, vertex)
    stop = max(radius, min(width - radius, radius + per_vertex))
    paths = itertools.chain((first,), _successors(d, first))
    return list(itertools.islice(paths, radius, stop))


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
