"""Ordered level graphs with a top vertex, and the successor dynamics on
their path spaces.

A diagram is a graded graph: level 0 holds the single top vertex, and every
vertex below carries a totally ordered tuple of incoming edges, each edge
identified by its source label one level up and its position in that order.
Stationary diagrams repeat one level pattern forever and are described by a
read rule (vertex label -> ordered word of source labels) plus the edge
multiplicities out of the top vertex.

Finite paths from the top are index sequences; the successor operation
increments the first non-maximal edge and resets everything above it to the
minimal path, which makes path enumeration a positional counter.
"""

from __future__ import annotations

import re
from functools import cached_property

from ._record import record
from .errors import DiagramError, ImproperOrdering, TooManyPaths
from .words import Substitution, _cycle


class _Maximal:
    """Sentinel for the successor of an all-maximal path."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Maximal"


Maximal = _Maximal()

TOP = "top"

# enumerate_paths refuses to materialise more paths than this
MAX_ENUMERATED_PATHS = 100_000


@record
class OrderedDiagram:
    """levels[0] is the top; incoming[k][j] lists, in edge order, the
    level-(k-1) source labels of the j-th vertex of level k."""

    levels: tuple[tuple[str, ...], ...]
    incoming: tuple[tuple[tuple[str, ...], ...], ...]

    def __post_init__(self):
        if len(self.incoming) != len(self.levels):
            raise DiagramError("incoming must align with levels")
        for k, level in enumerate(self.levels):
            if k and len(self.incoming[k]) != len(level):
                raise DiagramError(f"level {k}: one edge tuple per vertex")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def _index(self):
        return tuple({v: j for j, v in enumerate(level)}
                     for level in self.levels)

    def in_edges(self, level: int, vertex: str) -> tuple[str, ...]:
        try:
            return self.incoming[level][self._index[level][vertex]]
        except KeyError:
            raise DiagramError(
                f"no vertex {vertex!r} at level {level}") from None


@record
class StationaryOrderedDiagram:
    """One repeating level: read_images[j] is the ordered source word of
    alphabet[j] at every level >= 2; top_counts[j] is its number of edges
    from the top vertex."""

    alphabet: tuple[str, ...]
    read_images: tuple[tuple[str, ...], ...]
    top_counts: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.alphabet) == len(self.read_images)
                == len(self.top_counts)):
            raise DiagramError("alphabet, read_images, top_counts must align")
        for a, img, c in zip(self.alphabet, self.read_images,
                             self.top_counts):
            if not img:
                raise DiagramError(f"empty read image at {a!r}")
            if c < 1:
                raise DiagramError(f"top count at {a!r} must be >= 1")
            for b in img:
                if b not in self.alphabet:
                    raise DiagramError(f"read image of {a!r} uses unknown "
                                       f"label {b!r}")

    @cached_property
    def _index(self):
        return {a: j for j, a in enumerate(self.alphabet)}

    def read_image(self, a: str) -> tuple[str, ...]:
        return self.read_images[self._index[a]]

    def top_count(self, a: str) -> int:
        return self.top_counts[self._index[a]]

    def in_edges(self, level: int, vertex: str) -> tuple[str, ...]:
        if level < 1:
            raise DiagramError("no incoming edges at the top")
        if level == 1:
            return (TOP,) * self.top_count(vertex)
        return self.read_image(vertex)

    def unroll(self, depth: int) -> OrderedDiagram:
        if depth < 1:
            raise DiagramError("depth must be >= 1")
        levels = ((TOP,),) + (self.alphabet,) * depth
        incoming = ((),)
        incoming += (tuple((TOP,) * c for c in self.top_counts),)
        incoming += (self.read_images,) * (depth - 1)
        return OrderedDiagram(levels, incoming)


# ---------------------------------------------------------------------------
# construction and validation


def stationary_from_substitution(s: Substitution,
                                 top_counts) -> StationaryOrderedDiagram:
    """The stationary diagram whose read rule is s.

    top_counts may be a mapping letter -> count or a sequence aligned with
    the alphabet.
    """
    if hasattr(top_counts, "get"):
        counts = tuple(top_counts[a] for a in s.alphabet)
    else:
        counts = tuple(top_counts)
    return StationaryOrderedDiagram(s.alphabet, s.images, counts)


def read_substitution(d: StationaryOrderedDiagram) -> Substitution:
    """The substitution read off the diagram: each label maps to the ordered
    source word of its incoming edges."""
    return Substitution(d.alphabet, d.read_images)


def validate(d: OrderedDiagram) -> list[str]:
    """Structural check; returns a list of violations (empty = ok)."""
    out = []
    if len(d.levels[0]) != 1:
        out.append(f"top-level: expected a single vertex, got "
                   f"{len(d.levels[0])}")
    for k, level in enumerate(d.levels):
        if len(set(level)) != len(level):
            out.append(f"duplicate-vertex: level {k}")
    everywhere = {v: k for k, level in enumerate(d.levels) for v in level}
    for k in range(1, len(d.levels)):
        used = set()
        for v, sources in zip(d.levels[k], d.incoming[k]):
            if not sources:
                out.append(f"no-incoming: level {k} vertex {v}")
            for src in sources:
                if src in d._index[k - 1]:
                    used.add(src)
                elif src in everywhere:
                    out.append(f"level-skew: edge into level {k} vertex {v} "
                               f"has source {src} at level {everywhere[src]}")
                else:
                    out.append(f"unknown-source: level {k} vertex {v} "
                               f"lists {src}")
        for v in d.levels[k - 1]:
            if v not in used:
                out.append(f"no-outgoing: level {k - 1} vertex {v}")
    return out


# ---------------------------------------------------------------------------
# paths


@record
class FinitePath:
    """A path from the top: indices[k-1] is the order position of the level-k
    edge among the incoming edges of the level-k vertex on the path."""

    level: int
    terminal: str
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != self.level:
            raise DiagramError("one index per level")

    def vertices(self, d) -> tuple[str, ...]:
        """Vertex labels (v_0, ..., v_n) along the path, top first."""
        chain = [self.terminal]
        for k in range(self.level, 0, -1):
            chain.append(d.in_edges(k, chain[-1])[self.indices[k - 1]])
        return tuple(reversed(chain))


def minimal_path(d, level: int, vertex: str) -> FinitePath:
    return FinitePath(level, vertex, (0,) * level)


def maximal_path(d, level: int, vertex: str) -> FinitePath:
    indices = []
    v = vertex
    for k in range(level, 0, -1):
        edges = d.in_edges(k, v)
        indices.append(len(edges) - 1)
        v = edges[-1]
    return FinitePath(level, vertex, tuple(reversed(indices)))


def enumerate_paths(d, level: int, vertex: str) -> list[FinitePath]:
    """All paths from the top to the vertex, in lexicographic order: paths
    compare at the largest index where they differ, so the deepest edge is
    the most significant digit.  Raises TooManyPaths, before building any,
    when there are more than MAX_ENUMERATED_PATHS of them."""
    if level < 1:
        raise DiagramError("level must be >= 1")
    # count first: the path count can be exponential in the level
    counts = {vertex: 1}
    for k in range(level, 0, -1):
        above: dict = {}
        for v, c in counts.items():
            for src in d.in_edges(k, v):
                above[src] = above.get(src, 0) + c
        counts = above
    if sum(counts.values()) > MAX_ENUMERATED_PATHS:
        raise TooManyPaths(
            f"more than {MAX_ENUMERATED_PATHS} paths into {vertex!r} at "
            f"level {level}")
    # (edge indices from level k + 1 down, source at level k), extended one
    # level up at a time; each step keeps the deeper edges more significant
    paths = [((), vertex)]
    for k in range(level, 0, -1):
        paths = [((j,) + idx, src) for idx, v in paths
                 for j, src in enumerate(d.in_edges(k, v))]
    return [FinitePath(level, vertex, idx) for idx, _ in paths]


def vershik_successor(d, p: FinitePath):
    """The next path in lexicographic order among paths to p's terminal:
    increment the first non-maximal edge, reset the prefix to the minimal
    path into the new source.  Returns Maximal when every edge is maximal."""
    return next((FinitePath(p.level, p.terminal, tuple(indices))
                 for indices in _successors(d, p)), Maximal)


def _in_edge_maps(d, level: int) -> list[dict]:
    """Entry k, 1 <= k <= level, maps level-k vertices to in-edge sources."""
    if isinstance(d, StationaryOrderedDiagram):
        top = {a: (TOP,) * c for a, c in zip(d.alphabet, d.top_counts)}
        return [{}, top] + [dict(zip(d.alphabet, d.read_images))] * (level - 1)
    return [dict(zip(*pair)) for pair in zip(d.levels, d.incoming)]


def _successors(d, p: FinitePath, chain: list | None = None):
    """The paths after p into its terminal, in lexicographic order, up to
    the maximal one, as one index list rewritten in place and yielded.  The
    vertex chain is carried along, so a step rewrites only the edges up to
    its carry: amortised O(1) edges a step where vertices have two or more
    incoming edges.  A given `chain` (p's, as a list) is rewritten too."""
    indices = list(p.indices)
    if chain is None:
        chain = list(p.vertices(d))
    edges_at = _in_edge_maps(d, p.level)
    while True:
        for k in range(1, p.level + 1):
            edges = edges_at[k][chain[k]]
            if indices[k - 1] + 1 < len(edges):
                break
        else:
            return
        indices[k - 1] += 1
        source = edges[indices[k - 1]]
        # the prefix becomes the minimal path into the new source
        for m in range(k - 1, 0, -1):
            chain[m] = source
            indices[m - 1] = 0
            source = edges_at[m][source][0]
        yield indices


# ---------------------------------------------------------------------------
# extremal paths of stationary diagrams


@record
class PeriodicLabels:
    """A purely periodic vertex-label sequence: label at level n is
    period[(n - 1) % len(period)]."""

    period: tuple[str, ...]

    def label(self, n: int) -> str:
        return self.period[(n - 1) % len(self.period)]


@record
class ExtremalPaths:
    minimal: tuple[PeriodicLabels, ...]
    maximal: tuple[PeriodicLabels, ...]


def _extremal_cycles(step: dict) -> tuple[PeriodicLabels, ...]:
    """Label sequences (v_1, v_2, ...) with v_n = step[v_{n+1}] for all n.

    Every entry must lie on a cycle of the map `step`; on a cycle the map
    is a bijection, so each cycle vertex starts exactly one sequence: its
    cycle walked against the map.
    """
    cycles = (_cycle(step, a) for a in step)
    return tuple(PeriodicLabels((c[0],) + c[:0:-1]) for c in cycles if c)


def extremal_paths(d: StationaryOrderedDiagram) -> ExtremalPaths:
    """All minimal and all maximal infinite paths, as periodic label
    sequences.  A path is minimal (maximal) iff every edge is the first
    (last) incoming edge of its vertex, which pins each label to the first
    (last) letter of the next label's read image."""
    return ExtremalPaths(
        minimal=_extremal_cycles({a: d.read_image(a)[0] for a in d.alphabet}),
        maximal=_extremal_cycles({a: d.read_image(a)[-1] for a in d.alphabet}),
    )


# ---------------------------------------------------------------------------
# telescoping


def telescope(d: OrderedDiagram, level_picks) -> OrderedDiagram:
    """Compose the edge blocks between consecutive picked levels.

    A composed edge into v at picked level p is a path from the previous
    picked level into v; composed edges inherit the lexicographic order
    (deepest original edge most significant), matching path enumeration.
    """
    picks = list(level_picks)
    if not picks:
        raise DiagramError("empty pick list")
    if picks != sorted(set(picks)) or picks[0] < 1 or picks[-1] > d.depth:
        raise DiagramError("picks must be strictly increasing levels >= 1")

    def block_sources(top_level, k, v):
        """Ordered source labels at top_level of all edge blocks ending at
        (k, v), deepest edge most significant."""
        sources = [v]
        for level in range(k, top_level, -1):
            sources = [src for u in sources for src in d.in_edges(level, u)]
        return sources

    levels = [d.levels[0]]
    incoming = [()]
    prev = 0
    for p in picks:
        levels.append(d.levels[p])
        incoming.append(tuple(tuple(block_sources(prev, p, v))
                              for v in d.levels[p]))
        prev = p
    return OrderedDiagram(tuple(levels), tuple(incoming))


# ---------------------------------------------------------------------------
# orbit coding


def _min_continuation(d: StationaryOrderedDiagram, v: str):
    """The vertex one level deeper on the all-minimal continuation: an
    on-cycle preimage of v under the first-letter map when one exists, else
    the first preimage in alphabet order, else None."""
    first = {a: d.read_image(a)[0] for a in d.alphabet}
    cycle = _cycle(first, v)
    if cycle:
        return cycle[-1]
    return next((a for a in d.alphabet if first[a] == v), None)


def vershik_orbit_coding(d, start: FinitePath, steps: int, level: int,
                         max_to_min=None) -> tuple[str, ...]:
    """Iterate the successor from `start` and record the level-`level`
    vertex label at each of `steps` states, read off the vertex chain of
    one record-free walk (a deepening or a wrap restarts it from a path).

    When the current truncation is all-maximal, a stationary diagram is
    deepened along the all-minimal continuation (the infinite path is only
    truncated, not exhausted).  If the continuation stays maximal around a
    full cycle, the infinite path itself is maximal: the orbit wraps to the
    unique minimal path, or to the one assigned by max_to_min (a mapping
    from maximal period tuples to minimal period tuples).  Without either,
    ImproperOrdering is raised; a plain OrderedDiagram cannot deepen, so a
    maximal truncation at full depth raises as well.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if level < 1 or level > start.level:
        raise ValueError("coding level must be within the start path")
    stationary = isinstance(d, StationaryOrderedDiagram)
    current, chain = start, list(start.vertices(d))
    walk, indices = _successors(d, current, chain), start.indices
    out = []
    for _ in range(steps):
        out.append(chain[level])
        nxt = next(walk, None)
        while nxt is None:
            if not stationary:
                raise ImproperOrdering(
                    "maximal truncation at full depth; the diagram gives no "
                    "continuation to extend along")
            current = FinitePath(current.level, current.terminal,
                                 tuple(indices))
            deepened = _deepen_maximal(d, current)
            current = deepened or _wrap_maximal(d, current, max_to_min)
            chain = list(current.vertices(d))
            walk, indices = _successors(d, current, chain), current.indices
            # a wrap lands on the next state; a deepening only extends it
            nxt = indices if deepened is None else next(walk, None)
        indices = nxt
    return tuple(out)


def _deepen_maximal(d: StationaryOrderedDiagram, p: FinitePath):
    """Extend an all-maximal truncation along the all-minimal continuation
    until some appended edge is non-maximal.  Returns the extended path, or
    None when the continuation keeps appending maximal edges around a full
    cycle (the infinite path is maximal)."""
    level, terminal, indices = p.level, p.terminal, p.indices
    for _ in range(2 * len(d.alphabet) + 1):
        deeper = _min_continuation(d, terminal)
        if deeper is None:
            return None
        edges = d.in_edges(level + 1, deeper)
        # the appended edge: the first occurrence of terminal in the read
        # image, which is position 0 on the minimal continuation
        level, terminal, indices = level + 1, deeper, indices + (0,)
        if len(edges) > 1:
            return FinitePath(level, terminal, indices)
    return None


def _wrap_maximal(d: StationaryOrderedDiagram, p: FinitePath, max_to_min):
    """Successor of a maximal infinite path: the assigned minimal path,
    truncated at the current depth."""
    ex = extremal_paths(d)
    if max_to_min is not None:
        v1 = p.vertices(d)[1]
        key = next((m.period for m in ex.maximal if m.period[0] == v1), None)
        if key is not None and key in max_to_min:
            target = PeriodicLabels(tuple(max_to_min[key]))
            return minimal_path(d, p.level, target.label(p.level))
        raise ImproperOrdering(
            "maximal path not covered by the max-to-min assignment")
    if len(ex.minimal) == 1:
        return minimal_path(d, p.level, ex.minimal[0].label(p.level))
    raise ImproperOrdering(
        f"{len(ex.minimal)} minimal paths; pass an explicit max-to-min "
        "assignment")


# ---------------------------------------------------------------------------
# DOT export


def _dot_id(name: str) -> str:
    """Quote unless the name is already a bare DOT identifier."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        return name
    return '"' + name.replace('"', '\\"') + '"'


def export_dot(d: OrderedDiagram) -> str:
    """Graphviz text for an ordered diagram.

    Vertices are named L<level>_<label>; each edge carries its order index
    as the label attribute.  Edges are emitted sorted by (level,
    range label, order index), so equal diagrams export byte-identically.
    """
    lines = ["digraph ordered_diagram {"]
    for k, level in enumerate(d.levels):
        for v in sorted(level):
            lines.append(f'  {_dot_id(f"L{k}_{v}")};')
    rows = []
    for k in range(1, len(d.levels)):
        for v in d.levels[k]:
            for j, src in enumerate(d.in_edges(k, v)):
                rows.append((k, v, j, src))
    for k, v, j, src in sorted(rows):
        lines.append(f'  {_dot_id(f"L{k - 1}_{src}")} -> '
                     f'{_dot_id(f"L{k}_{v}")} [label="{j}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
