"""Command-line surface.

Every subcommand is a pure function of the input file and the flags: the
report is a sequence of ``key: value`` lines in a fixed order, so a rerun
with the same inputs is byte-identical.  Exit codes: 0 on success, 2 on
unusable input (bad grammar, unreadable file, bad flags), 3 when an
operation fails for scale or structural reasons (a short window, a missing
nesting structure, an unbounded short block, a box matrix over its size
budget) -- those failures still print
the report head plus an ``error:`` line, so the verdict is diffable too.

Each subcommand imports the library layers it runs inside its own body, so
one call loads (and, without a bytecode cache, compiles) only those.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import TYPE_CHECKING

from .errors import (AlphabetError, CountExceedsImage, DecompositionFailure,
                     DiagramError, GrammarError, ImproperOrdering,
                     InsufficientGrowth, NoNesting, ScaleTooSmall,
                     ShortLettersPresent, SpanMismatch, SymbolTooLarge,
                     UnboundedShorts, WindowTooShort)
from .words import parse_substitution

if TYPE_CHECKING:
    from .diagrams import StationaryOrderedDiagram
    from .words import Substitution

_INPUT_ERRORS = (GrammarError, AlphabetError, OSError, ValueError)
_DOMAIN_ERRORS = (ScaleTooSmall, WindowTooShort, InsufficientGrowth,
                  UnboundedShorts, NoNesting, CountExceedsImage,
                  ShortLettersPresent, SpanMismatch, DecompositionFailure,
                  ImproperOrdering, DiagramError, SymbolTooLarge)


def _load(path: str) -> tuple[Substitution, str]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_substitution(text), text


def _render(letters) -> str:
    """One word as text; spaces only when some letter is multi-character."""
    if all(len(a) == 1 for a in letters):
        return "".join(letters)
    return " ".join(letters)


def _head(args, text: str) -> list[str]:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    lines = [f"command: {args.command}", f"input: sha256:{digest}"]
    for flag in _SIGNATURES[args.command]:
        lines.append(f"{flag}: {getattr(args, flag)}")
    if getattr(args, "seed", None) is not None:
        lines.append(f"seed: {args.seed}")
    return lines


def _diagram(s: Substitution, method: str) -> StationaryOrderedDiagram:
    from .constructions import diagram_via_derivative, nesting_diagram

    if method == "nesting":
        return nesting_diagram(s)
    return diagram_via_derivative(s)


# ---------------------------------------------------------------------------
# subcommand bodies (substitution, args) -> report lines after the head


def _cmd_analyze(s, args):
    from .words import (Unbounded, classify_letters, nesting_class, norms,
                        short_block_bound)

    lines = [f"letters: {' '.join(s.alphabet)}"]
    for a in s.alphabet:
        lines.append(f"image {a}: {_render(s.image(a))}")
    kinds = classify_letters(s)
    lines.append(f"long: {' '.join(kinds.long) or '-'}")
    lines.append(f"short: {' '.join(kinds.short) or '-'}")
    lines.append(f"nesting: {nesting_class(s).value}")
    lo, hi = norms(s, 1)
    lines.append(f"norms: min={lo} max={hi}")
    for a in s.alphabet:
        row = " ".join(str(s.image(a).count(b)) for b in s.alphabet)
        lines.append(f"incidence {a}: {row}")
    bound = short_block_bound(s, cap=args.cap)
    if isinstance(bound, Unbounded):
        lines.append(f"short-block-bound: unbounded (cap {bound.cap})")
    else:
        lines.append(f"short-block-bound: {bound} (cap {args.cap})")
    return lines


def _cmd_language(s, args):
    from .words import factor_language

    # codes follow the alphabet order, so (length, code) is sorted_words'
    # order; rule-file letters are single characters, so words join bare
    words = sorted(factor_language(s, args.cap).encoded,
                   key=lambda w: (len(w), w))
    lines = [f"factors: {len(words)}"]
    lines.extend(f"word: {''.join(s.decode(w))}" for w in words)
    return lines


def _cmd_classify(s, args):
    from .words import (Unbounded, classify_letters, nesting_class,
                        short_block_bound)

    kinds = classify_letters(s)
    lines = [f"long: {' '.join(kinds.long) or '-'}",
             f"short: {' '.join(kinds.short) or '-'}",
             f"nesting: {nesting_class(s).value}"]
    bound = short_block_bound(s, cap=args.cap)
    if isinstance(bound, Unbounded):
        raise UnboundedShorts(
            f"all-short factors keep growing up to length {bound.cap}")
    lines.append(f"short-block-bound: {bound} (cap {args.cap})")
    return lines


def _cmd_periodic_check(s, args):
    from .words import NoneUpToBounds, periodicity_witness_search

    found = periodicity_witness_search(s, args.cap, args.steps)
    if isinstance(found, NoneUpToBounds):
        return [f"witness: none (len<={found.max_len} pow<={found.max_pow})"]
    return [f"witness: {_render(found)}",
            f"repeated: {args.steps}"]


def _cmd_nesting(s, args):
    from .constructions import nesting_matching_rule, nesting_vocabulary

    vocab = nesting_vocabulary(s)
    lines = [f"vocabulary: {len(vocab)}"]
    for mw in vocab:
        lines.append(f"word {mw.label}: height={mw.base_height}")
    for mw in vocab:
        children = nesting_matching_rule(s, mw)
        lines.append(
            f"rule {mw.label}: {' '.join(child.label for child in children)}")
    return lines


def _cmd_minimal(s, args):
    from .constructions import minimal_components

    comps = minimal_components(s, scale=args.cap)
    lines = [f"components: {len(comps)} (scale {args.cap})"]
    for comp in comps:
        pair = "-" if comp.pair is None else f"{comp.pair[0]},{comp.pair[1]}"
        period = "-" if comp.period is None else comp.period
        lines.append(f"component {' '.join(comp.seeds)}: pair={pair} "
                     f"period={period}")
    return lines


def _cmd_return_words(s, args):
    from .constructions import return_words

    rs = return_words(s, scale=args.cap)
    lines = [f"pairs: {' '.join(f'{l},{r}' for l, r in rs.pairs)}",
             f"power: {rs.power}",
             f"vocabulary: {len(rs.vocabulary)}"]
    for idx in rs.indices:
        lines.append(f"return-word {idx}: {rs.word_text(idx)}")
    return lines


def _cmd_derive(s, args):
    from .constructions import derivative_substitution, return_words

    rs = return_words(s, scale=args.cap)
    tau = derivative_substitution(rs, s)
    lines = [f"power: {rs.power}"]
    for idx in rs.indices:
        lines.append(f"return-word {idx}: {rs.word_text(idx)}")
    for idx in tau.alphabet:
        lines.append(f"tau {idx}: {_render(tau.image(idx))}")
    return lines


def _cmd_build_diagram(s, args):
    from .diagrams import export_dot

    d = _diagram(s, args.method)
    if args.format == "dot":
        return [export_dot(d.unroll(args.depth))]
    lines = [f"vertices: {len(d.alphabet)}"]
    for v in d.alphabet:
        lines.append(f"top {v}: {d.top_count(v)}")
    for v in d.alphabet:
        lines.append(f"reads {v}: {_render(d.read_image(v))}")
    return lines


def _cmd_read(s, args):
    from .diagrams import read_substitution

    d = _diagram(s, args.method)
    tau = read_substitution(d)
    lines = []
    for v in tau.alphabet:
        lines.append(f"read {v}: {_render(tau.image(v))}")
    return lines


def _cmd_vershik(s, args):
    from .diagrams import minimal_path, vershik_orbit_coding

    d = _diagram(s, args.method)
    start = minimal_path(d, args.depth, d.alphabet[0])
    lines = [f"start: level={start.level} terminal={start.terminal} "
             f"indices={','.join(str(i) for i in start.indices)}"]
    if args.steps > 0:
        labels = vershik_orbit_coding(d, start, args.steps, level=1)
        lines.append(f"coding: {' '.join(labels)}")
    return lines


def _cmd_recognize(s, args):
    from .recognize import AmbiguityReport, recognize_window
    from .words import expand

    length = 2 * args.radius + 1
    k, word = 0, (s.alphabet[0],)
    while len(word) < length:
        k += 1
        word = expand(s, (s.alphabet[0],), k)
    center = len(word) // 2
    window = word[center - args.radius:center + args.radius + 1]
    lines = [f"window: {_render(window)}"]
    result = recognize_window(s, window, args.depth)
    if isinstance(result, AmbiguityReport):
        lines.append(f"verdict: ambiguous at level {result.level}")
        lines.append(f"survivors: {len(result.tilings)}")
        if result.note:
            lines.append(f"note: {result.note}")
        return lines
    lines.append(f"verdict: unique to depth {args.depth}")
    for i, level in enumerate(result.levels, start=1):
        cuts = " ".join("-" if b is None else str(b) for b in level.bounds)
        lines.append(f"cuts {i}: {cuts}")
    return lines


def _cmd_jsymbol(s, args):
    from .symbols import box_matrix_text, build_j_symbol

    lines = []
    for a in s.alphabet:
        symbol = build_j_symbol(s, a, args.depth)
        lines.append(f"symbol {a}: width={symbol.width}")
        for row in box_matrix_text(symbol).splitlines():
            lines.append(f"symbol {a} | {row}")
    return lines


def _cmd_lambda(s, args):
    from .phase import core_membership, lambda_seeds, lambda_window

    seeds = lambda_seeds(s)
    lines = [f"seeds: {len(seeds)}"]
    for seed in seeds:
        lines.append(
            f"seed {seed.left}.{seed.right}: period={seed.period}")
    for seed in seeds:
        window = lambda_window(s, seed, args.radius)
        check = core_membership(s, window, args.depth)
        verdict = ("consistent" if check.consistent
                   else f"refuted at level {check.refuted_at}")
        lines.append(f"window {seed.left}.{seed.right}: {window}")
        lines.append(
            f"core {seed.left}.{seed.right}: {verdict} (depth {args.depth})")
    return lines


def _cmd_export(s, args):
    from .diagrams import export_dot

    d = _diagram(s, args.method)
    return [export_dot(d.unroll(args.depth))]


# ---------------------------------------------------------------------------
# wiring

_COMMANDS = {
    "analyze": (_cmd_analyze, "alphabet, images, classification, incidence"),
    "language": (_cmd_language, "factor words up to --cap"),
    "classify": (_cmd_classify, "letter kinds and the short-block bound"),
    "periodic-check": (_cmd_periodic_check,
                       "search for a repeated factor up to the bounds"),
    "nesting": (_cmd_nesting, "marked-word vocabulary and matching rule"),
    "minimal": (_cmd_minimal, "minimal components at --cap scale"),
    "return-words": (_cmd_return_words, "junction pairs and return words"),
    "derive": (_cmd_derive, "return words plus the derived substitution"),
    "build-diagram": (_cmd_build_diagram,
                      "ordered diagram as a report or DOT"),
    "read": (_cmd_read, "substitution read back off the diagram"),
    "vershik": (_cmd_vershik, "successor orbit coding from the minimal path"),
    "recognize": (_cmd_recognize, "parse a central window of the fixed point"),
    "jsymbol": (_cmd_jsymbol, "box matrices of the letter towers"),
    "lambda": (_cmd_lambda, "boundary seeds, their windows, core checks"),
    "export": (_cmd_export, "DOT text of the unrolled diagram"),
}

_FLAGS = {
    "cap": dict(type=int, help="size bound (scale, word length, cap)"),
    "depth": dict(type=int, help="levels to build or descend"),
    "radius": dict(type=int, help="half-width of windows"),
    "steps": dict(type=int, help="iteration count"),
    "method": dict(choices=("nesting", "derivative"), default="derivative",
                   help="diagram construction to use"),
    "format": dict(choices=("report", "dot"), default="report",
                   help="output form"),
}

# flags each subcommand takes, with its own defaults
_SIGNATURES: dict[str, dict[str, object]] = {
    "analyze": {"cap": 16},
    "language": {"cap": 4},
    "classify": {"cap": 16},
    "periodic-check": {"cap": 3, "steps": 4},
    "nesting": {},
    "minimal": {"cap": 8},
    "return-words": {"cap": 8},
    "derive": {"cap": 8},
    "build-diagram": {"method": None, "format": None, "depth": 2},
    "read": {"method": None},
    "vershik": {"method": None, "depth": 6, "steps": 16},
    "recognize": {"radius": 16, "depth": 3},
    "jsymbol": {"depth": 2},
    "lambda": {"radius": 8, "depth": 3},
    "export": {"method": None, "depth": 2},
}


# least usable value of each numeric flag (jsymbol and lambda also take
# --depth 0, no levels); a smaller value is a flag error, exit 2
_LEAST = {"cap": 1, "depth": 1, "radius": 0, "steps": 0}
_LEAST_BY_COMMAND = {("jsymbol", "depth"): 0, ("lambda", "depth"): 0}


def _build_parser(argv) -> argparse.ArgumentParser:
    """Every subcommand is listed, for the top-level help and choices, but
    only the first one named in argv, the one argparse dispatches to, gets
    its flags."""
    parser = argparse.ArgumentParser(
        prog="adicshift",
        description="substitution systems, their diagrams, and their codings")
    subs = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (_, blurb) in _COMMANDS.items():
        sub = subs.add_parser(name, help=blurb)
        if name != chosen:
            continue
        sub.add_argument("--sub", required=True,
                         help="substitution file (letter -> word lines)")
        sub.add_argument("--seed", type=int, default=None,
                         help="recorded in the report; no sampling is used")
        for flag, default in _SIGNATURES[name].items():
            kwargs = dict(_FLAGS[flag])
            if default is not None:
                kwargs["default"] = default
            sub.add_argument(f"--{flag}", **kwargs)
    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        for flag, least in _LEAST.items():
            least = _LEAST_BY_COMMAND.get((args.command, flag), least)
            if getattr(args, flag, least) < least:
                raise ValueError(f"--{flag} must be >= {least}")
        s, text = _load(args.sub)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # raw DOT has no report head: the text must feed graphviz directly
    raw_dot = (args.command == "export"
               or getattr(args, "format", "report") == "dot")
    lines = [] if raw_dot else _head(args, text)
    try:
        lines.extend(_COMMANDS[args.command][0](s, args))
    except _DOMAIN_ERRORS as exc:
        if raw_dot:
            print(f"error: {exc}", file=sys.stderr)
        else:
            lines.append(f"error: {exc}")
            print("\n".join(lines))
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
