"""Regenerate panel.txt, the pool of substitutions whose first lines
diagram-survey runs.

Candidates are Chacon-like: s -> s, plus two or three long letters whose
images have 3 to 5 letters, start and end with a long letter and never
hold two s in a row; the long letters' occurrence matrix is primitive and
some image holds an s.  They are drawn from a fixed generator seed.

A candidate joins the pool when return_words finds its return words at
scale 8 or 16.  A candidate whose marker gaps exceed 16 is left out for
its cost: diagram_via_derivative then retries at scales 32, 64 and 128,
and one call takes from 0.4 s to more than 20 s.  A candidate that the
return-word route refuses with a domain error is left out as outside the
route's scope.  Both lists go to standard error.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_panel.py
"""

from __future__ import annotations

import os
import random
import sys

from bench_oracles import is_primitive

POOL_SIZE = 64
GENERATOR_SEED = 2007
HERE = os.path.dirname(os.path.abspath(__file__))


def candidate(rng: random.Random) -> dict[str, str]:
    longs = "abc"[:rng.choice((2, 3))]
    while True:
        rules = {}
        for a in longs:
            size = rng.randint(3, 5)
            word = [rng.choice(longs)]
            while len(word) < size - 1:
                if word[-1] != "s" and rng.random() < 0.3:
                    word.append("s")
                else:
                    word.append(rng.choice(longs))
            word.append(rng.choice(longs))
            rules[a] = "".join(word)
        rules["s"] = "s"
        if any("s" in rules[a] for a in longs) and is_primitive(rules, longs):
            return rules


def rule_line(rules: dict[str, str]) -> str:
    return "; ".join(f"{a} -> {img}" for a, img in rules.items())


def main() -> int:
    from adicshift import parse_substitution, return_words
    from adicshift.errors import DecompositionFailure, ScaleTooSmall

    rng = random.Random(GENERATOR_SEED)
    pool, seen = [], set()
    costly, refused = [], []
    while len(pool) < POOL_SIZE:
        rules = candidate(rng)
        line = rule_line(rules)
        if line in seen:
            continue
        seen.add(line)
        s = parse_substitution(line.replace("; ", "\n"))
        for scale in (8, 16):
            try:
                return_words(s, scale)
            except ScaleTooSmall:
                continue
            except DecompositionFailure as exc:
                refused.append(f"{line}  ({exc})")
            else:
                pool.append(line)
            break
        else:
            costly.append(line)
    with open(os.path.join(HERE, "panel.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"# generated by make_panel.py, generator seed "
                 f"{GENERATOR_SEED}\n")
        fh.write("".join(line + "\n" for line in pool))
    print(f"kept {len(pool)}; left out for cost (scale > 16): "
          f"{len(costly)}; refused: {len(refused)}", file=sys.stderr)
    for line in costly:
        print(f"cost: {line}", file=sys.stderr)
    for line in refused:
        print(f"refused: {line}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
