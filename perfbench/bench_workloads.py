"""The three workloads: their inputs, made from a seed, the operation each
input drives, and the check of each output against bench_oracles.

A workload's ``inputs(seed)`` is one round: the list of operations the
runner times one at a time.  ``run(op)`` calls adicshift; ``check(op,
result)`` returns None when the output is right, FAILED when the operation
failed, or a message naming what is wrong.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import bench_oracles as orc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

FAILED = "failed"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# recognize-scan


class RecognizeScan:
    """recognize_window at depth 3 on windows of fixed points, plus the
    boundary windows of the all-long systems."""

    name = "recognize-scan"
    DEPTH = 3
    PER_LENGTH = 40         # seeded windows per (system, length)
    FIXED_PER_LENGTH = 20   # Fibonacci windows per length
    LAMBDA_RADIUS = 16
    # name: (rules, fixed-point letter, power, window lengths)
    SYSTEMS = {
        "chacon": ("0 -> 00s0\ns -> s\n1 -> 0110", "0", 7, (65, 129)),
        "thue-morse": ("a -> ab\nb -> ba", "a", 12, (65, 129)),
        "period-doubling": ("a -> ab\nb -> aa", "a", 12, (65, 129)),
        "fibonacci": ("a -> ab\nb -> a", "a", 14, (65, 129)),
    }
    # Fibonacci windows do not depend on the seed: some of them meet the
    # edge-tile fault of recognize._annotate_chain, and they must fail
    # alike in every run.  The first is sigma^12(a)[166:231].
    FIXED = {"fibonacci": 166}

    def __init__(self, adicshift):
        self.lib = adicshift
        self._truth: dict = {}
        self._seeds: dict = {}

    def inputs(self, seed: int):
        rng = random.Random(seed)
        ops = []
        for name, (text, letter, k, lengths) in self.SYSTEMS.items():
            s = self.lib.parse_substitution(text)
            word = orc.expand_word(orc.parse_rules(text), letter, k)
            for length in lengths:
                room = len(word) - length
                if name in self.FIXED:
                    first = self.FIXED[name]
                    n = self.FIXED_PER_LENGTH
                    starts = [first + i * (room - first) // (n - 1)
                              for i in range(n)]
                else:
                    starts = [rng.randrange(room + 1)
                              for _ in range(self.PER_LENGTH)]
                for p in starts:
                    ops.append(("window", name, s, p,
                                tuple(word[p:p + length])))
        for name, (text, _, _, _) in self.SYSTEMS.items():
            rules = orc.parse_rules(text)
            if orc.long_letters(rules) == set(rules):
                s = self.lib.parse_substitution(text)
                ops.append(("lambda", name, s, self.LAMBDA_RADIUS, None))
        return ops

    def run(self, op):
        kind, _, s, arg, window = op
        if kind == "window":
            return self.lib.recognize_window(s, window, self.DEPTH)
        seeds = self.lib.lambda_seeds(s)
        windows = [self.lib.lambda_window(s, seed, arg) for seed in seeds]
        return seeds, windows, [self.lib.core_membership(s, w, self.DEPTH)
                                for w in windows]

    def check(self, op, result):
        kind, name, s, arg, window = op
        text, letter, k, _ = self.SYSTEMS[name]
        rules = orc.parse_rules(text)
        if kind == "lambda":
            return self._check_lambda(rules, arg, result)
        if type(result).__name__ != "ParseChain":
            return FAILED
        if tuple(result.base) != window:
            return "parse base differs from the window"
        if len(result.levels) != self.DEPTH:
            return f"{len(result.levels)} levels, expected {self.DEPTH}"
        unit = max(len(img) for img in rules.values())
        unit = unit if unit >= 2 else 0
        truth = [orc.window_tiles(*self._tiles(name, rules, letter, k, j),
                                  arg, len(window))
                 for j in range(1, self.DEPTH + 1)]
        levels = [(lvl.parent, lvl.bounds) for lvl in result.levels]
        wrong = orc.parse_matches_truth(levels, truth, len(window), unit)
        return f"{name} window at {arg}: {wrong}" if wrong else None

    def _tiles(self, name, rules, letter, k, j):
        key = (name, j)
        if key not in self._truth:
            self._truth[key] = orc.level_tiles(rules, letter, k, j)
        return self._truth[key]

    def _check_lambda(self, rules, radius, result):
        seeds, windows, checks = result
        key = tuple(sorted(rules.items()))
        if key not in self._seeds:
            self._seeds[key] = orc.lambda_pairs(rules, orc.factor_set(rules, 2))
        expected = self._seeds[key]
        got = {(seed.left, seed.right): seed.period for seed in seeds}
        if got != expected:
            return f"lambda seeds {got} != {expected}"
        for seed, window, verdict in zip(seeds, windows, checks):
            text = orc.lambda_window_text(rules, seed.left, seed.right,
                                          seed.period, radius)
            if "".join(window.letters) != text or window.marker != radius:
                return f"lambda window {seed.left}.{seed.right} is wrong"
            if not verdict.consistent or verdict.depth != self.DEPTH:
                return f"boundary window {seed.left}.{seed.right}: {verdict}"
        return None


# ---------------------------------------------------------------------------
# diagram-survey


class DiagramSurvey:
    """A fixed set of Chacon-like substitutions through both diagram
    routes, an orbit coding and a budgeted witness search, plus odometer
    witness searches.  Each stage is its own operation; the later stages
    of a system use the diagram its derive operation built in the same
    round."""

    name = "diagram-survey"
    SYSTEMS = 16
    ORBIT_DEPTH, ORBIT_STEPS = 8, 256
    WITNESS_ROWS, WITNESS_RADIUS, BUDGET = 2, 16, 500
    PANEL_FILE = os.path.join(HERE, "panel.txt")
    STAGES = ("derive", "nesting", "orbit", "witness")

    def __init__(self, adicshift):
        self.lib = adicshift
        self._diagrams: dict = {}
        self._expected: dict = {}   # per-system values the checks reuse

    def inputs(self, seed: int):
        rng = random.Random(seed)
        with open(self.PANEL_FILE, encoding="utf-8") as fh:
            pool = [line.strip() for line in fh
                    if line.strip() and not line.startswith("#")]
        # the same systems in every run, so the round's cost does not hang
        # on the seed; the seed orders them and picks each orbit's vertex
        ops = []
        for line in rng.sample(pool[:self.SYSTEMS], self.SYSTEMS):
            s = self.lib.parse_substitution(line.replace(";", "\n"))
            start = rng.randrange(64)
            ops.extend((stage, line, s, start) for stage in self.STAGES)
        # every odometer shape once: their costs differ, so the seed only
        # orders them
        odometers = []
        for width in (2, 3):
            for top in (1, 2, 3):
                for rows in range(1, 7):
                    d = self.lib.StationaryOrderedDiagram(
                        ("v",), (("v",) * width,), (top,))
                    radius = 16 if (width + top + rows) % 2 else 32
                    odometers.append(("odometer", d, rows, radius))
        ops.extend(rng.sample(odometers, len(odometers)))
        return ops

    def run(self, op):
        lib = self.lib
        if op[0] == "odometer":
            _, d, rows, radius = op
            return lib.expansiveness_witness_search(d, rows, radius=radius,
                                                    budget=self.BUDGET)
        stage, line, s, start = op
        if stage == "derive":
            self._diagrams.pop(line, None)  # no stale diagram if this fails
            self._diagrams[line] = lib.diagram_via_derivative(s)
            return self._diagrams[line]
        if stage == "nesting":
            return lib.nesting_diagram(s)
        d = self._diagrams[line]
        if stage == "orbit":
            path = lib.minimal_path(d, self.ORBIT_DEPTH,
                                    d.alphabet[start % len(d.alphabet)])
            return lib.vershik_orbit_coding(d, path, self.ORBIT_STEPS,
                                            level=1)
        return lib.expansiveness_witness_search(
            d, self.WITNESS_ROWS, radius=self.WITNESS_RADIUS,
            budget=self.BUDGET)

    def check(self, op, result):
        if op[0] == "odometer":
            _, d, rows, radius = op
            if type(result).__name__ != "CompatibleWitness":
                return f"odometer search found no witness: {result}"
            return check_witness(d, result, rows, radius)
        stage, line, s, _ = op
        rules = orc.parse_rules(line)
        if stage == "nesting":
            wrong = self._check_nesting(line, rules, result)
        elif stage == "witness":
            wrong = self._check_verdict(self._diagrams[line], result)
        else:
            power, phi = self._once(("phi", line), lambda: self._phi(s))
            wrong = (self._check_derivative(rules, result, power, phi)
                     if stage == "derive" else
                     self._check_coding(rules, self._diagrams[line], result,
                                        phi, line))
        return f"{line}: {wrong}" if wrong else None

    def _once(self, key, compute):
        """Expected values depend only on the system: compute them in the
        first round and reuse them, so checks leave time for more rounds."""
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def _check_verdict(self, d, verdict):
        if type(verdict).__name__ == "CompatibleWitness":
            return check_witness(d, verdict, self.WITNESS_ROWS,
                                 self.WITNESS_RADIUS)
        if (verdict.budget, verdict.radius) != (self.BUDGET,
                                                self.WITNESS_RADIUS) \
                or verdict.examined > self.BUDGET:
            return f"inconsistent verdict {verdict}"
        return None

    def _phi(self, s):
        """(power, {index: return word}) at the least scale that fits."""
        for scale in (8, 16, 32, 64, 128):
            try:
                rs = self.lib.return_words(s, scale)
            except self.lib.ScaleTooSmall:
                continue
            return rs.power, {i: "".join(w)
                              for i, w in zip(rs.indices, rs.vocabulary)}
        raise ValueError("no return-word scale fits")

    def _check_derivative(self, rules, d, power, phi):
        """phi(tau(i)) = sigma^p(phi(i)), with the return words as phi and
        their lengths as the top counts."""
        if tuple(d.alphabet) != tuple(phi):
            return "diagram vertices are not the return-word indices"
        for i, img, top in zip(d.alphabet, d.read_images, d.top_counts):
            if top != len(phi[i]):
                return f"top count {top} != |phi({i})|"
            if "".join(phi[j] for j in img) != orc.expand_word(
                    rules, phi[i], power):
                return f"phi(tau({i})) != sigma^{power}(phi({i}))"
        return None

    def _check_nesting(self, line, rules, nested):
        got = dict(zip(nested.alphabet, nested.top_counts))
        expected = self._once(("marked", line),
                              lambda: orc.marked_vocabulary(rules))
        if got != expected:
            return f"marked words {got} != {expected}"
        return None

    def _check_coding(self, rules, d, coding, phi, line):
        """Project the level-1 coding through the return words: each tower
        is climbed floor to top, and the letters read must be a factor of
        the substitution's language."""
        heights = dict(zip(d.alphabet, d.top_counts))
        letters, k = [], 0
        while k < len(coding):
            v, run = coding[k], 1
            while (k + run < len(coding) and coding[k + run] == v
                   and run < heights[v]):
                run += 1
            if run != heights[v] and k + run != len(coding):
                return f"tower {v} left after {run} of {heights[v]} steps"
            letters.append(phi[v][:run])
            k += run
        word = "".join(letters)
        if len(word) != self.ORBIT_STEPS:
            return f"coding projects to {len(word)} letters"
        texts = self._once(("texts", line), lambda: self._long_texts(rules))
        if not any(word in text for text in texts):
            return "projected coding is not a factor of the language"
        return None

    @staticmethod
    def _long_texts(rules):
        return [orc.expand_to_length(rules, a, 60_000)[1]
                for a in sorted(orc.long_letters(rules))]


def check_witness(d, witness, rows: int, radius: int):
    """Re-check a CompatibleWitness with the plain path successor."""
    plain = orc.PlainDiagram(dict(zip(d.alphabet, d.read_images)),
                             dict(zip(d.alphabet, d.top_counts)))
    left = (witness.left.terminal, witness.left.indices)
    right = (witness.right.terminal, witness.right.indices)
    if left == right:
        return "witness paths coincide"
    depth = orc.agreement_depth(plain, left, right, radius, rows)
    if depth < rows or witness.depth < rows:
        return (f"witness agrees to row {depth} (reported {witness.depth}), "
                f"needs {rows}")
    return None


# ---------------------------------------------------------------------------
# cli-oneshot


class CliOneshot:
    """Every subcommand as its own ``adicshift`` process on fixed files."""

    name = "cli-oneshot"
    SUBS = ("chacon", "thue_morse", "fibonacci")
    COMMANDS = (
        ("analyze",),
        ("language", "--cap", "40"),
        ("classify",),
        ("periodic-check",),
        ("nesting",),
        ("minimal",),
        ("return-words",),
        ("derive",),
        ("build-diagram",),
        ("build-diagram", "--method", "nesting"),
        ("build-diagram", "--method", "nesting", "--format", "dot"),
        ("read",),
        ("vershik", "--steps", "24"),
        ("recognize", "--radius", "128"),
        ("jsymbol", "--depth", "2"),
        ("export", "--depth", "3"),
        ("lambda", "--radius", "8"),
    )
    ENTRY = "import sys; from adicshift.cli import main; sys.exit(main())"

    def __init__(self):
        self._factors: dict = {}

    def inputs(self, seed: int):
        ops = []
        for sub in self.SUBS:
            path = os.path.join("perfbench", "subs", f"{sub}.sub")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                rules = orc.parse_rules(fh.read())
            for command in self.COMMANDS:
                if command[0] == "lambda" and orc.long_letters(rules) != set(
                        rules):
                    continue        # boundary windows need all-long letters
                ops.append(command + ("--sub", path, "--seed", str(seed)))
        return ops

    def run(self, argv):
        done = subprocess.run([sys.executable, "-c", self.ENTRY, *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, check=False)
        return done.returncode, done.stdout

    def check(self, argv, result):
        code, out = result
        if code != 0:
            return f"{' '.join(argv)}: exit code {code}"
        path = argv[argv.index("--sub") + 1]
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            rules = orc.parse_rules(fh.read())
        wrong = check_report(argv, out, rules, self._factors)
        if wrong in (None, FAILED):
            return wrong
        return f"{' '.join(argv)}: {wrong}"


def _report(out: str) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        fields.setdefault(key, []).append(value)
    return fields


def check_report(argv, out: str, rules, cache) -> str | None:
    """Compare one CLI report with the oracles."""
    command = argv[0]
    if "dot" in argv or command == "export":
        ok = out.startswith("digraph") and out.rstrip().endswith("}")
        return None if ok else "not a DOT graph"
    fields = _report(out)
    if fields.get("command") != [command]:
        return "report head is missing"

    def factors(cap):
        key = (tuple(sorted(rules.items())), cap)
        if key not in cache:
            cache[key] = orc.factor_set(rules, cap)
        return cache[key]

    letters = list(rules)
    if command == "analyze":
        for a in letters:
            counts = " ".join(str(rules[a].count(b)) for b in letters)
            if fields.get(f"incidence {a}") != [counts]:
                return f"incidence row {a} differs"
    elif command == "language":
        cap = int(argv[argv.index("--cap") + 1])
        n = len(factors(cap))
        if fields.get("factors") != [str(n)] or len(fields["word"]) != n:
            return f"factor count differs from {n}"
    elif command == "classify":
        longs = orc.long_letters(rules)
        if fields.get("long") != [" ".join(a for a in letters if a in longs)]:
            return "long letters differ"
    elif command == "periodic-check":
        lang = factors(12)
        found = [u for n in (1, 2, 3) for u in sorted(
            w for w in lang if len(w) == n) if u * 4 in lang]
        if (fields.get("witness") == ["none (len<=3 pow<=4)"]) != (not found):
            return f"periodic witness {fields.get('witness')} vs {found[:1]}"
    elif command == "nesting":
        words = orc.marked_vocabulary(rules)
        got = {line.split(" ", 1)[1].split(":")[0]: int(v.split("=")[1])
               for line in out.splitlines() if line.startswith("word ")
               for v in [line.split(": ", 1)[1]]}
        if got != words:
            return f"marked words {got} != {words}"
    elif command == "derive":
        phi = {k.split()[1]: v[0] for k, v in fields.items()
               if k.startswith("return-word ")}
        power = int(fields["power"][0])
        spaced = any(len(i) > 1 for i in phi)     # how the CLI renders words
        for k, v in fields.items():
            if k.startswith("tau "):
                i = k.split()[1]
                letters = v[0].split() if spaced else list(v[0])
                image = "".join(phi[j] for j in letters)
                if image != orc.expand_word(rules, phi[i], power):
                    return f"phi(tau({i})) != sigma^{power}(phi({i}))"
    elif command == "return-words":
        words = [v[0] for k, v in fields.items()
                 if k.startswith("return-word ")]
        lang = factors(max(len(w) for w in words))
        if fields.get("vocabulary") != [str(len(words))] or not all(
                w in lang for w in words):
            return "return words are not language factors"
    elif command == "vershik":
        steps = int(argv[argv.index("--steps") + 1])
        if len(fields.get("coding", [""])[0].split()) != steps:
            return "coding length differs"
    elif command == "recognize":
        return _check_recognize_report(argv, fields, rules)
    elif command == "jsymbol":
        for a in letters:
            width = len(orc.expand_word(rules, a, 2))
            if fields.get(f"symbol {a}") != [f"width={width}"]:
                return f"symbol {a} width differs from {width}"
    elif command == "lambda":
        radius = int(argv[argv.index("--radius") + 1])
        pairs = orc.lambda_pairs(rules, factors(2))
        if fields.get("seeds") != [str(len(pairs))]:
            return "seed count differs"
        for (a, b), period in pairs.items():
            text = orc.lambda_window_text(rules, a, b, period, radius)
            if fields.get(f"seed {a}.{b}") != [f"period={period}"]:
                return f"seed {a}.{b} differs"
            if fields.get(f"window {a}.{b}") != [
                    f"{text[:radius]}.{text[radius:]}"]:
                return f"window {a}.{b} differs"
            if not fields.get(f"core {a}.{b}", [""])[0].startswith(
                    "consistent"):
                return f"boundary window {a}.{b} is not consistent"
    return None


def _check_recognize_report(argv, fields, rules):
    """The cut lines against the true cuts of the central window."""
    radius = int(argv[argv.index("--radius") + 1])
    letter = next(iter(rules))
    k, word = orc.expand_to_length(rules, letter, 2 * radius + 1)
    p = len(word) // 2 - radius
    if fields.get("window") != [word[p:p + 2 * radius + 1]]:
        return "window differs"
    if fields.get("verdict") != ["unique to depth 3"]:
        return FAILED
    unit = max(len(img) for img in rules.values())
    for j in range(1, 4):
        parent, starts = orc.level_tiles(rules, letter, k, j)
        tiles = orc.window_tiles(parent, starts, p, 2 * radius + 1)
        bounds = [None if b == "-" else int(b)
                  for b in fields[f"cuts {j}"][0].split()]
        true_cuts = {b for b, _, _ in tiles} | {tiles[-1][1]}
        known = {b for b in bounds if b is not None}
        lo, hi = unit * j, 2 * radius + 1 - unit * j
        if not known <= true_cuts or not {
                b for b in true_cuts if lo <= b <= hi} <= known:
            return f"level {j} cuts differ from the true cuts"
    return None
