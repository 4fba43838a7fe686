"""End-to-end checks of the command-line surface.

Every command must be a deterministic function of (input file, flags):
reruns are compared byte for byte.  Exit codes: 0 for a finished report,
2 for unusable input, 3 when the operation fails for scale or structural
reasons but the report head still prints.
"""

import os
import subprocess
import sys

import pytest

from adicshift.cli import _COMMANDS, run

CHACON_SRC = "0 -> 00s0\ns -> s\n1 -> 0110\n"
TM_SRC = "a -> ab\nb -> ba\n"


@pytest.fixture()
def chacon_file(tmp_path):
    path = tmp_path / "chacon.sub"
    path.write_text(CHACON_SRC)
    return str(path)


@pytest.fixture()
def tm_file(tmp_path):
    path = tmp_path / "tm.sub"
    path.write_text(TM_SRC)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# exit codes


def test_every_error_but_the_input_ones_exits_three():
    import adicshift.errors as errors
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    input_errors = {"GrammarError", "AlphabetError"}
    for name, cls in classes.items():
        if name in input_errors:
            assert not issubclass(cls, errors.DomainError)
            assert issubclass(cls, ValueError)
        elif name != "DomainError":
            assert issubclass(cls, errors.DomainError), name
            base = RuntimeError if name == "ImproperOrdering" else ValueError
            assert issubclass(cls, base), name
    assert input_errors | {"DomainError", "ImproperOrdering",
                           "TooManyPaths"} <= set(classes)


def test_missing_file_is_input_error(capsys, tmp_path):
    code = run(["analyze", "--sub", str(tmp_path / "absent.sub")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_grammar_error_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.sub"
    path.write_text("a -> ab\n")  # no rule for b
    code = run(["analyze", "--sub", str(path)])
    assert code == 2


def test_unknown_command_exits_two(chacon_file):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", "--sub", chacon_file])
    assert exc.value.code == 2


def test_short_letters_block_lambda_with_code_three(capsys, chacon_file):
    code, out = invoke(capsys, "lambda", "--sub", chacon_file)
    assert code == 3
    assert "command: lambda" in out  # head still printed
    assert "error:" in out


def test_unbounded_shorts_fail_classify(capsys, tmp_path):
    path = tmp_path / "shorts.sub"
    path.write_text("a -> abb\nb -> b\n")  # b^n blocks grow without bound
    code, out = invoke(capsys, "classify", "--sub", str(path))
    assert code == 3
    assert "error:" in out
    # analyze reports the missing bound as a line of its own
    code, out = invoke(capsys, "analyze", "--sub", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "short-block-bound: unbounded (cap 16)"


def test_oversized_jsymbol_exits_three(capsys, chacon_file):
    # sigma^40(0) has about 1.8e19 letters: refused before it is expanded
    code, out = invoke(capsys, "jsymbol", "--sub", chacon_file,
                       "--depth", "40")
    assert code == 3
    assert "command: jsymbol" in out
    assert "error: the level-40 symbol over '0'" in out


def test_raw_dot_failure_prints_only_to_stderr(capsys, tmp_path):
    path = tmp_path / "sas.sub"
    path.write_text("a -> sas\ns -> s\n")  # no nesting class
    code = run(["build-diagram", "--sub", str(path), "--method", "nesting",
                "--format", "dot"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("error: long-letter images neither all start "
                            "nor all end with long letters\n")


def test_body_value_error_exits_two(capsys, tm_file):
    code = run(["lambda", "--sub", tm_file, "--radius", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: radius must be >= 1\n"


def test_fronts_that_never_close_exit_three(capsys, tmp_path):
    path = tmp_path / "open.sub"
    path.write_text("a -> a\nb -> cba\nc -> bc\n")  # a-runs keep growing
    code, out = invoke(capsys, "build-diagram", "--sub", str(path))
    assert code == 3
    assert "command: build-diagram" in out
    assert "error: a front would pass" in out


CHACON_SUB = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "subs", "chacon.sub")


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_short_block_bound_at_a_large_cap_asks_only_small_caps(
        capsys, monkeypatch, command):
    # the bound 2 shows at cap 4, so the language at cap 400 is never built
    import adicshift.words as words
    caps, language = [], words.factor_language

    def recorded(s, cap):
        caps.append(cap)
        return language(s, cap)

    monkeypatch.setattr(words, "factor_language", recorded)
    code, out = invoke(capsys, command, "--sub", CHACON_SUB, "--cap", "400")
    assert code == 0
    assert "short-block-bound: 2 (cap 400)" in out.splitlines()
    assert caps and max(caps) <= 4


@pytest.mark.parametrize("rules, first, stop", [
    ("s -> s\na -> as\n", "s", 1),
    ("a -> a\nb -> s\ns -> abs\n", "a", 1),
    ("a -> bc\nb -> c\nc -> b\n", "a", 2),   # grows once, then cycles
])
def test_recognize_bounded_first_letter_exits_three(capsys, tmp_path, rules,
                                                    first, stop):
    # the first letter's iterates repeat short of the window: a report
    # ending in an error line, not an endless loop
    path = tmp_path / "bounded.sub"
    path.write_text(rules)
    code, out = invoke(capsys, "recognize", "--sub", str(path))
    assert code == 3
    assert out.splitlines()[-1] == (
        f"error: the iterates of {first!r} stop at length {stop}, short of "
        "the window length 33")


@pytest.mark.parametrize("argv, code", [
    (("vershik", "--steps", "-1"), 2),
    (("minimal", "--cap", "0"), 2),
    (("export", "--depth", "0"), 2),
])
def test_bad_flag_values_exit_two(capsys, chacon_file, argv, code):
    out_code, out = invoke(capsys, *argv, "--sub", chacon_file)
    assert out_code == code
    assert out == ""


# ---------------------------------------------------------------------------
# determinism (reruns are byte-identical)


@pytest.mark.parametrize("argv", [
    ("analyze",),
    ("language", "--cap", "3"),
    ("nesting",),
    ("derive",),
    ("vershik", "--steps", "40"),
    ("recognize", "--radius", "16", "--depth", "2"),
    ("jsymbol", "--depth", "3"),
    ("export", "--method", "nesting", "--depth", "3"),
])
def test_reruns_are_byte_identical(capsys, chacon_file, argv):
    first = invoke(capsys, *argv, "--sub", chacon_file)
    second = invoke(capsys, *argv, "--sub", chacon_file)
    assert first == second
    assert first[0] == 0


def test_seed_is_recorded_but_changes_nothing_else(capsys, chacon_file):
    _, plain = invoke(capsys, "analyze", "--sub", chacon_file)
    _, seeded = invoke(capsys, "analyze", "--sub", chacon_file,
                       "--seed", "7")
    assert "seed: 7" in seeded
    assert seeded.replace("seed: 7\n", "") == plain


# ---------------------------------------------------------------------------
# report content


def test_analyze_reports_classification_and_incidence(capsys, chacon_file):
    code, out = invoke(capsys, "analyze", "--sub", chacon_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: analyze"
    assert lines[1].startswith("input: sha256:")
    assert "long: 0 1" in lines
    assert "short: s" in lines
    assert "incidence 0: 3 1 0" in lines
    assert "short-block-bound: 2 (cap 16)" in lines


def test_derive_lists_return_words_and_derived_images(capsys, chacon_file):
    code, out = invoke(capsys, "derive", "--sub", chacon_file)
    assert code == 0
    for line in ["return-word 1: 0",
                 "return-word 2: 0s0",
                 "return-word 3: 0s0s0",
                 "return-word 4: 0110",
                 "tau 1: 12",
                 "tau 2: 132",
                 "tau 3: 1332",
                 "tau 4: 124412"]:
        assert line in out.splitlines()


def test_build_diagram_report_for_both_methods(capsys, chacon_file):
    _, nest = invoke(capsys, "build-diagram", "--sub", chacon_file,
                     "--method", "nesting")
    _, deriv = invoke(capsys, "build-diagram", "--sub", chacon_file,
                      "--method", "derivative")
    assert "vertices: 8" in nest
    assert "vertices: 4" in deriv
    assert "reads 4: 124412" in deriv


@pytest.mark.parametrize("argv, line", [
    (("build-diagram",), "reads 1: 1 2"),
    (("read",), "read 1: 1 2"),
    (("derive", "--cap", "16"), "tau 1: 1 2"),
])
def test_derived_alphabet_of_ten_letters_spells_with_spaces(capsys, tmp_path,
                                                            argv, line):
    # 14 return words: "12" would read as one vertex label
    path = tmp_path / "panel5.sub"
    path.write_text("a -> abbab\nb -> caccb\nc -> basca\ns -> s\n")
    code, out = invoke(capsys, *argv, "--sub", str(path))
    assert code == 0 and line in out.splitlines()


def test_vershik_steps_zero_reports_start_only(capsys, chacon_file):
    code, out = invoke(capsys, "vershik", "--sub", chacon_file,
                       "--steps", "0")
    assert code == 0
    assert "start: level=6 terminal=1 indices=0,0,0,0,0,0" in out
    assert "coding:" not in out


def test_vershik_coding_prefix(capsys, chacon_file):
    _, out = invoke(capsys, "vershik", "--sub", chacon_file,
                    "--depth", "6", "--steps", "12")
    assert "coding: 1 2 2 2 1 3 3 3 3 3 2 2" in out


def test_recognize_reports_cuts(capsys, chacon_file):
    code, out = invoke(capsys, "recognize", "--sub", chacon_file,
                       "--radius", "16", "--depth", "2")
    assert code == 0
    assert "verdict: unique to depth 2" in out
    assert "cuts 1: 0 4 5 9 13 17 18 22 23 27 31" in out
    assert "cuts 2: - 9 22 23 -" in out


@pytest.mark.parametrize("argv, expected", [
    (("periodic-check",), ["witness: ab", "repeated: 4"]),
    (("recognize", "--radius", "8", "--depth", "2"),
     ["verdict: ambiguous at level 1", "survivors: 2",
      "note: chains disagree on the interior"]),
])
def test_periodic_input_reports_witness_and_ambiguity(capsys, tmp_path, argv,
                                                      expected):
    # sigma(a) = sigma(b) = ab: the fixed point is (ab)^infinity
    path = tmp_path / "periodic.sub"
    path.write_text("a -> ab\nb -> ab\n")
    code, out = invoke(capsys, *argv, "--sub", str(path))
    assert code == 0
    assert out.splitlines()[-len(expected):] == expected


def test_lambda_on_thue_morse_reports_four_consistent_seeds(capsys, tm_file):
    code, out = invoke(capsys, "lambda", "--sub", tm_file,
                       "--radius", "8", "--depth", "3")
    assert code == 0
    assert "seeds: 4" in out
    assert out.count("period=2") == 4
    assert out.count("consistent (depth 3)") == 4
    assert "window a.b: baababba.baababba" in out


def test_jsymbol_rows_render_as_box_matrix(capsys, chacon_file):
    _, out = invoke(capsys, "jsymbol", "--sub", chacon_file,
                    "--depth", "2")
    assert "symbol 0: width=13" in out
    assert "symbol 0 | |0|0|s|0|0|0|s|0|s|0|0|s|0|" in out
    assert "symbol 0 | |      00s000s0s00s0      |" in out


# ---------------------------------------------------------------------------
# DOT export


def test_export_emits_plain_dot(capsys, chacon_file):
    code, out = invoke(capsys, "export", "--sub", chacon_file,
                       "--method", "derivative", "--depth", "2")
    assert code == 0
    assert out.startswith("digraph ordered_diagram {")
    assert "command:" not in out
    vertex_lines = [line for line in out.splitlines()
                    if line.endswith(";") and "->" not in line]
    assert len(vertex_lines) == 9  # top + 4 + 4
    assert out.count("->") == 13 + 15  # top edges, then image letters


def test_nesting_dot_quotes_dotted_labels(capsys, chacon_file):
    _, out = invoke(capsys, "build-diagram", "--sub", chacon_file,
                    "--method", "nesting", "--format", "dot")
    assert '"L1_0.00";' in out
    assert '"L1_0s.0s0"' in out
    assert "L0_top -> " in out


def test_dot_matches_export_dot_of_unrolled_diagram(capsys, chacon_file):
    from adicshift import diagram_via_derivative, export_dot, parse_substitution
    _, out = invoke(capsys, "export", "--sub", chacon_file, "--depth", "3")
    expected = export_dot(
        diagram_via_derivative(parse_substitution(CHACON_SRC)).unroll(3))
    assert out == expected + "\n"


# ---------------------------------------------------------------------------
# import cost: each subcommand loads only the layers it runs


# the adicshift.* modules loaded after one call, by subcommand
LOADED = {
    ("analyze", "language", "classify", "periodic-check"):
        "_record cli errors words",
    ("recognize",): "_record cli errors recognize words",
    ("lambda",): "_record cli errors phase recognize words",
    ("jsymbol",): "_record cli diagrams errors symbols words",
    ("nesting", "minimal", "return-words", "derive", "build-diagram", "read",
     "vershik", "export"): "_record cli constructions diagrams errors words",
}
LOADED_BY_COMMAND = {command: set(modules.split())
                     for commands, modules in LOADED.items()
                     for command in commands}

# runs one command in a fresh interpreter; prints the exit code, the
# loaded adicshift.* modules and whether numpy and dataclasses were imported
LOADED_PROBE = """
import contextlib, io, sys
from adicshift.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
modules = sorted(m[len("adicshift."):] for m in sys.modules
                 if m.startswith("adicshift."))
print(code, " ".join(modules), "numpy" in sys.modules,
      "dataclasses" in sys.modules, sep="|")
"""


@pytest.fixture(scope="module")
def bare_dataclasses():
    """Whether a bare interpreter (site and its .pth files) already loads
    dataclasses, in which case no import of the package can avoid it."""
    probe = "import sys; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60)
    return done.stdout.strip() == "True"


def test_loaded_table_covers_every_subcommand():
    assert sorted(LOADED_BY_COMMAND) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_subcommand_loads_only_its_layers(tmp_path, command,
                                          bare_dataclasses):
    path = tmp_path / "input.sub"
    # lambda needs every letter long; Chacon's s is short
    path.write_text(TM_SRC if command == "lambda" else CHACON_SRC)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, command, "--sub", str(path)],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    code, modules, numpy, dataclasses = done.stdout.strip().split("|")
    assert code == "0"
    assert set(modules.split()) == LOADED_BY_COMMAND[command]
    assert numpy == "False"
    assert dataclasses == "False" or bare_dataclasses
