"""Tests for the benchmark's oracles and arithmetic, against hand-worked
values.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os

import pytest

import bench_oracles as orc
import bench_workloads as wl
import run
from bench_trace import Tracer, percentile, self_times

CHACON = orc.parse_rules("0 -> 00s0\ns -> s\n1 -> 0110")
THUE_MORSE = orc.parse_rules("a -> ab; b -> ba")
FIBONACCI = orc.parse_rules("a -> ab; b -> a")


# -- arithmetic -------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 0.5) == 2.5
    assert percentile([10, 20, 30, 40, 50], 0.9) == 46.0
    assert percentile([10, 20, 30, 40, 50], 0.0) == 10
    assert percentile([10, 20, 30, 40, 50], 1.0) == 50
    assert percentile([7.5], 0.9) == 7.5
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_times_subtract_direct_children_only():
    spans = [("round", -1, 0.0, 10.0),
             ("a", 0, 1.0, 4.0),
             ("b", 1, 2.0, 3.0),
             ("a", 0, 5.0, 9.0)]
    selfs = self_times(spans)
    assert selfs == {"round": 3.0, "a": 6.0, "b": 1.0}
    assert sum(selfs.values()) == 10.0


def test_tracer_wraps_every_binding_and_restores_them():
    adicshift = run.import_adicshift()
    from adicshift import recognize, words
    original = words.factor_language
    s = adicshift.parse_substitution("a -> ab\nb -> a")
    tracer = Tracer()
    tracer.install()
    try:
        assert recognize.factor_language is words.factor_language
        assert words.factor_language is not original
        run.clear_caches()
        tracer.active = True
        adicshift.recognize_window(s, "abaababaabaab", 1)
        adicshift.factor_language(s, 5)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert words.factor_language is original
    assert recognize.factor_language is original
    assert tracer.counts["recognize.recognize_window.calls"] == 1
    assert tracer.counts["recognize.parse_chains"] == 1
    assert tracer.counts["words.factor_language.calls"] >= 2
    assert tracer.counts["words.factor_language.max_cap"] >= 5
    names = {name for name, *_ in tracer.spans}
    assert {"recognize.recognize_window", "recognize.one_word_tilings",
            "words.factor_language"} <= names
    # factor_language is called from inside recognize_window: a child span
    parents = {tracer.spans[parent][0] for name, parent, *_ in tracer.spans
               if name == "recognize.one_word_tilings"}
    assert parents == {"recognize.recognize_window"}


# -- oracles ----------------------------------------------------------------

def test_expansion_and_true_cuts_of_chacon():
    assert orc.expand_word(CHACON, "0", 1) == "00s0"
    assert orc.expand_word(CHACON, "0", 2) == "00s000s0s00s0"
    parent, starts = orc.level_tiles(CHACON, "0", 2, 1)
    assert parent == "00s0" and starts == [0, 4, 8, 9, 13]
    # the window sigma^2(0)[5:12] = "0s0s00s" meets three level-1 tiles
    assert orc.window_tiles(parent, starts, 5, 7) == [
        (-1, 3, "0"), (3, 4, "s"), (4, 8, "0")]
    assert orc.nested_offsets(CHACON, (("0", 0), ("0", 1), ("0", 1))) == (
        0, 1, 5)


def test_parse_comparison_accepts_truth_and_rejects_a_moved_cut():
    parent, starts = orc.level_tiles(CHACON, "0", 3, 1)
    truth = [orc.window_tiles(parent, starts, 5, 20)]
    tiles = truth[0]
    letters = "".join(a for _, _, a in tiles)
    bounds = (None,) + tuple(e for _, e, _ in tiles[:-1]) + (None,)
    assert orc.parse_matches_truth([(letters, bounds)], truth, 20, 4) is None
    moved = (None, bounds[1] + 1) + bounds[2:]
    assert orc.parse_matches_truth([(letters, moved)], truth, 20, 4)


def test_factor_sets_by_hand():
    assert orc.factor_set(FIBONACCI, 3) == {
        "a", "b", "aa", "ab", "ba", "aab", "aba", "baa", "bab"}
    assert orc.long_letters(CHACON) == {"0", "1"}


def test_the_eight_chacon_marked_words():
    assert orc.marked_vocabulary(CHACON) == {
        "0.00": 1, "0s.00": 1, "0.0s0": 2, "0s.0s0": 2,
        "1.00": 1, "0.11": 1, "0.01": 1, "1.10": 1}


def test_boundary_seeds_and_windows_of_thue_morse():
    pairs = orc.lambda_pairs(THUE_MORSE, orc.factor_set(THUE_MORSE, 2))
    assert pairs == {("a", "a"): 2, ("a", "b"): 2, ("b", "a"): 2,
                     ("b", "b"): 2}
    assert orc.lambda_window_text(THUE_MORSE, "a", "b", 2, 4) == "abbabaab"


def test_plain_successor_counts_in_binary_on_the_odometer():
    odometer = orc.PlainDiagram({"v": ("v", "v")}, {"v": 2})
    path, seen = (0, 0), [(0, 0)]
    while (path := odometer.successor("v", path)) is not None:
        seen.append(path)
    assert seen == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert odometer.predecessor("v", (0, 1)) == (1, 0)
    assert odometer.predecessor("v", (0, 0)) is None


def column(c, level=5):
    return ("v", tuple((c >> k) & 1 for k in range(level)))


def test_agreement_depth_is_the_shared_residue_on_the_odometer():
    # column c of the odometer tower: row r boxes group 2^r columns, so two
    # columns agree up to row r exactly when they agree mod 2^r
    odometer = orc.PlainDiagram({"v": ("v", "v")}, {"v": 2})
    assert orc.agreement_depth(odometer, column(4), column(8), 2, 3) == 2
    assert orc.agreement_depth(odometer, column(4), column(6), 2, 3) == 1
    assert orc.agreement_depth(odometer, column(4), column(20), 2, 3) == 3


def test_cli_reports_match_the_oracles():
    run.import_adicshift()
    from adicshift import cli
    path = os.path.join("perfbench", "subs", "chacon.sub")
    for argv in (("language", "--cap", "6"), ("nesting",), ("derive",),
                 ("jsymbol", "--depth", "2"), ("analyze",)):
        sink = io.StringIO()
        cwd = os.getcwd()
        os.chdir(wl.ROOT)
        try:
            with contextlib.redirect_stdout(sink):
                assert cli.run(list(argv) + ["--sub", path]) == 0
        finally:
            os.chdir(cwd)
        assert wl.check_report(argv, sink.getvalue(), CHACON, {}) is None


# -- the benchmark's declared metrics ---------------------------------------

def test_metric_names_match_benchmark_json():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
