"""covering_gate.py compares the covering's outcomes in two source trees, corpus by corpus."""

import importlib.util
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "covering_gate.py"
START = complex(0.0, -0.5)  # as the gate draws it: -0.5j is -0.0 - 0.5i


def load_script():
    spec = importlib.util.spec_from_file_location("covering_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_this_tree_against_itself_changes_nothing():
    done = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--quick"], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [(row[0], int(row[1]) > 0, row[2]) for row in rows] == [
        ("word-ladder", True, "0"), ("braids", True, "0"), ("polygons", True, "0"), ("far-up", True, "0"),
        ("runs", True, "0"), ("starts", True, "0"), ("parses", True, "0"), ("memo", True, "0")]


def test_report_counts_and_names_the_changed_cases(capsys):
    gate = load_script()
    cases = {"polygons": [("polygon", (1j,), 1e-6), ("polygon", (2j,), 1e-6)]}
    parent = {"polygons": [("a", "lifted"), ("b", "lifted")]}
    change = {"polygons": [("a", "lifted"), ("c", "LiftError")]}
    assert gate.report(cases, parent, change) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[:3] == ["polygons", "2", "1"]
    assert out[2] == "changed in polygons: ('polygon', (2j,), 1e-06): lifted -> LiftError"


def test_moved_counts_the_points_whose_bits_differ():
    gate = load_script()
    was = struct.pack("<6d", 0.0, -0.5, 1.0, 2.0, 3.0, 0.5)
    now = struct.pack("<6d", -0.0, -0.5, 1.0, 2.0 + 2**-51, 3.0, 0.5)
    assert gate.moved(was, now) == (2, 2**-51)  # 0.0 and -0.0 are equal floats of other bits
    assert gate.moved(was, was) == (0, 0.0)
    assert gate.moved(was, now[:16]) is None


def test_report_names_the_parts_that_differ_where_the_kind_is_kept(capsys):
    gate = load_script()
    cases = {"word-ladder": [("word", "a1", 16, "lift", START, 1e-6), ("word", "a2", 16, "lift", START, 1e-6),
                             ("word", "a1", 16, "read", START, 1e-6)]}
    parts = {"points": "p", "_real_signs": "s", "pieces": "q", "word": "w"}
    parent = {"word-ladder": [("a", "lifted", parts), ("b", "lifted", parts), ("c", "read", {"word": "w"})]}
    change = {"word-ladder": [("a", "lifted", parts), ("d", "lifted", {**parts, "points": "p2", "pieces": "q2"}),
                              ("e", "read", {"word": "w2"})]}
    assert gate.report(cases, parent, change, {("word-ladder", 1): (2, 2**-51)}) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[:3] == ["word-ladder", "3", "2"]
    assert out[2] == ("word-ladder: 2 kept their kind and differ in points 1 (2 points moved, largest |dz| 4.44e-16), "
                      "pieces 1, word 1")
    assert out[3] == ("changed in word-ladder: ('word', 'a2', 16, 'lift', -0.5j, 1e-06): lifted -> lifted "
                      "(points: 2 moved, largest |dz| 4.44e-16; pieces)")
    assert out[4] == "changed in word-ladder: ('word', 'a1', 16, 'read', -0.5j, 1e-06): read -> read (word)"


def test_outcomes_split_into_parts_and_give_point_bits():
    gate = load_script()
    cases = {"far-up": [("word", "a1", 16, "lift", START, 1e-6)], "polygons": [("polygon", (1 + 0j,), 1e-6)]}
    got = gate.outcomes(cases)
    assert got["far-up"][0][1] == "lifted" and list(got["far-up"][0][2]) == ["points", "_real_signs", "pieces", "word"]
    assert got["polygons"][0][1] == "PolyPath" and list(got["polygons"][0][2]) == ["error"]
    points = gate.outcomes(cases, points=True)
    assert len(points["far-up"][0]) == 17 * 16 and points["polygons"] == [b""]


def test_parse_outcomes_hold_values_errors_and_columns():
    gate = load_script()
    cases = {"parses": [("text", "a1^2 a2"), ("text", "s1 s3"), ("text", "s2 s1^9999 s2^2"), ("cstar", "s1^2")]}
    got = [(kind, list(parts)) for _, kind, parts in gate.outcomes(cases)["parses"]]
    assert got == [("read+BraidSyntaxError", ["word", "braid"]),
                   ("WordSyntaxError+BraidSyntaxError", ["word", "braid"]),
                   ("WordSyntaxError+ValueError", ["word", "braid"]), ("cstar", ["cstar", "tr", "pb"])]
    parent, change = gate.outcomes(cases), gate.outcomes({"parses": [("text", "a1^2 a2"), ("text", "s3 s1")]})
    assert [a[0] == b[0] for a, b in zip(parent["parses"], change["parses"])] == [True, False]  # the column differs


def test_texts_are_drawn_from_the_token_parts_of_the_word_tests():
    from test_words import DIGITS, MARKS, NAMES, SPACES

    gate = load_script()
    assert gate.TOKEN_PARTS == (NAMES, MARKS, DIGITS, SPACES)
    texts = [case for case in gate.corpora(quick=True)["parses"] if case[0] == "text"]
    assert len(texts) == 200 and len({text for _, text in texts}) > 150


def test_runs_are_copies_of_units_that_cross_the_rays_any_number_of_times():
    """A ``runs`` case is runs of at least two copies of a unit from 0 back to 0, whose legs cross the rays: the
    cutting-sequence oracle reads words of 0, 1 or more letters off the units.  A case lifts, or its error is its
    outcome, and a path that ``PolyPath`` refuses is refused there."""
    from conftest import reference_read_word
    from slalom.covering import Plane, PolyPath

    gate = load_script()
    runs = gate.corpora(quick=True)["runs"]
    assert len(runs) == 40 and all(n >= 2 and unit[-1] == 0 for case in runs for unit, n in case[1])
    crossings = set()
    for unit in {unit for case in runs for unit, _ in case[1]}:
        try:
            crossings.add(min(reference_read_word(PolyPath((0j, *unit), Plane.PUNCTURED)).letter_length(), 2))
        except ValueError:  # a unit near a puncture, or that crosses the axis at one
            pass
    assert crossings == {0, 1, 2}
    got = gate.outcomes({"runs": runs + [("runs", (((0.5j, 0.5j, 0j), 2),), START, 1e-6)]})["runs"]
    assert {kind for _, kind, _ in got} >= {"lifted", "PolyPath"} and got[-1][1] == "PolyPath"
    assert [list(parts) for _, kind, parts in got if kind == "lifted"][0] == ["points", "_real_signs", "pieces", "word"]


def test_report_names_errors_that_differ_where_no_points_moved(capsys):
    gate = load_script()
    cases = {"memo": [("word", "a1", 16, "lift", START, 1e-6)]}
    parent = {"memo": [("a", "LiftError", {"error": "e", "word": "w"})]}
    change = {"memo": [("b", "LiftError", {"error": "e2", "word": "w"})]}
    assert gate.report(cases, parent, change) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "memo: 1 kept their kind and differ in error 1"


def test_starts_are_off_the_exact_lift_and_memo_lifts_again_by_tol():
    """A ``starts`` case lifts from a start in the fiber over 0 other than 0 lifted on its branch, and its points are
    an outcome where its pieces are refused; ``memo`` lifts each ladder lift and far-up lift once per tolerance, in
    the order 1e-6, inf, 2e-16, 1e-6."""
    import cmath
    import math

    from slalom import covering

    gate = load_script()
    cases = gate.corpora(quick=True)
    for start, _ in gate.OFF_STARTS:
        m = round(start.imag - 0.5) + 0.5
        assert not covering._off_fiber(covering.cover_map(start)) and start != cmath.atanh(0j) / math.pi + 1j * m
    starts = cases["starts"]
    assert {case[-2:] for case in starts} == set(gate.OFF_STARTS) and {case[0] for case in starts} == {"word", "runs"}
    lifts = [case for case in cases["word-ladder"] if case[3] == "lift"]
    once = list({case[:5]: case for case in lifts + cases["far-up"]}.values())
    assert cases["memo"] == [(*case[:5], tol) for tol in (1e-6, math.inf, 2e-16, 1e-6) for case in once]
    got = gate.outcomes({"starts": [("word", "a1", 16, "lift", complex(3e-9, -0.5), math.inf)]})["starts"][0]
    assert got[1] == "lifted" and list(got[2]) == ["points", "_real_signs", "pieces", "word"]
