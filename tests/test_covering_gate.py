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
        ("word-ladder", True, "0"), ("braids", True, "0"), ("polygons", True, "0"), ("far-up", True, "0")]


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
