"""covering_gate.py compares the covering's outcomes in two source trees, corpus by corpus."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "covering_gate.py"


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
