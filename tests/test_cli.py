import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import slalom
from slalom.cli import main
from slalom.config import Config, load_config

README_COMMANDS = [
    line for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("slalom ")
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.samples_per_turn == 128
        assert cfg.bound_constants.c_minus == 0.1

    def test_load_file(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("c_minus = 0.2\nsamples_per_turn = 64\n# comment\n\n")
        cfg = load_config(str(p))
        assert cfg.bound_constants.c_minus == 0.2
        assert cfg.samples_per_turn == 64
        assert cfg.svg_scale == 40.0

    def test_env_var(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg"
        p.write_text("svg_scale = 20\n")
        monkeypatch.setenv("SLALOM_CONFIG", str(p))
        assert load_config().svg_scale == 20.0

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            load_config(str(p))

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            Config(samples_per_turn=4)

    def test_all_keys_round_trip(self, tmp_path):
        values = {"c_minus": 0.25, "c_plus": 4.0, "samples_per_turn": 32, "lift_tolerance": 1e-10, "svg_scale": 12.5}
        p = tmp_path / "cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert load_config(str(p)).as_dict() == values

    def test_echo_lists_the_fields(self, capsys):
        _, out, _ = run_cli(capsys, "syllables", "a1")
        assert list(json.loads(out)["config"]) == [f.name for f in dataclasses.fields(Config)]


class TestLambdaCommand:
    def test_single_power(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "a1^3")
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "slalom"
        assert doc["result"]["lambda"] == pytest.approx(math.log(4), abs=1e-12)
        assert doc["result"]["exceptional_tr"] is True
        assert doc["result"]["exceptional_pb"] is False

    def test_boundary_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "a1 a2^-1", "--boundary", "pb")
        doc = json.loads(out)
        assert set(doc["result"]) == {
            "word", "boundary", "syllables", "lambda", "lower", "upper", "exceptional"}
        assert doc["result"]["boundary"] == "pb"


class TestSyllablesCommand:
    def test_figure2(self, capsys):
        word = "a2^-1 a1^2 a2^-3 a1^-1 a2^-1 a1^-1 a2 a1^-1"
        code, out, _ = run_cli(capsys, "syllables", word)
        assert code == 0
        syl = json.loads(out)["result"]["syllables"]
        assert [(s["kind"], s["degree"]) for s in syl] == [
            ("singleton", 1), ("big_power", 2), ("big_power", 3),
            ("alternating_run", 3), ("singleton", 1), ("singleton", 1)]


class TestNumericCommands:
    def test_rectangle_module(self, capsys):
        code, out, _ = run_cli(capsys, "rectangle-module", "--M", "1", "--method", "quad")
        doc = json.loads(out)
        assert set(doc["result"]) == {"M", "extremal_length", "conformal_module", "method"}
        assert doc["result"]["extremal_length"] == pytest.approx(1.5634019226961113, abs=1e-8)

    @pytest.mark.parametrize("m", ["nan", "inf", "1e308"])
    def test_rectangle_module_rejects_unusable_m(self, capsys, m):
        code, out, err = run_cli(capsys, "rectangle-module", "--M", m)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_verify_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "verify-bounds", "--from", "0.5", "--to", "100", "--samples", "5")
        doc = json.loads(out)
        r = doc["result"]
        assert len(r["m_range"]) == 5
        assert 0 < r["ratio_min"] <= r["ratio_max"]


class TestLiftCommand:
    def test_lift_with_svg(self, capsys, tmp_path):
        svg = tmp_path / "lift.svg"
        code, out, _ = run_cli(capsys, "lift", "a1^2", "--svg", str(svg))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["lift_endpoint"]["im"] == pytest.approx(1.5, abs=1e-6)
        content = svg.read_text()
        assert content.startswith("<svg") and "<polyline" in content

    @pytest.mark.parametrize("word, endpoint", [("", {"re": 0.0, "im": -0.5}), ("a1", {"re": 0.0, "im": 0.5})])
    def test_lift_endpoint_is_a_point(self, capsys, tmp_path, word, endpoint):
        svg = tmp_path / "lift.svg"
        code, out, _ = run_cli(capsys, "lift", word, "--svg", str(svg))
        assert code == 0
        got = json.loads(out)["result"]["lift_endpoint"]
        assert set(got) == {"re", "im"}
        assert (got["re"], got["im"]) == (pytest.approx(endpoint["re"], abs=1e-6), pytest.approx(endpoint["im"], abs=1e-6))
        assert svg.read_text().startswith("<svg")

    def test_braid_with_svg(self, capsys, tmp_path):
        svg = tmp_path / "braid.svg"
        code, out, _ = run_cli(capsys, "braid", "s1^2", "--svg", str(svg))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["word"] == "a1"
        assert svg.read_text().startswith("<svg")


class TestRoundtripCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "roundtrip", "--count", "10", "--maxlen", "6")
        assert code == 0
        assert json.loads(out)["result"]["failures"] == 0


class TestInterfaceContract:
    def test_import_does_not_load_scipy(self):
        # scipy is imported by the quadrature route alone; it would dominate every CLI call
        src = str(Path(slalom.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, slalom, slalom.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("line", README_COMMANDS, ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(README_COMMANDS)])
    def test_readme_example(self, capsys, tmp_path, monkeypatch, line):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0
        assert json.loads(out)["tool"] == "slalom"

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "lambda", "a1^2 a2^-3")
        _, out2, _ = run_cli(capsys, "lambda", "a1^2 a2^-3")
        assert out1 == out2

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_computation_error_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "lambda", "b1")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_non_pure_braid_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, "braid", "s1")
        assert code == 1
        assert "pure" in err

    def test_config_flag(self, capsys, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("c_plus = 3.0\n")
        _, out, _ = run_cli(capsys, "--config", str(p), "lambda", "a1 a2^-1", "--boundary", "tr")
        doc = json.loads(out)
        assert doc["config"]["c_plus"] == 3.0
        assert doc["result"]["upper"] == pytest.approx(3.0 * doc["result"]["lambda"], rel=1e-12)
