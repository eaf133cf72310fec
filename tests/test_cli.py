import hashlib
import importlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slalom
import slalom.cli
import slalom.covering
import slalom.elliptic
from slalom.braids import MAX_BRAID_LETTERS, format_braid
from slalom.cli import MAX_ROUNDTRIP_POINTS, MAX_ROUNDTRIP_WORDS, MAX_SWEEP_SAMPLES, main
from slalom.config import ENV_VAR, Config, load_config
from slalom.covering import MAX_CURVE_POINTS, Plane, PolyPath
from slalom.words import concat, format_word, parse_word

from conftest import pure_braids, reduced_words

README_COMMANDS = [
    line for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("slalom ")
]


# the fields of Config, in the order the CLI echoes them
CONFIG_KEYS = ["c_minus", "c_plus", "samples_per_turn", "lift_tolerance", "svg_scale"]

# the names `slalom` exports, by submodule
PUBLIC_NAMES = {
    "words": ["FreeWord", "Generator", "Term", "concat", "format_word", "invert", "parse_word"],
    "syllables": ["BoundaryCondition", "BoundConstants", "Syllable", "SyllableDecomposition", "SyllableKind",
                  "classify_exceptional", "decompose", "lambda_bounds", "lambda_invariant"],
    "elliptic": ["BoundCheckReport", "ModulusMethod", "QuadModulus", "agm", "rect_extremal_length",
                 "verify_log_bounds"],
    "covering": ["ElementaryPiece", "HalfPlane", "Plane", "PolyPath", "SlalomDecomposition", "cover_map",
                 "curve_to_word", "lift_path", "slalom_decompose", "word_to_curve"],
    "braids": ["BraidGenerator", "BraidLetter", "BraidWord", "braid_invariant", "braid_to_strands", "cross_ratio_curve",
               "cstar", "full_twist", "parse_braid", "permutation"],
}


def run_fresh_interpreter(code):
    src = str(Path(slalom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


# each subcommand, the slalom modules it loads and the ones it must not load
SUBCOMMANDS = [
    pytest.param(["lambda", "a1^2 a2^-3"], [], ["covering", "braids", "svg"], id="lambda"),
    pytest.param(["syllables", "a1 a2^-1"], [], ["covering", "braids", "svg"], id="syllables"),
    pytest.param(["rectangle-module", "--M", "2", "--method", "quad"], [], ["covering", "braids", "svg"],
                 id="rectangle-module"),
    pytest.param(["verify-bounds", "--from", "0.5", "--to", "100", "--samples", "5"], [], ["covering", "braids", "svg"],
                 id="verify-bounds"),
    pytest.param(["lift", "a1 a2^-1"], ["covering"], ["braids", "svg"], id="lift"),
    pytest.param(["lift", "a1 a2^-1", "--svg", "lift.svg"], ["covering", "svg"], ["braids"], id="lift-svg"),
    pytest.param(["roundtrip", "--count", "3", "--maxlen", "4"], ["covering"], ["braids", "svg"], id="roundtrip"),
    pytest.param(["braid", "s1^2 s2^-2"], ["braids"], ["svg"], id="braid"),
]


def modules_after_main(tmp_path, argv) -> set[str]:
    """The modules that a fresh interpreter holds after ``import slalom.cli`` and, unless ``argv`` is None, a
    ``main(argv)`` that exits 0, run in ``tmp_path``."""
    main = "0" if argv is None else f"slalom.cli.main({argv!r})"
    code = (
        "import json, os, sys, slalom.cli\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"print(json.dumps([{main}, sorted(sys.modules)]))"
    )
    proc = run_fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == 0
    return set(modules)


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

    @pytest.mark.parametrize("samples", [16.5, 128.0, "128", None])
    def test_samples_per_turn_must_be_an_int(self, samples):
        """load_config casts the file's value to int; a Config built directly refuses any other type."""
        with pytest.raises(ValueError, match=f"^samples_per_turn must be an int >= 16; got {samples!r}$"):
            Config(samples_per_turn=samples)

    def test_all_keys_round_trip(self, tmp_path):
        values = {"c_minus": 0.25, "c_plus": 4.0, "samples_per_turn": 32, "lift_tolerance": 1e-10, "svg_scale": 12.5}
        p = tmp_path / "cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert load_config(str(p)).as_dict() == values

    def test_echo_lists_the_fields(self, capsys):
        _, out, _ = run_cli(capsys, "syllables", "a1")
        assert list(json.loads(out)["config"]) == CONFIG_KEYS

    @pytest.mark.parametrize("line, argv", [
        ("lift_tolerance = nan", ("lift", "a1")),
        ("svg_scale = nan", ("lift", "a1", "--svg", "lift.svg")),
        ("c_plus = inf", ("lambda", "a1", "--boundary", "tr")),
    ])
    def test_non_finite_values(self, capsys, tmp_path, monkeypatch, line, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").write_text(line + "\n")
        code, out, err = run_cli(capsys, "--config", "cfg", *argv)
        assert (code, out) == (1, "")
        assert "finite" in err
        assert not (tmp_path / "lift.svg").exists()

    @pytest.mark.parametrize("argv", [("lambda", "a1^3 a2^2"), ("braid", "s1^6 s2^4", "--boundary", "tr")])
    def test_upper_bound_past_float_range(self, capsys, tmp_path, argv):
        """c_plus = 1e308 times Lambda = log 12 overflows: the error names c_plus, not the JSON encoder."""
        (tmp_path / "cfg").write_text("c_plus = 1e308\n")
        code, out, err = run_cli(capsys, "--config", str(tmp_path / "cfg"), *argv)
        assert (code, out) == (1, "")
        assert "c_plus" in err

    def test_lift_tolerance_governs(self, capsys, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("lift_tolerance = 1e-16\n")
        code, out, err = run_cli(capsys, "--config", str(p), "lift", "a1")
        assert (code, out) == (1, "")
        assert "misses" in err

    def test_collapsed_lift_exits_1(self, capsys, monkeypatch):
        """Two samples whose lifts round to one point raise LiftError, which the CLI reports."""
        collapsed = PolyPath((0j, 1e-17j, 0j), Plane.PUNCTURED)
        monkeypatch.setattr(slalom.covering, "word_to_curve", lambda w, samples: collapsed)
        code, out, err = run_cli(capsys, "lift", "a1")
        assert (code, out) == (1, "")
        assert err == "slalom: error: samples 0j and 1e-17j lift to the same point -0.5j\n"


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
        assert f"M must be in [0, {sys.float_info.max / 2!r}]" in err

    def test_verify_bounds_rejects_m_above_bound(self, capsys):
        code, out, err = run_cli(capsys, "verify-bounds", "--from", "1", "--to", "1.7e308", "--samples", "3")
        assert (code, out) == (1, "")
        assert f"M must be in [0, {sys.float_info.max / 2!r}]" in err

    def test_rectangle_module_quadrature_failure_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(slalom.elliptic, "_QUAD_STEP", 1.0)
        code, out, err = run_cli(capsys, "rectangle-module", "--M", "1", "--method", "quad")
        assert (code, out) == (1, "")
        assert "did not converge" in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "1e309"])
    @pytest.mark.parametrize("flag", ["--from", "--to"])
    def test_verify_bounds_names_the_bad_end(self, capsys, flag, value):
        ends = {"--from": "1", "--to": "2", flag: value}
        code, out, err = run_cli(capsys, "verify-bounds", *[a for kv in ends.items() for a in kv], "--samples", "3")
        assert (code, out) == (1, "")
        assert f"{flag} must be positive and finite" in err

    @pytest.mark.parametrize("frm, to, samples, ends", [
        (1.0, sys.float_info.max / 2, 3, (1.0, sys.float_info.max / 2)),  # exp(log(to)) rounds past the bound
        (0.5, 1e4, 7, (0.5, 1e4)),  # exp(log(to)) rounds to 10000.00000000001
        (5.0, 2.0, 2, (5.0, 2.0)),
        (2.0, 5.0, 1, (2.0, 2.0)),  # one sample: --from
    ])
    def test_verify_bounds_hits_its_ends_exactly(self, capsys, frm, to, samples, ends):
        code, out, _ = run_cli(capsys, "verify-bounds", "--from", repr(frm), "--to", repr(to), "--samples", str(samples))
        assert code == 0
        m_range = json.loads(out)["result"]["m_range"]
        assert (len(m_range), m_range[0], m_range[-1]) == (samples, *ends)

    def test_verify_bounds_descending_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify-bounds", "--from", "5", "--to", "2", "--samples", "3")
        assert code == 0
        assert json.loads(out)["result"]["m_range"] == pytest.approx([5.0, 10**0.5, 2.0], rel=1e-15)

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

    @pytest.mark.parametrize("argv, digest", [
        (("lift", "a1^2 a2^-3"), "e7235841bd51bc2ca12c71641908b470a2a56f7d0e008fad05f14f2233e0a174"),
        (("braid", "s1^2 s2^-2"), "e3ba50db2b45f736e4bfa54715cefbfbc4570944b4475918bd3b95ce1e5445e0"),
    ])
    def test_svg_bytes_are_pinned(self, capsys, tmp_path, monkeypatch, argv, digest):
        """The pictures at the default configuration, byte for byte."""
        monkeypatch.delenv(ENV_VAR, raising=False)
        svg = tmp_path / "scene.svg"
        assert run_cli(capsys, *argv, "--svg", str(svg))[0] == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


class TestRoundtripCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "roundtrip", "--count", "10", "--maxlen", "6")
        assert code == 0
        assert json.loads(out)["result"]["failures"] == 0

    def test_failed_word_is_reported(self, capsys, monkeypatch):
        """A reader that returns a wrong word is reported, with exit 0: the report is the command's output."""
        read = slalom.covering.curve_to_word
        monkeypatch.setattr(slalom.covering, "curve_to_word", lambda path: concat(read(path), parse_word("a2")))
        code, out, _ = run_cli(capsys, "roundtrip", "--count", "1", "--maxlen", "4", "--seed", "3")
        result = json.loads(out)["result"]
        assert (code, result["failures"]) == (0, 1)
        [failed] = result["failed_words"]
        assert parse_word(failed["got"]) == concat(parse_word(failed["word"]), parse_word("a2"))


class TestInterfaceContract:
    def test_import_does_not_load_scipy(self):
        # no route imports scipy: importing it took longer than the rest of a CLI call.  numpy is
        # imported by no route either: on word-ladder it raised peak RSS from 24.8 to 37.6 MB
        code = (
            "import sys, slalom, slalom.cli\n"
            "from slalom.covering import BASE_LIFT_POINT, lift_path, slalom_decompose, word_to_curve\n"
            "from slalom.words import parse_word\n"
            "slalom_decompose(lift_path(word_to_curve(parse_word('a1^2 a2^-3'), 64), BASE_LIFT_POINT))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))"
        )
        proc = run_fresh_interpreter(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_quadrature_runs_without_scipy(self):
        # a None entry in sys.modules makes every import of scipy raise ImportError
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import slalom.cli\n"
            "sys.exit(slalom.cli.main(['rectangle-module', '--M', '1', '--method', 'quad']))"
        )
        proc = run_fresh_interpreter(code)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["extremal_length"] == pytest.approx(1.5634019226961113, abs=1e-12)

    @pytest.mark.parametrize("argv, loaded, not_loaded", SUBCOMMANDS)
    def test_subcommand_loads_only_its_modules(self, tmp_path, argv, loaded, not_loaded):
        modules = modules_after_main(tmp_path, argv)
        assert {f"slalom.{m}" for m in loaded} <= modules
        assert not {f"slalom.{m}" for m in not_loaded} & modules

    @pytest.mark.parametrize("argv", [pytest.param(None, id="import")] + [
        pytest.param(p.values[0], id=p.id) for p in SUBCOMMANDS])
    def test_loads_neither_dataclasses_nor_inspect(self, tmp_path, argv):
        # together they took longer to import than the rest of slalom.cli, and the value types need neither
        assert not {"dataclasses", "inspect"} & modules_after_main(tmp_path, argv)

    def test_import_slalom_loads_no_submodule(self):
        proc = run_fresh_interpreter("import sys, slalom\nprint(sorted(m for m in sys.modules if m.startswith('slalom')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['slalom']"

    def test_import_cli_loads_elliptic(self):
        # perfbench/run.py's import_times reads elliptic's import time from `python -X importtime -c
        # "import slalom.cli"`, and fails when that import does not load slalom.elliptic
        proc = run_fresh_interpreter("import sys, slalom.cli\nprint('slalom.elliptic' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_public_names_resolve(self):
        names = [name for names in PUBLIC_NAMES.values() for name in names]
        assert len(names) == 42
        assert sorted(slalom.__all__) == sorted(names)
        for module, names_of_module in PUBLIC_NAMES.items():
            mod = importlib.import_module(f"slalom.{module}")
            for name in names_of_module:
                assert getattr(slalom, name) is getattr(mod, name), name
        star: dict = {}
        exec("from slalom import *", star)
        assert sorted(set(star) - {"__builtins__"}) == sorted(names)
        with pytest.raises(AttributeError):
            slalom.no_such_name

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

    def test_other_runtime_error_propagates(self, capsys, monkeypatch):
        """main maps one family to exit 1, ValueError (covering's LiftError among them), ArithmeticError and OSError;
        any other RuntimeError is a bug and propagates."""
        def fail(w):
            raise RuntimeError("not a lift failure")

        monkeypatch.setattr(slalom.cli, "lambda_invariant", fail)
        with pytest.raises(RuntimeError, match="not a lift failure"):
            main(["syllables", "a1"])

    def test_non_finite_result_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("slalom.cli.lambda_invariant", lambda w: math.nan)
        code, out, err = run_cli(capsys, "syllables", "a1")
        assert (code, out) == (1, "")
        assert "JSON" in err

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


class TestBudgets:
    @pytest.mark.parametrize("argv", [
        ("lift", f"a1^{MAX_CURVE_POINTS // 128 + 1}"),
        ("lift", "a1^1000000000"),
        ("braid", f"s1^{MAX_BRAID_LETTERS + 2}"),
        ("braid", "s1^1000000000"),
        ("verify-bounds", "--from", "1", "--to", "2", "--samples", str(MAX_SWEEP_SAMPLES + 1)),
        ("verify-bounds", "--from", "1", "--to", "2", "--samples", "1000000000"),
        ("roundtrip", "--count", "0", "--maxlen", "3"),
        ("roundtrip", "--count", str(MAX_ROUNDTRIP_WORDS + 1), "--maxlen", "3"),
        ("roundtrip", "--count", "-5", "--maxlen", "3"),
        ("roundtrip", "--count", "1000000000", "--maxlen", "3"),
        ("roundtrip", "--count", "1", "--maxlen", "-1"),
        ("roundtrip", "--count", "1", "--maxlen", str(MAX_CURVE_POINTS // 128 + 1)),
        ("roundtrip", "--count", "1", "--maxlen", "1000000000"),
        ("roundtrip", "--count", str(MAX_ROUNDTRIP_POINTS // (100 * 128) + 1), "--maxlen", "100"),
        ("roundtrip", "--count", str(MAX_ROUNDTRIP_WORDS), "--maxlen", str(MAX_CURVE_POINTS // 128)),
    ])
    def test_rejected_before_allocation(self, capsys, argv):
        tracemalloc.start()
        try:
            code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().out) == (1, "")
        assert peak < 2**20

    def test_lambda_builds_no_curve(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "a1^100000000")
        assert code == 0
        assert json.loads(out)["result"]["word"] == "a1^100000000"


# numbers, positive and finite, or not: zeros of both signs, negative, non-finite, past 64 bits or malformed;
# the positive ones include a subnormal, the float extremes and integers past 64 bits
NUMBERS = (("5e-324", "1e-300", "1", "2.5", "16", "17", "1_000", "1e308", "9223372036854775808"),
           ("0", "-0.0", "0.0", "-5e-324", "-1", "-1e308", "1e309", "nan", "inf", "-inf", "-9223372036854775809",
            "0x10", "", "abc", "1.0.0"))
# counts, accepted and kept small, or over a budget, negative, past 64 bits or malformed
REFUSED_COUNTS = ("0", "-1", "9223372036854775808", "1e3", "x")
COUNTS = (("1", "3"), (str(MAX_ROUNDTRIP_WORDS + 1), *REFUSED_COUNTS))
LENGTHS = (("0", "1", "6"), (str(MAX_CURVE_POINTS), *REFUSED_COUNTS[1:]))
SAMPLES = (("1", "2", "7"), (str(MAX_SWEEP_SAMPLES + 1), *REFUSED_COUNTS))
SEEDS = ("0", "-1", "9223372036854775808", "x", "1e3")
BAD_WORDS = ("a1^0", "a3", "a1^", "a1^x", "b1", "a1 ^2", "a1^1e3", "a1,a2", "a1^9223372036854775808",
             "a2^-9223372036854775809", "a1^9223372036854775807", "a2^-9223372036854775808", "a1^18446744073709551616")
BAD_BRAIDS = ("s1", "s3", "s1^x", "s1 s2", f"s1^{MAX_BRAID_LETTERS + 2}", "s1^9223372036854775808",
              "s2^-9223372036854775808", "s1^-18446744073709551616")


def tokens(kinds):
    """Half the time an accepted token, half the time a refused one."""
    return st.one_of(*map(st.sampled_from, kinds))


CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS), tokens(NUMBERS)),
    st.sampled_from(("# a comment", "", "no equals sign", "unknown = 1", "samples_per_turn = 1_000")),
)


def words():
    return st.one_of(st.sampled_from(BAD_WORDS), reduced_words(max_terms=4, max_exp=3).map(format_word))


def braid_texts():
    return st.one_of(st.sampled_from(BAD_BRAIDS), pure_braids(max_factors=3).map(format_braid))


def option(flag, values):
    return values.map(lambda v: (flag, v))


def optional(flag, values):
    return st.one_of(st.just(()), option(flag, st.sampled_from(values)))


def argv(*parts):
    """The argv of drawn parts, each an argument or a tuple of them (an option and its value, or none)."""
    return st.tuples(*parts).map(lambda drawn: [a for p in drawn for a in ((p,) if isinstance(p, str) else p)])


def subcommands(svg: str):
    """The argv of one subcommand, its arguments drawn from tokens of every kind."""
    boundary = optional("--boundary", ("tr", "pb", "xx"))
    return st.one_of(
        argv(st.just("lambda"), words(), boundary),
        argv(st.just("syllables"), words()),
        argv(st.just("rectangle-module"), option("--M", tokens(NUMBERS)),
             optional("--method", ("closed", "quad", "xx"))),
        argv(st.just("verify-bounds"), option("--from", tokens(NUMBERS)), option("--to", tokens(NUMBERS)),
             option("--samples", tokens(SAMPLES))),
        argv(st.just("lift"), words(), optional("--svg", (svg,))),
        argv(st.just("braid"), braid_texts(), boundary, optional("--svg", (svg,))),
        argv(st.just("roundtrip"), option("--count", tokens(COUNTS)), option("--maxlen", tokens(LENGTHS)),
             optional("--seed", SEEDS)),
    )


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestRobustness:
    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.one_of(st.none(), st.lists(CONFIG_LINES, max_size=4)))
    def test_main_exits_0_1_or_2(self, data, config):
        """Every call exits 0 with strict JSON, 1 with one diagnostic line and no output, or 2 on a usage error."""
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
            os.environ.pop(ENV_VAR, None)
            args = data.draw(subcommands(os.path.join(tmp, "out.svg")))
            if config is not None:
                Path(tmp, "cfg").write_text("\n".join(config) + "\n")
                args = ["--config", str(Path(tmp, "cfg")), *args]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(args)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            doc = json.loads(out, parse_constant=reject_constant)
            assert list(doc) == ["tool", "version", "command", "input", "result", "config"] and err == ""
        elif code == 1:
            assert out == "" and err.startswith("slalom: error: ") and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert out == "" and "usage:" in err
