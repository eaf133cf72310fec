"""Tests of the benchmark's inputs, checks and tracer.

    python3 -m pytest perfbench -q
"""

import json
import random
import sys
from pathlib import Path

import mpmath
import pytest

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_rect_oracle_matches_the_defining_integrals():
    # lambda(R^M) = a / b with the arc integrals of elliptic.py's docstring
    for m in (0.25, 1.0, 40.0):
        with mpmath.workdps(40):
            a = 2 * mpmath.quad(lambda t: 1 / mpmath.sqrt((m**2 - t**2) * ((m + 1) ** 2 - t**2)), [0, m])
            b = mpmath.quad(lambda t: 1 / mpmath.sqrt((t**2 - m**2) * ((m + 1) ** 2 - t**2)), [m, m + 1])
        assert checks.rect_oracle(m) == pytest.approx(float(a / b), rel=1e-12)


def test_rect_check_rejects_an_error_above_the_stated_accuracy():
    m = 3.0
    lam = checks.rect_oracle(m)
    assert checks.check_invariant({"kind": "quad", "M": m}, {"lam": lam, "module": 1 / lam}) is None
    bad = lam * (1 + 1e-7)
    assert checks.check_invariant({"kind": "quad", "M": m}, {"lam": bad, "module": 1 / bad})


def test_syllable_words_decompose_as_built():
    rng = random.Random(7)
    for n in (1, 2, 5, 40):
        for _ in range(50):
            terms, table = inputs.syllable_word(rng, n)
            assert all(a[0] != b[0] for a, b in zip(terms, terms[1:]))
            assert checks.decompose(terms) == table


@pytest.mark.parametrize("kind", inputs.WORD_KINDS)
def test_ladder_words_have_exact_length(kind):
    rng = random.Random(3)
    for n, _ in inputs.LADDER:
        terms = inputs.ladder_word(rng, kind, n)
        assert sum(abs(e) for _, e in terms) == n
        assert all(a[0] != b[0] for a, b in zip(terms, terms[1:]))
        if kind == "powers" and n > 1:
            assert all(abs(e) >= 2 for _, e in terms)
        if kind == "runs":
            assert all(abs(e) == 1 for _, e in terms)


def test_full_twist_has_trivial_image_and_braids_have_exact_length():
    images = dict((name, img) for name, (_, img) in inputs.PURE_GENERATORS.items())
    assert inputs.free_reduce(images["A12"] + images["A13"] + images["A23"]) == ()
    rng = random.Random(5)
    for n in inputs.BRAID_LETTERS:
        text, _ = inputs.pure_braid(rng, n)
        assert len(checks.braid_letters(text).split()) == n
    assert checks.braid_letters("s2 s1^-2") == "s2+ s1- s1-"


def test_exceptional_words():
    one_term = [("a1", 3)]
    assert checks.expected_bounds(one_term, checks.decompose(one_term), "tr")[3]
    run = [("a1", 1), ("a2", 1)]
    assert checks.expected_bounds(run, checks.decompose(run), "pb")[3]
    generic = [("a1", 1), ("a2", -1)]
    lam, lo, up, exc = checks.expected_bounds(generic, checks.decompose(generic), "pb")
    assert not exc and (lo, up) == pytest.approx((0.1 * lam, 10 * lam))


def test_lift_check():
    terms = [("a1", 2), ("a2", -1)]
    good = [["left", -1, 1], ["right", 1, 2]]
    assert checks.check_lift(terms, [0.0, 2.5], good) is None
    assert checks.check_lift(terms, [0.0, 1.5], good)
    assert checks.check_lift(terms, [0.0, 2.5], [["left", -1, 1], ["right", 0, 2]])
    assert checks.check_lift(terms, [0.0, 2.5], [["left", -1, 1], ["left", 1, 2]])
    # chains and ends right, but rebuilds a1^3
    assert checks.check_lift([("a1", 1), ("a2", -1), ("a1", 1)], [0.0, 2.5], [["left", -1, 2]])


def test_braid_check_rejects_a_wrong_image():
    text = "s1^2 s2^2"
    image = (("a1", 1), ("a2", 1))
    table = checks.decompose(image)
    out = {"letters": checks.braid_letters(text), "terms": [list(t) for t in image],
           "tr": checks.expected_bounds(image, table, "tr"), "pb": checks.expected_bounds(image, table, "pb")}
    op = {"text": text, "image": image}
    assert checks.check_braid(op, out) is None
    assert checks.check_braid(op, dict(out, terms=[["a1", 1], ["a2", -1]]))
    assert checks.check_braid(dict(op, text="s1^2 s2"), out)


def test_svg_check(tmp_path):
    good, bad, other = tmp_path / "a.svg", tmp_path / "b.svg", tmp_path / "c.svg"
    good.write_text('<svg xmlns="http://www.w3.org/2000/svg"><line/></svg>')
    bad.write_text('<svg xmlns="http://www.w3.org/2000/svg"><line></svg>')
    other.write_text("<html/>")
    assert checks.check_svg(str(good)) is None
    assert checks.check_svg(str(bad)) and checks.check_svg(str(other))
    assert checks.check_svg(str(tmp_path / "missing.svg"))


def test_cli_check_rejects_a_failed_call():
    op = inputs.round_ops("cli", 0, 0)[0]
    assert checks.check_cli(op, {"code": 1, "stdout": "", "stderr": "boom"})
    assert checks.check_cli(op, {"code": 0, "stdout": "not json", "stderr": ""})


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_program_outputs_pass_the_checks(workload, tmp_path):
    import worker

    run_op = worker.op_cli_inprocess if workload == "cli" else {
        "word-ladder": worker.op_ladder, "braids": worker.op_braid, "invariants": worker.op_invariant}[workload]
    ops = inputs.round_ops(workload, 11, 0, quick=True, tmp=str(tmp_path))
    if workload == "invariants":
        ops = [op for op in ops if op["kind"] in ("word", "sweep")] + [{"kind": "quad", "M": 2.0}]
    for op in ops:
        _, out = run_op(op)
        assert checks.CHECKS[workload](op, out) is None, op


def test_tracer_records_nested_spans_and_restores():
    from slalom import covering, words

    original = covering.lift_path
    tracer = tracing.Tracer()
    with tracer.installed():
        covering.curve_to_word(covering.word_to_curve(words.parse_word("a1 a2^-1"), 32))
    assert covering.lift_path is original
    names = [s[0] for s in tracer.spans]
    assert names == ["words.parse_word", "covering.word_to_curve", "covering.curve_to_word", "covering.lift_path"]
    read, lift = tracer.spans[2], tracer.spans[3]
    assert lift[3] == 2 and read[1] <= lift[1] <= lift[2] <= read[2]
    assert lift[4] == 65 and lift[5] >= lift[4]
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["covering.curve_points"][0] == 65 and m["covering.refine_ratio"][0] >= 1


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "peak_rss_mb"}
    layers = set(tracing.layer_metrics([], 1)) | {"cli.import_ms", "elliptic.import_ms", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == layers
