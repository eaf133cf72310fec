"""Runs one workload in a fresh process and streams its outputs to run.py.

Reads a JSON job from stdin (workload, seed, seconds, trace, quick, tmp,
trace_file) and writes one JSON line per round to stdout:
``{"r": round, "traced": bool, "ops": [[seconds, slowdown, output], ...]}``,
where a failed operation's output is ``{"error": "<type>: <message>"}``.
Only the calls into slalom are timed (a failed operation, up to its
exception).  ``slowdown`` is how much slower than nominal a fixed reference
task ran just before and after the operation; it tracks the host's speed.
The operations import slalom themselves, so the worker of ``cli``, which only
starts processes, does not load it.

Rounds start until ``seconds`` have passed, so every run does whole rounds.
With ``trace`` set, the rounds run untraced for half the time and then the
same rounds run again with spans recorded; a last line carries the
per-layer metrics, and the spans go to ``trace_file``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import inputs
from tracing import Tracer, layer_metrics

REFERENCE_EVERY_S = 0.2


def _terms(w) -> list:
    return [[t.gen.value, t.exponent] for t in w.terms]


def _bounds(b) -> list:
    return [b.lambda_value, b.lower, b.upper, b.exceptional]


def _free_word(terms):
    from slalom.words import FreeWord, Generator, Term

    return FreeWord(tuple(Term(Generator(g), e) for g, e in terms))


def op_cli_subprocess(op):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "slalom.cli", *op["argv"]], capture_output=True, text=True)
    t = time.perf_counter() - t0
    return t, {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def op_cli_inprocess(op):
    import slalom.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = slalom.cli.main(list(op["argv"]))
        t = time.perf_counter() - t0
    return t, {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def op_ladder(op):
    from slalom import covering

    w = _free_word(op["terms"])
    if op["route"] == "read":
        t0 = time.perf_counter()
        got = covering.curve_to_word(covering.word_to_curve(w, op["samples"]))
        t = time.perf_counter() - t0
        return t, {"terms": _terms(got)}
    t0 = time.perf_counter()
    lifted = covering.lift_path(covering.word_to_curve(w, op["samples"]), covering.BASE_LIFT_POINT)
    pieces = covering.slalom_decompose(lifted).pieces
    t = time.perf_counter() - t0
    return t, {
        "end": [lifted.end.real, lifted.end.imag],
        "pieces": [[p.half_plane.value, p.start_component, p.end_component] for p in pieces],
    }


def op_braid(op):
    from slalom import braids
    from slalom.syllables import BoundaryCondition

    t0 = time.perf_counter()
    b = braids.parse_braid(op["text"])
    w = braids.cstar(b)
    tr = braids.braid_invariant(b, BoundaryCondition.TOTALLY_REAL)
    pb = braids.braid_invariant(b, BoundaryCondition.PERPENDICULAR_BISECTOR)
    t = time.perf_counter() - t0
    letters = " ".join(f"{l.gen.value}{'+' if l.sign > 0 else '-'}" for l in b.letters)
    return t, {"letters": letters, "terms": _terms(w), "tr": _bounds(tr), "pb": _bounds(pb)}


def op_invariant(op):
    from slalom import elliptic, syllables, words

    if op["kind"] == "word":
        text = inputs.word_text(op["terms"])
        t0 = time.perf_counter()
        w = words.parse_word(text)
        canonical = words.format_word(w)
        dec = syllables.decompose(w)
        tr = syllables.lambda_bounds(w, syllables.BoundaryCondition.TOTALLY_REAL)
        pb = syllables.lambda_bounds(w, syllables.BoundaryCondition.PERPENDICULAR_BISECTOR)
        t = time.perf_counter() - t0
        table = [[s.kind.value, [[x.gen.value, x.exponent] for x in s.terms], s.degree] for s in dec.syllables]
        return t, {"terms": _terms(w), "text": canonical, "table": table, "tr": _bounds(tr), "pb": _bounds(pb)}
    if op["kind"] == "sweep":
        t0 = time.perf_counter()
        rep = elliptic.verify_log_bounds(op["ms"])
        t = time.perf_counter() - t0
        return t, {"min": rep.ratio_min, "max": rep.ratio_max, "n": len(rep.m_range)}
    method = elliptic.ModulusMethod(op["kind"])
    t0 = time.perf_counter()
    q = elliptic.rect_extremal_length(op["M"], method)
    t = time.perf_counter() - t0
    return t, {"lam": q.extremal_length, "module": q.conformal_module}


# The reference tasks do the kind of work the operations do and never change.
# Each returns its time over its nominal time, which is about its time on the
# machine in README.md; times divided by it are as on a host where the task
# takes its nominal time (README.md, "Host speed").
def slowdown_in_process() -> float:
    """Fastest of 3 runs of a complex-arithmetic loop, over its nominal 2 ms."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        z, out = 0.3 + 0.2j, []
        for _ in range(2000):
            w = cmath.tanh(z)
            z = z - (w - 0.5) / (1 - w * w) * 0.1 + 0.001j
            out.append((z, abs(w)))
        best = min(best, time.perf_counter() - t0)
    return best / 2e-3


def slowdown_process() -> float:
    """A fresh interpreter importing a few standard modules, over its nominal 0.1 s."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, decimal, email.parser, json, xml.etree.ElementTree"],
                   check=True)
    return (time.perf_counter() - t0) / 0.1


def run_round(run_op, slowdown, job, r: int, traced: bool) -> dict:
    """Run round ``r``; ``slowdown`` runs at its start and end and every REFERENCE_EVERY_S between."""
    results, refs, before = [], [slowdown()], []
    last = time.perf_counter()
    for op in inputs.round_ops(job["workload"], job["seed"], r, job["quick"], job["tmp"]):
        before.append(len(refs) - 1)
        t0 = time.perf_counter()
        try:
            results.append(run_op(op))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((time.perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}))
        if time.perf_counter() - last >= REFERENCE_EVERY_S:
            refs.append(slowdown())
            last = time.perf_counter()
    if before[-1] == len(refs) - 1:
        refs.append(slowdown())
    ops = [[t, (refs[b] + refs[b + 1]) / 2, out] for b, (t, out) in zip(before, results)]
    return {"r": r, "traced": traced, "ops": ops}


def main() -> int:
    job = json.load(sys.stdin)
    # one CPU for the operations, the CLI processes they start and the
    # reference task, so the task measures the speed the operations ran at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = job["workload"]
    if workload == "cli":
        run_op = op_cli_inprocess if job["trace"] else op_cli_subprocess
    else:
        run_op = {"word-ladder": op_ladder, "braids": op_braid, "invariants": op_invariant}[workload]
    slowdown = slowdown_process if run_op is op_cli_subprocess else slowdown_in_process

    def emit(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    budget = job["seconds"] / 2 if job["trace"] else job["seconds"]
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < budget:
        emit(run_round(run_op, slowdown, job, rounds, traced=False))
        rounds += 1
    if job["trace"]:
        tracer, slowdowns = Tracer(), []
        with tracer.installed():
            for r in range(rounds):
                rnd = run_round(run_op, slowdown, job, r, traced=True)
                slowdowns += [s for _, s, _ in rnd["ops"]]
                emit(rnd)
        tracer.write(job["trace_file"])
        emit({"layers": layer_metrics(tracer.spans, rounds, 1 / statistics.median(slowdowns))})
    return 0


if __name__ == "__main__":
    sys.exit(main())
