"""Compare the covering's outcomes in two source trees, case by case.

    python3 covering_gate.py PARENT_ROOT CHANGE_ROOT [--quick]

Each root is a checkout of this repository.  Each tree's ``src/`` is imported in a subprocess of its own, which
runs every case of four corpora through that tree's ``slalom.covering``:

- ``word-ladder``: the ops of the benchmark's ``word-ladder`` workload, seeds 1-3, rounds 0-2 (126 ops): the read
  route gives the word that ``curve_to_word`` reads, the lift route the lift from ``BASE_LIFT_POINT``;
- ``braids``: the curves ``cross_ratio_curve(braid_to_strands(b))`` of the first 150 braids of the benchmark's
  ``braids`` workload, seed 1;
- ``polygons``: 24000 loops from 0 of 1 to 6 vertices drawn with seed 33, each coordinate of either sign and
  log-uniform from 1e-3 to 1e2 or from 1e-300 to 1.6e308, or one of 0, 1, 1e-9, 2e-9, 1.3e308, 1.7e308 and 5e-324, at
  a tolerance of 1e-6, inf or 2e-16;
- ``far-up``: four word curves at 16 and 64 samples per turn lifted from +-(2^k - 1/2)i, k < 62, at tolerances 1e-6,
  1e-9 and inf (2976 lifts).

A ladder read op's outcome is the word ``curve_to_word`` reads, or its error's type and message.  Every other case's
is the lift's point bits, its ``_real_signs`` and its pieces, or the type and message of the error raised on the way,
by ``PolyPath``, ``lift_path`` or ``slalom_decompose``, and the word read.  The cases are drawn in this process, with
the ``perfbench/`` beside this file, and handed to both trees, so only the covering can differ.  The gate prints, per
corpus, the cases, the changed outcomes and the change's outcomes by kind, and the first changed cases; it exits 1
where any outcome changed.  ``--quick`` runs a few cases of each corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import pickle
import random
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

FAR_UP_WORDS = ("a1", "a2^-2", "a1^3 a2^-1 a1^-2", "a2 a1^-1 a2^2 a1")
SPECIAL = (0.0, 1.0, 1e-9, 2e-9, 1.3e308, 1.7e308, 5e-324)


def corpora(quick: bool = False) -> dict[str, list[tuple]]:
    """The cases of each corpus, as plain data: ("word", text, samples, route, start, tol), ("braid", text) or
    ("polygon", vertices, tol)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from perfbench import inputs

    ladder = [("word", inputs.word_text(op["terms"]), op["samples"], op["route"], complex(0.0, -0.5), 1e-6)
              for seed, r in ([(1, 0)] if quick else [(s, r) for s in (1, 2, 3) for r in (0, 1, 2)])
              for op in inputs.round_ops("word-ladder", seed, r, quick)]
    braids = []
    while len(braids) < (5 if quick else 150):
        braids += [("braid", op["text"]) for op in inputs.round_ops("braids", 1, len(braids) // 8)]
    rng = random.Random(33)

    def coordinate() -> float:
        pick = rng.randrange(3)
        x = rng.choice(SPECIAL) if pick == 2 else 10 ** rng.uniform(*((-3, 2), (-300, math.log10(1.6e308)))[pick])
        return rng.choice((1.0, -1.0)) * x

    polygons = [("polygon", tuple(complex(coordinate(), coordinate()) for _ in range(rng.randint(1, 6))),
                 rng.choice((1e-6, math.inf, 2e-16))) for _ in range(200 if quick else 24000)]
    far_up = [("word", text, samples, "lift", complex(0.0, sign * (2.0**k - 0.5)), tol)
              for text in FAR_UP_WORDS[:1 if quick else None] for samples in (16, 64) for sign in (1, -1)
              for k in ((0, 29, 53) if quick else range(62)) for tol in (1e-6, 1e-9, math.inf)]
    return {"word-ladder": ladder, "braids": braids[:5 if quick else 150], "polygons": polygons,
            "far-up": far_up}


def outcomes(cases: dict[str, list[tuple]]) -> dict[str, list[tuple[str, str]]]:
    """(digest of the outcome, its kind: "lifted", "read", "PolyPath" or the lift's error type) per case of each
    corpus, by the ``slalom`` on ``sys.path``."""
    from slalom import covering
    from slalom.braids import braid_to_strands, cross_ratio_curve, parse_braid
    from slalom.words import parse_word

    def attempt(action):
        try:
            return action()
        except Exception as exc:  # every error is an outcome: its type and message
            return type(exc).__name__, str(exc)

    def lift(curve, start, tol):
        lifted = covering.lift_path(curve, start, tol)
        pieces = [(p.half_plane.value, p.start_component, p.end_component)
                  for p in covering.slalom_decompose(lifted).pieces]
        return b"".join(struct.pack("<dd", z.real, z.imag) for z in lifted.points), lifted._real_signs, pieces

    def read(curve):
        return attempt(lambda: [(t.gen.value, t.exponent) for t in covering.curve_to_word(curve).terms])

    def run(case):
        """The kind of the case's outcome, and the outcome."""
        if case[0] == "word":
            _, text, samples, route, start, tol = case
            curve = covering.word_to_curve(parse_word(text), samples)
            if route == "read":
                return "read", read(curve)
        elif case[0] == "braid":
            curve, start, tol = cross_ratio_curve(braid_to_strands(parse_braid(case[1]))), complex(0.0, -0.5), 1e-6
        else:
            curve = attempt(lambda: covering.PolyPath((0j, *case[1], 0j), covering.Plane.PUNCTURED))
            if isinstance(curve, tuple):
                return "PolyPath", curve
            start, tol = complex(0.0, -0.5), case[2]
        lifted = attempt(lambda: lift(curve, start, tol))
        return lifted[0] if isinstance(lifted[0], str) else "lifted", (lifted, read(curve))

    out = {}
    for name, corpus in cases.items():
        out[name] = []
        for case in corpus:
            kind, got = run(case)
            out[name].append((hashlib.sha256(pickle.dumps(got)).hexdigest(), kind))
    return out


def in_tree(root: Path, cases: dict) -> dict:
    """``outcomes`` of ``cases`` in a subprocess that imports the ``slalom`` of ``root/src``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"], input=pickle.dumps(cases),
                          capture_output=True, env=env, check=True)
    return pickle.loads(done.stdout)


def report(cases: dict, parent: dict, change: dict) -> int:
    """Print the table of changed outcomes and the first changed cases; the number of changed outcomes."""
    print(f"{'corpus':<12} {'cases':>6} {'changed':>8}  outcomes of the change")
    total, shown = 0, []
    for name, corpus in cases.items():
        changed = [i for i, (a, b) in enumerate(zip(parent[name], change[name])) if a[0] != b[0]]
        kinds = ", ".join(f"{kind} {n}" for kind, n in sorted(Counter(k for _, k in change[name]).items()))
        print(f"{name:<12} {len(corpus):>6} {len(changed):>8}  {kinds}")
        total += len(changed)
        shown += [(name, corpus[i], parent[name][i][1], change[name][i][1]) for i in changed[:3]]
    for name, case, was, now in shown:
        print(f"changed in {name}: {case!r}: {was} -> {now}")
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--quick", action="store_true", help="a few cases of each corpus")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.stdout.buffer.write(pickle.dumps(outcomes(pickle.loads(sys.stdin.buffer.read()))))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_ROOT and CHANGE_ROOT are required")
    cases = corpora(args.quick)
    return 1 if report(cases, in_tree(args.parent.resolve(), cases), in_tree(args.change.resolve(), cases)) else 0


if __name__ == "__main__":
    sys.exit(main())
