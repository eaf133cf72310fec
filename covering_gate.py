"""Compare the covering's and the text readers' outcomes in two source trees, case by case.

    python3 covering_gate.py PARENT_ROOT CHANGE_ROOT [--quick]

Each root is a checkout of this repository.  Each tree's ``src/`` is imported in a subprocess of its own, which
runs every case of five corpora through that tree's ``slalom``; the first four go through ``slalom.covering``:

- ``word-ladder``: the ops of the benchmark's ``word-ladder`` workload, seeds 1-3, rounds 0-2 (126 ops): the read
  route gives the word that ``curve_to_word`` reads, the lift route the lift from ``BASE_LIFT_POINT``;
- ``braids``: the curves ``cross_ratio_curve(braid_to_strands(b))`` of the first 150 braids of the benchmark's
  ``braids`` workload, seed 1;
- ``polygons``: 24000 loops from 0 of 1 to 6 vertices drawn with seed 33, each coordinate of either sign and
  log-uniform from 1e-3 to 1e2 or from 1e-300 to 1.6e308, or one of 0, 1, 1e-9, 2e-9, 1.3e308, 1.7e308 and 5e-324, at
  a tolerance of 1e-6, inf or 2e-16;
- ``far-up``: four word curves at 16 and 64 samples per turn lifted from +-(2^k - 1/2)i, k < 62, at tolerances 1e-6,
  1e-9 and inf (2976 lifts);
- ``parses``: 20000 texts of 0 to 10 tokens drawn with seed 35 from ``TOKEN_PARTS``, the token parts of
  ``tests/test_words.py``, each read by ``parse_word`` and by ``parse_braid``, and the 150 braids of ``braids``, each
  read by ``parse_braid`` and then by ``cstar`` and by ``braid_invariant`` at both boundary conditions.

A ladder read op's outcome is the word ``curve_to_word`` reads, or its error's type and message.  A text's is the
value each reader gives, or its error's type, message and column; a braid's in ``parses`` is its ``cstar`` word and
both bounds.  Every other case's is the lift's point bits, its ``_real_signs`` and its pieces, or the type and message
of the error raised on the way, by ``PolyPath``, ``lift_path`` or ``slalom_decompose``, and the word read.  The cases
are drawn in this process, with the ``perfbench/`` beside this file, and handed to both trees, so only ``slalom`` can
differ.  The gate prints, per corpus, the cases, the changed outcomes and the change's outcomes by kind, and the first
changed cases; where a case changed but kept its kind, it names the parts that differ: the lift's point bits (how many
points moved and the largest |dz|, read from both trees again for those cases alone), ``_real_signs``, pieces, the
error, the word read, or a text's ``word`` or ``braid`` reading, or a braid's ``cstar``, ``tr`` or ``pb``.  It
exits 1 where any outcome changed.  ``--quick`` runs a few cases of each corpus.
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
# a token is a name, a mark, digits and a space after it, each drawn from these: names good and bad, ASCII and Unicode
# digits, digit strings past 2^63, ASCII and Unicode whitespace or none
TOKEN_PARTS = (
    ("a1", "a2", "s1", "s2", "a", "s3", "x", ""),
    ("", "^", "^+", "^-", "^^", "-"),
    ("", "0", "1", "12", "\u0663", "\uff11\uff12", str(2**63 - 1), str(2**63), "9" * 25),
    (" ", "  ", "\t", "\n", "\u3000", "\u00a0", "\x1f", ""),
)


def corpora(quick: bool = False) -> dict[str, list[tuple]]:
    """The cases of each corpus, as plain data: ("word", text, samples, route, start, tol), ("braid", text),
    ("polygon", vertices, tol), ("text", text) or ("cstar", text)."""
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
    rng = random.Random(35)
    texts = [("text", "".join(rng.choice(part) for _ in range(rng.randint(0, 10)) for part in TOKEN_PARTS))
             for _ in range(200 if quick else 20000)]
    braids = braids[:5 if quick else 150]
    return {"word-ladder": ladder, "braids": braids, "polygons": polygons, "far-up": far_up,
            "parses": texts + [("cstar", text) for _, text in braids]}


def outcomes(cases: dict[str, list[tuple]], points: bool = False) -> dict[str, list]:
    """(digest of the outcome, its kind: "lifted", "read", "PolyPath" or the lift's error type, and the digest of each
    of its parts) per case of each corpus, by the ``slalom`` on ``sys.path``; with ``points``, the lift's packed point
    bits alone (b"" where it did not lift)."""
    from slalom import covering
    from slalom.braids import braid_invariant, braid_to_strands, cross_ratio_curve, cstar, parse_braid
    from slalom.syllables import BoundaryCondition
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

    def terms(w):
        return [(t.gen.value, t.exponent) for t in w.terms]

    def read(curve):
        return attempt(lambda: terms(covering.curve_to_word(curve)))

    def parse(text, reader, plain):
        """``plain`` of the value ``reader`` reads from ``text``, a list, or the error's type, message and column."""
        try:
            return plain(reader(text))
        except Exception as exc:  # every error is an outcome: its type, message and column
            return type(exc).__name__, str(exc), getattr(exc, "column", None)

    def run(case):
        """The kind of the case's outcome, and its parts by name."""
        if case[0] == "text":
            parts = {"word": parse(case[1], parse_word, terms),
                     "braid": parse(case[1], parse_braid, lambda b: [(x.gen.value, x.sign) for x in b.letters])}
            return "+".join("read" if isinstance(v, list) else v[0] for v in parts.values()), parts
        if case[0] == "cstar":
            b = parse_braid(case[1])
            bounds = {bc.value: braid_invariant(b, bc) for bc in BoundaryCondition}
            return "cstar", {"cstar": terms(cstar(b)),
                             **{name: (v.lambda_value, v.lower, v.upper, v.exceptional) for name, v in bounds.items()}}
        if case[0] == "word":
            _, text, samples, route, start, tol = case
            curve = covering.word_to_curve(parse_word(text), samples)
            if route == "read":
                return "read", {"word": read(curve)}
        elif case[0] == "braid":
            curve, start, tol = cross_ratio_curve(braid_to_strands(parse_braid(case[1]))), complex(0.0, -0.5), 1e-6
        else:
            curve = attempt(lambda: covering.PolyPath((0j, *case[1], 0j), covering.Plane.PUNCTURED))
            if isinstance(curve, tuple):
                return "PolyPath", {"error": curve}
            start, tol = complex(0.0, -0.5), case[2]
        lifted = attempt(lambda: lift(curve, start, tol))
        if isinstance(lifted[0], str):
            return lifted[0], {"error": lifted, "word": read(curve)}
        return "lifted", {**dict(zip(("points", "_real_signs", "pieces"), lifted)), "word": read(curve)}

    def digest(value) -> str:
        return hashlib.sha256(pickle.dumps(value)).hexdigest()

    out = {}
    for name, corpus in cases.items():
        out[name] = []
        for case in corpus:
            kind, parts = run(case)
            out[name].append(parts.get("points", b"") if points else
                             (digest(parts), kind, {part: digest(value) for part, value in parts.items()}))
    return out


def in_tree(root: Path, cases: dict, points: bool = False) -> dict:
    """``outcomes`` of ``cases`` in a subprocess that imports the ``slalom`` of ``root/src``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          input=pickle.dumps((cases, points)), capture_output=True, env=env, check=True)
    return pickle.loads(done.stdout)


def moved(was: bytes, now: bytes) -> tuple[int, float] | None:
    """How many points of two lifts' packed point bits differ, and the largest |dz| between them; None where the
    lifts differ in length."""
    if len(was) != len(now):
        return None
    at = [i for i in range(0, len(was), 16) if was[i:i + 16] != now[i:i + 16]]
    return len(at), max((abs(complex(*struct.unpack_from("<dd", was, i)) - complex(*struct.unpack_from("<dd", now, i)))
                         for i in at), default=0.0)


def differing(was: dict, now: dict, move: tuple[int, float] | None = None) -> list[str]:
    """The parts in which two outcomes of one kind differ; the point bits with ``move``, as ``moved`` gives it."""
    parts = [part for part in was if was[part] != now[part]]
    if move is None:
        return parts
    return [f"points: {move[0]} moved, largest |dz| {move[1]:.3g}" if part == "points" else part for part in parts]


def report(cases: dict, parent: dict, change: dict, moves: dict | None = None) -> int:
    """Print the table of changed outcomes, the parts of those that kept their kind, and the first changed cases; the
    number of changed outcomes.  ``moves`` holds ``moved`` per (corpus, index) of a case whose point bits differ."""
    moves = moves or {}
    print(f"{'corpus':<12} {'cases':>6} {'changed':>8}  outcomes of the change")
    total, shown, kept = 0, [], []
    for name, corpus in cases.items():
        changed = [i for i, (a, b) in enumerate(zip(parent[name], change[name])) if a[0] != b[0]]
        kinds = ", ".join(f"{kind} {n}" for kind, n in sorted(Counter(k for _, k, *_ in change[name]).items()))
        print(f"{name:<12} {len(corpus):>6} {len(changed):>8}  {kinds}")
        total += len(changed)
        same = [i for i in changed if parent[name][i][1] == change[name][i][1]]
        if same:
            parts = Counter(part for i in same for part in differing(parent[name][i][2], change[name][i][2]))
            found = [moves[name, i] for i in same if moves.get((name, i))]
            points = f" ({sum(n for n, _ in found)} points moved, largest |dz| {max(d for _, d in found):.3g})"
            kept.append(f"{name}: {len(same)} kept their kind and differ in " + ", ".join(
                f"{part} {n}" + (points if part == "points" and found else "") for part, n in parts.items()))
        shown += [(name, i) for i in changed[:3]]
    for line in kept:
        print(line)
    for name, i in shown:
        a, b = parent[name][i], change[name][i]
        parts = differing(a[2], b[2], moves.get((name, i))) if a[1] == b[1] else []
        print(f"changed in {name}: {cases[name][i]!r}: {a[1]} -> {b[1]}" + (f" ({'; '.join(parts)})" if parts else ""))
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--quick", action="store_true", help="a few cases of each corpus")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.stdout.buffer.write(pickle.dumps(outcomes(*pickle.loads(sys.stdin.buffer.read()))))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_ROOT and CHANGE_ROOT are required")
    cases = corpora(args.quick)
    parent, change = (in_tree(root.resolve(), cases) for root in (args.parent, args.change))
    at = {name: [i for i, (a, b) in enumerate(zip(parent[name], change[name]))
                 if a[1] == b[1] and a[2].get("points") != b[2].get("points")] for name in cases}
    subset = {name: [cases[name][i] for i in at[name]] for name in cases}
    was, now = (in_tree(root.resolve(), subset, points=True) for root in (args.parent, args.change))
    moves = {(name, i): moved(a, b) for name in cases for i, a, b in zip(at[name], was[name], now[name])}
    return 1 if report(cases, parent, change, moves) else 0


if __name__ == "__main__":
    sys.exit(main())
