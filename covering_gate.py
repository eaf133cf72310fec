"""Compare the covering's and the text readers' outcomes in two source trees, case by case.

    python3 covering_gate.py PARENT_ROOT CHANGE_ROOT [--quick]

Each root is a checkout of this repository.  Each tree's ``src/`` is imported in a subprocess of its own, which
runs every case of nine corpora, in this order, through that tree's ``slalom``; all but ``parses`` go through
``slalom.covering``:

- ``word-ladder``: the ops of the benchmark's ``word-ladder`` workload, seeds 1-3, rounds 0-2 (126 ops): the read
  route gives the word that ``curve_to_word`` reads, the lift route the lift from ``BASE_LIFT_POINT``;
- ``braids``: the curves ``cross_ratio_curve(braid_to_strands(b))`` of the first 150 braids of the benchmark's
  ``braids`` workload, seed 1;
- ``polygons``: 24000 loops from 0 of 1 to 6 vertices drawn with seed 33, each coordinate of either sign and
  log-uniform from 1e-3 to 1e2 or from 1e-300 to 1.6e308, or one of 0, 1, 1e-9, 2e-9, 1.3e308, 1.7e308 and 5e-324, at
  a tolerance of 1e-6, inf or 2e-16;
- ``far-up``: four word curves at 16 and 64 samples per turn lifted from +-(2^k - 1/2)i, k < 62, at tolerances 1e-6,
  1e-9 and inf (2976 lifts);
- ``runs``: 4000 paths drawn with seed 36, each 0 and then 1 to 4 runs of 2 to 5 copies of a unit, built as
  ``runs_path`` of ``tests/test_covering.py`` builds them, so that the lift and the reader take them by their runs;
  a unit is 1 to 3 legs from 0 back to 0, each a turn about a puncture (crossing its ray once), a loop inside
  |z| < 0.85 (crossing none) or 1 to 3 vertices near a puncture or in [-3, 3]^2 (crossing any number of times),
  lifted from -i/2 at a tolerance of 1e-6, inf or 2e-16, or from (10^6 + 1/2)i at 1e-9;
- ``splits``: 1000 paths drawn as ``runs`` draws them with seed 38, each unit but the last then ending off 0 or at
  -0.0 - 0.0i, by turns (``SPLIT_ENDS``), so that in a path of two runs or more the first copy of each run follows a
  sample of other bits than its unit's last, and the lift and the reader plan it apart from the rest of its run;
- ``starts``: the lift ops of ``word-ladder``, and 1000 paths drawn as ``runs`` draws them with seed 37, lifted from
  each of ``OFF_STARTS``, starts in the fiber over 0 that are not the bit-exact lift of 0 from their branch, so that a
  lift's first copy follows a point other than its plan's first sample lifted;
- ``parses``: 20000 texts of 0 to 10 tokens drawn with seed 35 from ``TOKEN_PARTS``, the token parts of
  ``tests/test_words.py``, each read by ``parse_word`` and by ``parse_braid``, and the 150 braids of ``braids``, each
  read by ``parse_braid`` and then by ``cstar`` and by ``braid_invariant`` at both boundary conditions;
- ``memo``: the lift ops of ``word-ladder`` and the lifts of ``far-up``, once each, lifted again at a tolerance of
  1e-6, then inf, then 2e-16, then 1e-6 again, after the corpora above in the same process: so what one lift leaves
  in the process for the next is read warm, against the other tree's outcomes.

A ladder read op's outcome is the word ``curve_to_word`` reads, or its error's type and message.  A text's is the
value each reader gives, or its error's type, message and column; a braid's in ``parses`` is its ``cstar`` word and
both bounds.  Every other case's is the lift's point bits, its ``_real_signs`` (the b"-0+" sign class of the real part
of each of its points) and its pieces or the type and message of ``slalom_decompose``'s refusal of them, or the type
and message of the error raised on the way, by ``PolyPath`` or ``lift_path``, and the word read.  The cases are drawn
in this process, with the ``perfbench/`` beside this file, and handed to both trees, so only ``slalom`` can differ.
The gate prints, per corpus, the cases, the changed outcomes and the change's outcomes by kind, and the first
changed cases; where a case changed but kept its kind, it names the parts that differ: the lift's point bits (how many
points moved and the largest |dz|, read from both trees again for those cases alone), ``_real_signs``, pieces, the
error, the word read, or a text's ``word`` or ``braid`` reading, or a braid's ``cstar``, ``tr`` or ``pb``.  It
exits 1 where any outcome changed.  ``--quick`` runs a few cases of each corpus.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import math
import os
import pickle
import random
import struct
import subprocess
import sys
from collections import Counter
from itertools import chain
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


RUNS_STARTS = ((complex(0.0, -0.5), 1e-6), (complex(0.0, -0.5), math.inf), (complex(0.0, -0.5), 2e-16),
               (complex(0.0, 1e6 + 0.5), 1e-9))
OFF_STARTS = ((complex(3e-9, -0.5), math.inf), (complex(3e-9, -0.5), 1e-6), (complex(0.0, -0.5 + 2e-9), 1e-6),
              (complex(-2e-9, 1e6 + 0.5), 1e-9))
SPLIT_ENDS = ((0.5 + 0.5j, 0.3 + 0.2j), (0.5 + 0.5j, complex(-0.0, -0.0)))  # as OFF_ZERO and SIGNED_ZERO of the tests


def leg(rng: random.Random) -> tuple[complex, ...]:
    """A path from 0 back to 0, drawn as ``LEGS`` of ``tests/test_covering.py`` draws one: a turn about a puncture with
    a vertex at each of 2 to 5 radii, a loop of 1 to 3 vertices inside |z| < 0.85, or 1 to 3 vertices near a puncture
    or in [-3, 3]^2."""
    pick = rng.randrange(3)
    if pick == 0:
        center, sign = rng.choice((-1.0, 1.0)), rng.choice((1, -1))
        radii = [rng.uniform(0.3, 1.7) for _ in range(rng.randint(2, 5))]
        k, phase = len(radii) + 1, 0.0 if center < 0 else math.pi
        return (*(center + r * cmath.exp(1j * (phase + sign * 2 * math.pi * j / k)) for j, r in enumerate(radii, 1)),
                0j)
    if pick == 1:
        return (*(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(rng.randint(1, 3))), 0j)
    near = (lambda: rng.choice((-1.0, 1.0)) + 10 ** rng.uniform(-8, math.log10(0.3))
            * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    anywhere = (lambda: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
    return (*(rng.choice((near, anywhere))() for _ in range(rng.randint(1, 3))), 0j)


def corpora(quick: bool = False) -> dict[str, list[tuple]]:
    """The cases of each corpus, as plain data: ("word", text, samples, route, start, tol), ("braid", text),
    ("polygon", vertices, tol), ("runs", runs, start, tol), ("text", text) or ("cstar", text)."""
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

    def runs_of(rng: random.Random) -> tuple:
        return tuple((sum((leg(rng) for _ in range(rng.randint(1, 3))), ()), rng.randint(2, 5))
                     for _ in range(rng.randint(1, 4)))

    def split(runs: tuple) -> tuple:
        k = rng.randrange(2)
        return (*((unit + SPLIT_ENDS[(k + i) % 2], n) for i, (unit, n) in enumerate(runs[:-1])), runs[-1])

    rng = random.Random(36)
    runs = [("runs", runs_of(rng), *rng.choice(RUNS_STARTS)) for _ in range(40 if quick else 4000)]
    rng = random.Random(38)
    splits = [("runs", split(runs_of(rng)), *rng.choice(RUNS_STARTS)) for _ in range(10 if quick else 1000)]
    rng = random.Random(37)
    lifts = [case for case in ladder if case[3] == "lift"]
    starts = [(*case[:4], *start) for case in lifts for start in OFF_STARTS]
    starts += [("runs", runs_of(rng), *start) for _ in range(10 if quick else 1000) for start in OFF_STARTS]
    once = list({case[:5]: case for case in lifts + far_up}.values())
    memo = [(*case[:5], tol) for tol in (1e-6, math.inf, 2e-16, 1e-6) for case in once]
    rng = random.Random(35)
    texts = [("text", "".join(rng.choice(part) for _ in range(rng.randint(0, 10)) for part in TOKEN_PARTS))
             for _ in range(200 if quick else 20000)]
    braids = braids[:5 if quick else 150]
    return {"word-ladder": ladder, "braids": braids, "polygons": polygons, "far-up": far_up, "runs": runs,
            "splits": splits, "starts": starts, "parses": texts + [("cstar", text) for _, text in braids], "memo": memo}


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
        points = b"".join(struct.pack("<dd", z.real, z.imag) for z in lifted.points)  # also where pieces are refused
        pieces = attempt(lambda: [(p.half_plane.value, p.start_component, p.end_component)
                                  for p in covering.slalom_decompose(lifted).pieces])
        return points, bytes(b"-0+"[(z.real > 0) - (z.real < 0) + 1] for z in lifted.points), pieces

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
        elif case[0] == "runs":
            _, runs, start, tol = case
            runs = (((0j,), 1), *runs)
            curve = object.__new__(covering.PolyPath)  # as runs_path builds it: it carries its runs
            curve.__dict__.update(points=tuple(chain.from_iterable(unit * n for unit, n in runs)),
                                  plane=covering.Plane.PUNCTURED, _runs=runs)
            checked = attempt(lambda: covering.PolyPath(curve.points, covering.Plane.PUNCTURED))
            if isinstance(checked, tuple):
                return "PolyPath", {"error": checked}
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
            points = f" ({sum(n for n, _ in found)} points moved, largest |dz| {max(d for _, d in found):.3g})" \
                if found else ""  # none where only errors, or lifts of other lengths, differ
            kept.append(f"{name}: {len(same)} kept their kind and differ in " + ", ".join(
                f"{part} {n}" + (points if part == "points" else "") for part, n in parts.items()))
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
