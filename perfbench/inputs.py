"""Seeded inputs of the four workloads, with the values the checks expect.

Nothing here imports slalom.  Every expected value is known by construction
(words are built syllable by syllable, braids factor by factor over the pure
generators), so the checks stay independent of the program.

A workload runs in rounds.  ``round_ops(workload, seed, r)`` returns the
operations of round ``r``: the same seed and round give the same operations,
and every round of a workload has the same number and kinds of operations.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli", "word-ladder", "braids", "invariants")

GENS = ("a1", "a2")

# The ladder of word-ladder: (letters, samples per turn).  The 1000-letter
# rung runs at 64 samples only, so that a round stays short enough to repeat
# several times in a run.
LADDER = ((1, 64), (10, 64), (100, 64), (1000, 64), (1, 128), (10, 128), (100, 128))
WORD_KINDS = ("powers", "runs", "mixed")

# Letters of the braids of one braids round, before the full twist; the
# braids at TWIST_SLOTS (a quarter of them) get the full twist appended.
BRAID_LETTERS = (8, 16, 24, 32, 40, 48, 56, 64)
TWIST_SLOTS = (3, 7)
FULL_TWIST = "s1 s2 s1 s1 s2 s1"

# Syllables of the invariants words of one round.
WORD_SYLLABLES = (1, 1, 2, 4, 16, 64, 256)

# The fixed M grid of the rectangle operations.  It does not depend on the
# seed: some of its points hit the quadrature convergence fault, and those
# operations must fail in the same share in every run.
RECT_GRID = tuple(10 ** (-4 + 11 * j / 199) for j in range(200))
# The sweep of the logarithmic-bound check in acceptance criterion 3.
LOG_SWEEP = tuple(0.5 * (2e4) ** (j / 39) for j in range(40))

# Pure generators as braid text, with their images in the free group.  A12
# and A23 map to a1 and a2; A13 then maps to a1^-1 a2^-1, because the full
# twist A12 A13 A23 lies in the kernel (see README.md).
PURE_GENERATORS = {
    "A12": ("s1^2", (("a1", 1),)),
    "A23": ("s2^2", (("a2", 1),)),
    "A13": ("s2 s1^2 s2^-1", (("a1", -1), ("a2", -1))),
}
PURE_INVERSES = {
    "A12": "s1^-2",
    "A23": "s2^-2",
    "A13": "s2 s1^-2 s2^-1",
}


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _other(gen: str) -> str:
    return "a2" if gen == "a1" else "a1"


def word_text(terms) -> str:
    """Canonical text of a reduced word, as ``slalom.words.format_word`` writes it."""
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in terms)


def free_reduce(terms) -> tuple[tuple[str, int], ...]:
    """Free reduction of a sequence of (generator, exponent) pairs."""
    stack: list[list] = []
    for g, e in terms:
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        elif e:
            stack.append([g, e])
    return tuple((g, e) for g, e in stack)


def syllable_word(rng: random.Random, n_syllables: int):
    """A reduced word built syllable by syllable, with its syllable table.

    A run or singleton after a term of exponent +-1 takes the opposite sign,
    so no syllable merges with its neighbour and the table is the unique
    decomposition.  Returns (terms, [(kind, terms, degree), ...]).
    """
    gen = rng.choice(GENS)
    last = 0
    terms: list[tuple[str, int]] = []
    table = []
    for _ in range(n_syllables):
        kind = rng.choice(("big_power", "alternating_run", "singleton"))
        if kind == "big_power":
            exps = [rng.choice((1, -1)) * rng.randint(2, 9)]
        else:
            sign = -last if abs(last) == 1 else rng.choice((1, -1))
            exps = [sign] * (rng.randint(2, 5) if kind == "alternating_run" else 1)
        seg = []
        for e in exps:
            seg.append((gen, e))
            gen = _other(gen)
        terms += seg
        table.append((kind, tuple(seg), sum(abs(e) for e in exps)))
        last = exps[-1]
    return tuple(terms), table


def ladder_word(rng: random.Random, kind: str, letters: int) -> tuple[tuple[str, int], ...]:
    """A reduced word of exactly ``letters`` letters.

    ``powers``: exponents of size at least 2 (a 1-letter word is a single
    letter); ``runs``: exponents +-1 in runs of equal sign; ``mixed``:
    exponents of size 1 to 3.
    """
    gen = rng.choice(GENS)
    sign = rng.choice((1, -1))
    terms = []
    budget = letters
    while budget > 0:
        if kind == "powers":
            size = budget if budget < 4 else rng.randint(2, min(12, budget - 2))
        elif kind == "runs":
            size = 1
            if rng.random() < 0.3:
                sign = -sign
        else:
            size = rng.randint(1, min(3, budget))
        if kind != "runs":
            sign = rng.choice((1, -1))
        terms.append((gen, sign * size))
        budget -= size
        gen = _other(gen)
    return tuple(terms)


def pure_braid(rng: random.Random, letters: int):
    """A product of pure generators and their inverses with exactly ``letters`` letters.

    Returns (text, image terms before free reduction).
    """
    parts, image = [], []
    budget = letters
    while budget > 0:
        name = rng.choice(("A12", "A23") if budget == 2 else ("A12", "A23", "A13"))
        budget -= 4 if name == "A13" else 2
        text, img = PURE_GENERATORS[name]
        if rng.random() < 0.5:
            parts.append(PURE_INVERSES[name])
            image += [(g, -e) for g, e in reversed(img)]
        else:
            parts.append(text)
            image += list(img)
    return " ".join(parts), image


def _cli_round(rng: random.Random, r: int, tmp: str) -> list[dict]:
    w1, t1 = syllable_word(rng, 3)
    w2 = ladder_word(rng, "mixed", rng.randint(4, 8))
    w3 = ladder_word(rng, "mixed", rng.randint(4, 8))
    m = 10 ** rng.uniform(-2, 4)
    frm, to = 0.5 * 10 ** rng.uniform(0, 0.5), 10 ** rng.uniform(3, 4)
    b1, i1 = pure_braid(rng, 8)
    b2, i2 = pure_braid(rng, 8)
    svg1, svg2 = f"{tmp}/lift-{r}.svg", f"{tmp}/braid-{r}.svg"
    return [
        {"argv": ["lambda", word_text(w1)], "terms": w1, "table": t1},
        {"argv": ["syllables", word_text(w1)], "terms": w1, "table": t1},
        {"argv": ["rectangle-module", "--M", repr(m), "--method", "closed"], "M": m},
        {"argv": ["rectangle-module", "--M", repr(m), "--method", "quad"], "M": m},
        {"argv": ["verify-bounds", "--from", repr(frm), "--to", repr(to), "--samples", "20"],
         "from": frm, "to": to, "samples": 20},
        {"argv": ["lift", word_text(w2)], "terms": w2},
        {"argv": ["lift", word_text(w3), "--svg", svg1], "terms": w3, "svg": svg1},
        {"argv": ["braid", b1, "--boundary", "tr"], "image": free_reduce(i1), "boundary": "tr"},
        {"argv": ["braid", b2, "--svg", svg2], "image": free_reduce(i2), "boundary": "pb", "svg": svg2},
        {"argv": ["roundtrip", "--count", "5", "--maxlen", "8", "--seed", str(rng.randrange(10**6))],
         "count": 5},
    ]


def _ladder_round(rng: random.Random, r: int, quick: bool) -> list[dict]:
    ops = []
    for i, (n, samples) in enumerate(rung for rung in LADDER if not (quick and rung[0] > 100)):
        # the word kind rotates with the round, so a run of three rounds
        # meets every kind at every rung
        terms = ladder_word(rng, WORD_KINDS[(i + r) % len(WORD_KINDS)], n)
        for route in ("read", "lift"):
            ops.append({"route": route, "terms": terms, "samples": samples, "letters": n})
    return ops


def _braids_round(rng: random.Random, quick: bool) -> list[dict]:
    ops = []
    for i, n in enumerate(BRAID_LETTERS[:4] if quick else BRAID_LETTERS):
        text, image = pure_braid(rng, n)
        if i in TWIST_SLOTS:
            text = f"{text} {FULL_TWIST}"
        ops.append({"text": text, "image": free_reduce(image)})
    return ops


def _invariants_round(rng: random.Random, quick: bool) -> list[dict]:
    ops = []
    for n in WORD_SYLLABLES[:-2] if quick else WORD_SYLLABLES:
        terms, table = syllable_word(rng, n)
        ops.append({"kind": "word", "terms": terms, "table": table})
    grid = RECT_GRID[::10] if quick else RECT_GRID
    ops += [{"kind": "closed", "M": m} for m in grid]
    ops += [{"kind": "quad", "M": m} for m in grid]
    ops.append({"kind": "sweep", "ms": LOG_SWEEP})
    return ops


def round_ops(workload: str, seed: int, r: int, quick: bool = False, tmp: str = "") -> list[dict]:
    """The operations of round ``r`` of ``workload``; ``tmp`` is the SVG directory of cli."""
    rng = _rng(workload, seed, r)
    if workload == "cli":
        return _cli_round(rng, r, tmp)
    if workload == "word-ladder":
        return _ladder_round(rng, r, quick)
    if workload == "braids":
        return _braids_round(rng, quick)
    if workload == "invariants":
        return _invariants_round(rng, quick)
    raise ValueError(f"unknown workload {workload!r}")


def setup_modules(workload: str) -> tuple[str, ...]:
    """The slalom modules a workload drives, imported by the set-up measurement."""
    return {
        "cli": ("slalom.cli",),
        "word-ladder": ("slalom.covering",),
        "braids": ("slalom.braids",),
        "invariants": ("slalom.words", "slalom.syllables", "slalom.elliptic"),
    }[workload]


def log_grid(frm: float, to: float, samples: int) -> list[float]:
    """The M values of ``slalom verify-bounds --from --to --samples``."""
    lo, hi = math.log(frm), math.log(to)
    return [math.exp(lo + (hi - lo) * j / max(samples - 1, 1)) for j in range(samples)]
