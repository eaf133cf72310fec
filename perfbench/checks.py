"""Checks of slalom's outputs against values computed apart from the program.

Nothing here imports slalom.  Each ``check_*`` function returns ``None`` when
the output is right and a one-line reason when it is wrong.

- lambda(R^M) against ``2 K(k^2) / K(1 - k^2)`` in mpmath, k = M/(M+1), to
  the 1e-8 relative accuracy ``slalom.elliptic`` states.
- Syllable tables and Lambda against the construction of the word, and the
  exceptional flags and brackets against their definitions: a word is
  exceptional for ``tr`` when it has at most one term, and for ``pb`` when
  all its exponents are +1 or all are -1; otherwise the bracket is
  c_minus * Lambda to c_plus * Lambda.
- Words read back from curves must equal the input exactly.
- A lift ends at -i/2 + i (sum of a1 exponents - sum of a2 exponents), and
  its slalom pieces alternate half-planes, chain from component -1 and
  rebuild the input word.
- The image of a pure braid is computed symbolically from A12 -> a1,
  A23 -> a2, A13 -> a1^-1 a2^-1.
"""

from __future__ import annotations

import functools
import json
import math
import xml.etree.ElementTree as ET

import mpmath

import inputs

RECT_RTOL = 1e-8
LIFT_ATOL = 1e-6
FLOAT_RTOL = 1e-12
DEFAULT_CONFIG = {"c_minus": 0.1, "c_plus": 10.0, "samples_per_turn": 128, "lift_tolerance": 1e-6, "svg_scale": 40.0}
SVG_TAG = "{http://www.w3.org/2000/svg}svg"


@functools.lru_cache(maxsize=None)
def rect_oracle(m: float) -> float:
    """Extremal length of R^M from mpmath's complete elliptic integral."""
    with mpmath.workdps(30):
        mp = mpmath.mpf(m)
        k2 = (mp / (mp + 1)) ** 2
        return float(2 * mpmath.ellipk(k2) / mpmath.ellipk(1 - k2))


def _close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def decompose(terms) -> list:
    """Syllables (kind, terms, degree) of a reduced word, from their definition."""
    out, i = [], 0
    while i < len(terms):
        e = terms[i][1]
        if abs(e) >= 2:
            out.append(("big_power", (tuple(terms[i]),), abs(e)))
            i += 1
            continue
        j = i + 1
        while j < len(terms) and terms[j][1] == e:
            j += 1
        out.append(("alternating_run" if j - i >= 2 else "singleton", tuple(map(tuple, terms[i:j])), j - i))
        i = j
    return out


def expected_bounds(terms, table, boundary: str) -> list:
    """[Lambda, lower, upper, exceptional] under the default constants."""
    lam = sum(math.log(1 + degree) for _, _, degree in table)
    if boundary == "tr":
        exceptional = len(terms) <= 1
    else:
        exceptional = {e for _, e in terms} in (set(), {1}, {-1})
    if exceptional:
        return [lam, 0.0, 0.0, True]
    return [lam, DEFAULT_CONFIG["c_minus"] * lam, DEFAULT_CONFIG["c_plus"] * lam, False]


def _same_bounds(got, want) -> bool:
    return got[3] == want[3] and all(_close(g, w) for g, w in zip(got[:3], want[:3]))


def _same_terms(got, want) -> bool:
    return [tuple(t) for t in got] == [tuple(t) for t in want]


def check_lift(terms, end, pieces) -> str | None:
    """Endpoint and slalom pieces of the lift of the standard curve of ``terms``."""
    shift = sum(e if g == "a1" else -e for g, e in terms)
    if abs(complex(*end) - complex(0, shift - 0.5)) > LIFT_ATOL:
        return f"lift ends at {end}, expected {shift - 0.5}i"
    comp, half_prev, rebuilt = -1, None, []
    for half, start, stop in pieces:
        if start != comp:
            return f"piece {half} {start}->{stop} does not start at component {comp}"
        if half == half_prev:
            return f"two consecutive {half} pieces"
        rebuilt.append(("a1", stop - start) if half == "left" else ("a2", start - stop))
        comp, half_prev = stop, half
    if comp != math.floor(shift - 0.5):
        return f"pieces end at component {comp}, the lift at {end}"
    if inputs.free_reduce(rebuilt) != tuple(map(tuple, terms)):
        return "word rebuilt from the pieces differs from the input"
    return None


def check_svg(path: str) -> str | None:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return f"SVG {path} does not parse: {exc}"
    return None if root.tag == SVG_TAG else f"SVG {path} has root {root.tag}"


def braid_letters(text: str) -> str:
    """Unit letters of braid text, as the worker reports them (``s1+ s2- ...``)."""
    out = []
    for tok in text.split():
        gen, _, exp = tok.partition("^")
        n = int(exp) if exp else 1
        out += [gen + ("+" if n > 0 else "-")] * abs(n)
    return " ".join(out)


def check_ladder(op, out) -> str | None:
    if op["route"] == "read":
        return None if _same_terms(out["terms"], op["terms"]) else "curve_to_word did not return the input word"
    return check_lift(op["terms"], out["end"], out["pieces"])


def check_braid(op, out) -> str | None:
    if out["letters"] != braid_letters(op["text"]):
        return "parse_braid letters differ from the text"
    if not _same_terms(out["terms"], op["image"]):
        return f"cstar gave {out['terms']}, expected {op['image']}"
    table = decompose(op["image"])
    for bc in ("tr", "pb"):
        if not _same_bounds(out[bc], expected_bounds(op["image"], table, bc)):
            return f"{bc} bounds {out[bc]} are wrong"
    return None


def _table_of(table) -> list:
    return [[kind, [list(t) for t in seg], degree] for kind, seg, degree in table]


def check_invariant(op, out) -> str | None:
    kind = op["kind"]
    if kind == "word":
        if not _same_terms(out["terms"], op["terms"]) or out["text"] != inputs.word_text(op["terms"]):
            return "parse_word/format_word do not round-trip the word"
        if out["table"] != _table_of(op["table"]):
            return "syllable table differs from the construction"
        for bc in ("tr", "pb"):
            if not _same_bounds(out[bc], expected_bounds(op["terms"], op["table"], bc)):
                return f"{bc} bounds {out[bc]} are wrong"
        return None
    if kind == "sweep":
        ratios = [rect_oracle(m) / math.log1p(m) for m in op["ms"]]
        if out["n"] != len(op["ms"]):
            return "sweep lost samples"
        if not (_close(out["min"], min(ratios), RECT_RTOL) and _close(out["max"], max(ratios), RECT_RTOL)):
            return f"sweep extrema {out['min']}, {out['max']} differ from the oracle"
        return None
    want = rect_oracle(op["M"])
    if not _close(out["lam"], want, RECT_RTOL):
        return f"{kind} lambda(R^M) at M={op['M']} is {out['lam']}, oracle {want}"
    if not _close(out["module"], 1 / out["lam"]):
        return "conformal module is not 1/lambda"
    return None


def _syllable_rows(table) -> list:
    return [{"kind": k, "terms": inputs.word_text(seg), "degree": d} for k, seg, d in table]


def check_cli(op, out) -> str | None:
    if out["code"] != 0:
        return f"exit {out['code']}: {out['stderr'].strip()}"
    try:
        doc = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    cmd, res = op["argv"][0], doc["result"]
    if doc["tool"] != "slalom" or doc["command"] != cmd or doc["config"] != DEFAULT_CONFIG:
        return "document header or config differs"
    if cmd in ("lambda", "syllables"):
        terms, table = op["terms"], op["table"]
        bounds = {bc: expected_bounds(terms, table, bc) for bc in ("tr", "pb")}
        if res["word"] != inputs.word_text(terms) or res["syllables"] != _syllable_rows(table):
            return f"{cmd}: word or syllable table differs"
        if not _close(res["lambda"], bounds["tr"][0]):
            return f"{cmd}: Lambda {res['lambda']} is wrong"
        if cmd == "lambda":
            for bc, want in bounds.items():
                b = res[f"bounds_{bc}"]
                if not _same_bounds([res["lambda"], b["lower"], b["upper"], res[f"exceptional_{bc}"]], want):
                    return f"lambda: {bc} flags or bounds are wrong"
        return None
    if cmd == "rectangle-module":
        return check_invariant({"kind": op["argv"][-1], "M": op["M"]},
                               {"lam": res["extremal_length"], "module": res["conformal_module"]})
    if cmd == "verify-bounds":
        ms = inputs.log_grid(op["from"], op["to"], op["samples"])
        if len(res["m_range"]) != len(ms) or not all(_close(a, b) for a, b in zip(res["m_range"], ms)):
            return "verify-bounds: M grid differs"
        return check_invariant({"kind": "sweep", "ms": ms},
                               {"min": res["ratio_min"], "max": res["ratio_max"], "n": len(res["m_range"])})
    if cmd == "lift":
        if res["word"] != inputs.word_text(op["terms"]):
            return "lift: word differs"
        end = res["lift_endpoint"]
        pieces = [[p["half_plane"], p["start_component"], p["end_component"]] for p in res["pieces"]]
        if any(p["trivial"] != (abs(p["start_component"] - p["end_component"]) <= 1) for p in res["pieces"]):
            return "lift: trivial flag is wrong"
        return check_lift(op["terms"], [end["re"], end["im"]], pieces) or (
            check_svg(op["svg"]) if "svg" in op else None)
    if cmd == "braid":
        image, table = op["image"], decompose(op["image"])
        if res["word"] != inputs.word_text(image) or res["syllables"] != _syllable_rows(table):
            return f"braid: word {res['word']!r}, expected {inputs.word_text(image)!r}"
        got = [res["lambda"], res["lower"], res["upper"], res["exceptional"]]
        if not _same_bounds(got, expected_bounds(image, table, op["boundary"])):
            return "braid: Lambda, flags or bounds are wrong"
        return check_svg(op["svg"]) if "svg" in op else None
    if cmd == "roundtrip":
        return None if res["count"] == op["count"] and res["failures"] == 0 else f"roundtrip: {res['failed_words']}"
    return f"unknown subcommand {cmd}"


CHECKS = {"cli": check_cli, "word-ladder": check_ladder, "braids": check_braid, "invariants": check_invariant}
