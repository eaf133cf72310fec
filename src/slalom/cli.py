"""Command-line front end: JSON reports on stdout, optional SVG to file."""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from slalom import __version__
from slalom.braids import PurityError, braid_to_strands, cross_ratio_curve, parse_braid
from slalom.config import Config, config_from_values, load_config
from slalom.covering import (
    LiftError,
    curve_to_word,
    lift_path,
    slalom_decompose,
    word_to_curve,
    BASE_LIFT_POINT,
)
from slalom.elliptic import ModulusMethod, rect_extremal_length, verify_log_bounds
from slalom.syllables import BoundaryCondition, bounds_report, decompose, lambda_invariant
from slalom.svg import render_lift_scene
from slalom.words import FreeWord, Generator, Term, format_word, parse_word


def _syllable_table(w: FreeWord) -> list[dict]:
    return [
        {"kind": s.kind.value, "terms": format_word(FreeWord(s.terms)), "degree": s.degree}
        for s in decompose(w).syllables
    ]


def _emit(args, result: dict, input_echo) -> int:
    doc = {
        "tool": "slalom",
        "version": __version__,
        "command": args.command,
        "input": input_echo,
        "result": result,
        "config": args.config_obj.as_dict(),
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_lambda(args) -> int:
    w = parse_word(args.word)
    if args.boundary:
        bc = BoundaryCondition(args.boundary)
        return _emit(args, bounds_report(w, bc, args.config_obj.bound_constants), args.word)
    lam = lambda_invariant(w)
    result = {
        "word": format_word(w),
        "lambda": lam,
        "syllables": _syllable_table(w),
    }
    for bc in BoundaryCondition:
        rep = bounds_report(w, bc, args.config_obj.bound_constants)
        result[f"exceptional_{bc.value}"] = rep["exceptional"]
        result[f"bounds_{bc.value}"] = {"lower": rep["lower"], "upper": rep["upper"]}
    return _emit(args, result, args.word)


def _cmd_syllables(args) -> int:
    w = parse_word(args.word)
    result = {
        "word": format_word(w),
        "syllables": _syllable_table(w),
        "lambda": lambda_invariant(w),
    }
    return _emit(args, result, args.word)


def _cmd_rectangle_module(args) -> int:
    method = ModulusMethod.CLOSED_FORM if args.method == "closed" else ModulusMethod.QUADRATURE
    qm = rect_extremal_length(args.M, method)
    result = {
        "M": qm.m_param,
        "extremal_length": qm.extremal_length,
        "conformal_module": qm.conformal_module if math.isfinite(qm.conformal_module) else "inf",
        "method": qm.method.value,
    }
    return _emit(args, result, {"M": args.M, "method": args.method})


def _cmd_verify_bounds(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    lo, hi = math.log(args.frm), math.log(args.to)
    ms = [math.exp(lo + (hi - lo) * j / max(args.samples - 1, 1)) for j in range(args.samples)]
    rep = verify_log_bounds(ms)
    result = {
        "m_range": list(rep.m_range),
        "ratio_min": rep.ratio_min,
        "ratio_max": rep.ratio_max,
    }
    return _emit(args, result, {"from": args.frm, "to": args.to, "samples": args.samples})


def _piece_table(pieces) -> list[dict]:
    return [
        {
            "half_plane": p.half_plane.value,
            "start_component": p.start_component,
            "end_component": p.end_component,
            "trivial": p.trivial,
        }
        for p in pieces
    ]


def _cmd_lift(args) -> int:
    cfg = args.config_obj
    w = parse_word(args.word)
    curve = word_to_curve(w, cfg.samples_per_turn)
    lifted = lift_path(curve, BASE_LIFT_POINT, cfg.lift_tolerance)
    pieces = slalom_decompose(lifted).pieces
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_lift_scene(lifted, pieces, curve=curve, scale=cfg.svg_scale))
    end = lifted.end
    result = {
        "word": format_word(w),
        "lift_endpoint": {"re": end.real, "im": end.imag},
        "pieces": _piece_table(pieces),
    }
    if args.svg:
        result["svg"] = args.svg
    return _emit(args, result, args.word)


def _cmd_braid(args) -> int:
    cfg = args.config_obj
    b = parse_braid(args.braidword)
    bc = BoundaryCondition(args.boundary)
    strands = braid_to_strands(b)
    curve = cross_ratio_curve(strands)
    w = curve_to_word(curve)
    rep = bounds_report(w, bc, cfg.bound_constants)
    if args.svg:
        lifted = lift_path(curve, BASE_LIFT_POINT, cfg.lift_tolerance)
        pieces = slalom_decompose(lifted).pieces
        with open(args.svg, "w") as fh:
            fh.write(render_lift_scene(lifted, pieces, curve=curve, scale=cfg.svg_scale))
    result = {
        "braid": args.braidword,
        "word": rep["word"],
        "syllables": rep["syllables"],
        "lambda": rep["lambda"],
        "lower": rep["lower"],
        "upper": rep["upper"],
        "exceptional": rep["exceptional"],
    }
    if args.svg:
        result["svg"] = args.svg
    return _emit(args, result, args.braidword)


def random_reduced_word(rng: random.Random, max_letters: int) -> FreeWord:
    """Random reduced word with letter length (sum of |exponents|) <= max_letters."""
    terms = []
    budget = rng.randint(0, max_letters)
    gen = rng.choice(list(Generator))
    while budget > 0:
        e = rng.randint(1, min(3, budget)) * rng.choice((1, -1))
        terms.append(Term(gen, e))
        budget -= abs(e)
        gen = Generator.A2 if gen is Generator.A1 else Generator.A1
    return FreeWord(tuple(terms))


def _cmd_roundtrip(args) -> int:
    cfg = args.config_obj
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.count):
        w = random_reduced_word(rng, args.maxlen)
        got = curve_to_word(word_to_curve(w, cfg.samples_per_turn))
        if got != w:
            failures.append({"word": format_word(w), "got": format_word(got)})
    result = {
        "count": args.count,
        "maxlen": args.maxlen,
        "seed": args.seed,
        "failures": len(failures),
        "failed_words": failures,
    }
    return _emit(args, result, {"count": args.count, "maxlen": args.maxlen})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slalom", description=__doc__)
    parser.add_argument("--config", help="path to a key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="Lambda invariant and bounds of a word")
    p.add_argument("word")
    p.add_argument("--boundary", choices=["tr", "pb"])
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("syllables", help="syllable decomposition of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_syllables)

    p = sub.add_parser("rectangle-module", help="extremal length of the M-rectangle")
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--method", choices=["closed", "quad"], default="closed")
    p.set_defaults(func=_cmd_rectangle_module)

    p = sub.add_parser("verify-bounds", help="logarithmic bound sweep")
    p.add_argument("--from", dest="frm", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("lift", help="lift the standard curve of a word")
    p.add_argument("word")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("braid", help="invariant of a pure 3-braid")
    p.add_argument("braidword")
    p.add_argument("--boundary", choices=["tr", "pb"], default="pb")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("roundtrip", help="word -> curve -> word self-check")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_obj = load_config(args.config)
        return args.func(args)
    except (ValueError, LiftError, PurityError, ArithmeticError, OSError) as exc:
        print(f"slalom: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
